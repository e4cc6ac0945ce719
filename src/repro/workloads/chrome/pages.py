"""Web-page models for the scrolling study (paper Section 4.2).

The paper scrolls through six pages with the Telemetry framework: three
Google services (Docs, Gmail, Calendar), two top-25 sites (WordPress,
Twitter), and one animation-heavy page.  Real page content is not
available offline, so each page is modeled by the parameters that drive
the scrolling pipeline's data movement:

* how many new pixels are rasterized per scrolled frame (texture area);
* how much the blitter overdraws, and what fraction of blits are
  src-over blends (text anti-aliasing) vs fills/copies;
* how much layout/JavaScript compute the page triggers per frame.

The parameters below were chosen so the resulting energy shares match
Figure 1 (texture tiling + color blitting = 41.9% of scrolling energy on
average, with Google Docs near 31% tiling / 19% blitting as in Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.workload import WorkloadFunction
from repro.sim.profile import KernelProfile
from repro.workloads.chrome.blitter import BlitStats, profile_color_blitting
from repro.workloads.chrome.texture import profile_texture_tiling

MB = 1024 * 1024


@dataclass(frozen=True)
class WebPage:
    """Scrolling-relevant characteristics of one web page."""

    name: str
    #: Frames rendered during the scroll interaction.
    scroll_frames: int
    #: Newly rasterized pixels per frame (scroll speed x width, plus
    #: invalidations).
    raster_pixels_per_frame: float
    #: Blitted pixels per rasterized pixel (overdraw from layers/text).
    blit_overdraw: float
    #: Fraction of blitted pixels using src-over blending (text AA).
    blend_fraction: float
    #: Layout + style recalculation instructions per frame.
    layout_instructions_per_frame: float
    #: JavaScript instructions per frame.
    js_instructions_per_frame: float

    # ------------------------------------------------------------------
    @property
    def raster_pixels(self) -> float:
        return self.scroll_frames * self.raster_pixels_per_frame

    def tiling_profile(self) -> KernelProfile:
        """All texture tiling triggered by the scroll."""
        # Tiling converts each rasterized bitmap once; express the total
        # area as an equivalent square bitmap for the profile.
        pixels = self.raster_pixels
        side = max(int(pixels**0.5), 1)
        return profile_texture_tiling(side, int(pixels / side))

    def blit_stats(self) -> BlitStats:
        blitted = self.raster_pixels * self.blit_overdraw
        blended = blitted * self.blend_fraction
        remainder = blitted - blended
        return BlitStats(
            pixels_filled=int(remainder * 0.5),
            pixels_copied=int(remainder * 0.5),
            pixels_blended=int(blended),
        )

    def blitting_profile(self) -> KernelProfile:
        return profile_color_blitting(self.blit_stats())

    def other_profile(self) -> KernelProfile:
        """Layout, JavaScript, paint bookkeeping, compositing handoff.

        Mostly compute-bound with cache-friendly working sets; each of the
        many functions in this bucket is individually <1% of energy
        (paper Figure 1, "Other").
        """
        instructions = self.scroll_frames * (
            self.layout_instructions_per_frame + self.js_instructions_per_frame
        )
        # DOM/render-tree traversal is pointer chasing over structures that
        # do not fit in the LLC; the page-level MPKI the paper reports
        # (21.4 average) implies the non-kernel code is memory-intensive
        # too (llc miss rate ~0.014/instruction = MPKI 14 here).
        llc_misses = instructions * 0.014
        return KernelProfile(
            name="other",
            instructions=instructions,
            mem_instructions=instructions * 0.35,
            alu_ops=instructions * 0.45,
            simd_fraction=0.05,
            l1_misses=instructions * 0.03,
            llc_misses=llc_misses,
            dram_bytes=llc_misses * 64,
            working_set_bytes=48 * MB,
            notes="layout + JS + misc (<1% each)",
        )

    def scrolling_functions(self) -> list[WorkloadFunction]:
        """The scrolling workload decomposition used for Figures 1-2."""
        return [
            WorkloadFunction(
                "texture_tiling",
                self.tiling_profile(),
                accelerator_key="texture_tiling",
                invocations=max(self.scroll_frames // 2, 1),
            ),
            WorkloadFunction(
                "color_blitting",
                self.blitting_profile(),
                accelerator_key="color_blitting",
                invocations=self.scroll_frames,
            ),
            WorkloadFunction("other", self.other_profile()),
        ]


def _page(
    name: str,
    raster_kpixels: float,
    overdraw: float,
    blend: float,
    layout_mi: float,
    js_mi: float,
    frames: int = 120,
) -> WebPage:
    return WebPage(
        name=name,
        scroll_frames=frames,
        raster_pixels_per_frame=raster_kpixels * 1000.0,
        blit_overdraw=overdraw,
        blend_fraction=blend,
        layout_instructions_per_frame=layout_mi * 1e6,
        js_instructions_per_frame=js_mi * 1e6,
    )


#: The six pages of Figure 1.  Tiling-vs-blitting balance and the size of
#: the "Other" bucket vary per page as in the paper: the Google services
#: are texture-heavy, Twitter/WordPress carry more script, the animation
#: page redraws constantly with blend-heavy painting.
PAGES: dict[str, WebPage] = {
    "Google Docs": _page(
        "Google Docs", raster_kpixels=520, overdraw=1.1, blend=0.75,
        layout_mi=3.4, js_mi=2.7,
    ),
    "Gmail": _page(
        "Gmail", raster_kpixels=420, overdraw=1.0, blend=0.7,
        layout_mi=3.8, js_mi=4.2,
    ),
    "Google Calendar": _page(
        "Google Calendar", raster_kpixels=460, overdraw=1.2, blend=0.6,
        layout_mi=4.2, js_mi=3.1,
    ),
    "WordPress": _page(
        "WordPress", raster_kpixels=360, overdraw=1.0, blend=0.6,
        layout_mi=3.4, js_mi=5.0,
    ),
    "Twitter": _page(
        "Twitter", raster_kpixels=340, overdraw=1.1, blend=0.65,
        layout_mi=3.1, js_mi=5.4,
    ),
    "Animation": _page(
        "Animation", raster_kpixels=600, overdraw=1.6, blend=0.8,
        layout_mi=2.3, js_mi=3.4,
    ),
}

#: Figure order used throughout the paper's Chrome plots.
PAGE_ORDER = [
    "Google Docs",
    "Gmail",
    "Google Calendar",
    "WordPress",
    "Twitter",
    "Animation",
]
