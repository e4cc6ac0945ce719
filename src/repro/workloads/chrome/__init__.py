"""The Chrome browser workload (paper Section 4).

Two user interactions drive the analysis:

* **page scrolling** (:mod:`repro.workloads.chrome.pages`): layout,
  rasterization (color blitting via :mod:`.blitter`), texture tiling
  (:mod:`.texture`), compositing -- Figures 1-3;
* **tab switching** (:mod:`repro.workloads.chrome.zram`): ZRAM
  compression/decompression with an LZO-class compressor
  (:mod:`.lzo`) -- Figures 4-5.

:mod:`.targets` packages the four kernels as PIM targets for the
Figure 18 evaluation.
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".texture": (
        "TiledTexture",
        "linear_to_tiled",
        "tiled_to_linear",
        "linear_to_tiled_traced",
        "compositing_trace",
        "profile_texture_tiling",
        "TILE_W",
        "TILE_H",
        "TILE_BYTES",
    ),
    ".blitter": (
        "BlitStats",
        "fill_rect",
        "blit_copy",
        "alpha_blend",
        "profile_color_blitting",
    ),
    ".lzo": ("LzoStats", "compress", "decompress", "roundtrip"),
    ".synthetic": ("generate_web_memory",),
    ".zram": (
        "ZramConfig",
        "TabSwitchingSession",
        "SwapTimeline",
        "profile_compression",
        "profile_decompression",
    ),
    ".rasterizer": ("DisplayList", "rasterize", "synthetic_page_paint"),
    ".pages": ("WebPage", "PAGES", "PAGE_ORDER"),
    ".targets": (
        "browser_pim_targets",
        "texture_tiling_target",
        "color_blitting_target",
        "compression_target",
        "decompression_target",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
