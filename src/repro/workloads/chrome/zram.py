"""ZRAM-based tab switching (paper Section 4.3).

When available memory runs low, Chrome (with OS assistance) compresses
the pages of inactive tabs into an in-DRAM pool called ZRAM; switching to
a compressed tab decompresses its pages on demand.  The paper's
experiment opens 50 tabs (top-of-Alexa pages), scrolls each, then
switches through them, observing 11.7 GB swapped out (peaks ~201 MB/s)
and 7.8 GB swapped in (peaks ~227 MB/s), with compression+decompression
contributing 18.1% of system energy and 14.2% of execution time.

``TabSwitchingSession`` reproduces that experiment as a discrete-time
simulation: tab footprints are drawn from a web-page distribution, a
fixed DRAM budget forces LRU eviction (compression) of inactive tabs,
and switches fault back (decompress) the accessed fraction of the
target's pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.workload import WorkloadFunction
from repro.sim.profile import KernelProfile

if TYPE_CHECKING:  # annotation-only; the kernels import NumPy in their bodies
    import numpy as np

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class ZramConfig:
    """Parameters of the 50-tab switching experiment."""

    num_tabs: int = 50
    #: DRAM available to *uncompressed* tab working sets; the ZRAM pool
    #: holding compressed pages is capped separately by the OS.
    memory_budget_bytes: float = 1.75 * GB
    #: Tab footprint distribution (uniform), bytes.
    min_tab_bytes: float = 100 * MB
    max_tab_bytes: float = 220 * MB
    #: LZO-class compression ratio achieved on browser memory.
    compression_ratio: float = 2.7
    #: Fraction of a compressed tab's pages faulted back in on switch.
    swap_in_fraction: float = 0.95
    #: Wall-clock seconds to open (and scroll) one tab / switch to a tab.
    seconds_per_open: float = 2.0
    seconds_per_switch: float = 2.4
    seed: int = 7


@dataclass
class SwapTimeline:
    """Per-second swap traffic, the data behind Figure 4."""

    seconds: np.ndarray  # int timestamps
    bytes_out: np.ndarray  # swapped out (compressed) per second
    bytes_in: np.ndarray  # swapped in (decompressed) per second

    @property
    def total_out(self) -> float:
        return float(self.bytes_out.sum())

    @property
    def total_in(self) -> float:
        return float(self.bytes_in.sum())

    @property
    def peak_out_rate(self) -> float:
        return float(self.bytes_out.max()) if len(self.bytes_out) else 0.0

    @property
    def peak_in_rate(self) -> float:
        return float(self.bytes_in.max()) if len(self.bytes_in) else 0.0

    @property
    def duration_s(self) -> float:
        return float(len(self.seconds))


@dataclass
class _Tab:
    index: int
    footprint: float
    resident: float = 0.0  # uncompressed resident bytes
    compressed: float = 0.0  # bytes held in the ZRAM pool (compressed)
    last_use: float = 0.0


class TabSwitchingSession:
    """Discrete-time simulation of the 50-tab experiment."""

    def __init__(self, config: ZramConfig | None = None):
        import numpy as np

        self.config = config or ZramConfig()
        rng = np.random.default_rng(self.config.seed)
        self.tabs = [
            _Tab(
                index=i,
                footprint=float(
                    rng.uniform(self.config.min_tab_bytes, self.config.max_tab_bytes)
                ),
            )
            for i in range(self.config.num_tabs)
        ]
        self._out_events: list[tuple[float, float]] = []  # (time, uncompressed bytes)
        self._in_events: list[tuple[float, float]] = []
        self._clock = 0.0
        self._ran = False

    # ------------------------------------------------------------------
    def run(self) -> SwapTimeline:
        """Open all tabs, then switch through all of them, once."""
        if self._ran:
            return self.timeline()
        cfg = self.config
        for tab in self.tabs:
            self._open(tab)
            self._clock += cfg.seconds_per_open
        for tab in self.tabs:
            self._switch_to(tab)
            self._clock += cfg.seconds_per_switch
        self._ran = True
        return self.timeline()

    # ------------------------------------------------------------------
    def _memory_in_use(self) -> float:
        # Only uncompressed working sets count against the budget; the
        # compressed pool lives in its own OS-capped ZRAM region.
        return sum(t.resident for t in self.tabs)

    def _open(self, tab: _Tab) -> None:
        tab.resident = tab.footprint
        tab.compressed = 0.0
        tab.last_use = self._clock
        self._evict_until_fits(active=tab)

    def _switch_to(self, tab: _Tab) -> None:
        cfg = self.config
        if tab.compressed > 0.0:
            # Fault in the accessed fraction of the tab's pages.
            swapped_in = tab.footprint * cfg.swap_in_fraction
            self._in_events.append((self._clock, swapped_in))
            tab.resident = swapped_in
            tab.compressed = 0.0
        tab.last_use = self._clock
        self._evict_until_fits(active=tab)

    def _evict_until_fits(self, active: _Tab) -> None:
        cfg = self.config
        inactive = sorted(
            (t for t in self.tabs if t is not active and t.resident > 0.0),
            key=lambda t: t.last_use,
        )
        evicted = 0
        interval = min(cfg.seconds_per_open, cfg.seconds_per_switch)
        while self._memory_in_use() > cfg.memory_budget_bytes and inactive:
            victim = inactive.pop(0)
            # The kswapd-style reclaimer works through victims over the
            # interval rather than in one burst.
            offset = min(evicted * 1.1, max(interval - 0.1, 0.0))
            self._out_events.append((self._clock + offset, victim.resident))
            victim.compressed = victim.resident / cfg.compression_ratio
            victim.resident = 0.0
            evicted += 1

    # ------------------------------------------------------------------
    def timeline(self) -> SwapTimeline:
        """Bucket swap events into 1-second bins (Figure 4 series)."""
        import numpy as np

        duration = int(np.ceil(self._clock)) + 1
        bytes_out = np.zeros(duration)
        bytes_in = np.zeros(duration)
        for t, amount in self._out_events:
            bytes_out[int(t)] += amount
        for t, amount in self._in_events:
            bytes_in[int(t)] += amount
        return SwapTimeline(
            seconds=np.arange(duration), bytes_out=bytes_out, bytes_in=bytes_in
        )

    # ------------------------------------------------------------------
    # Kernel profiles for the characterization / PIM evaluation
    # ------------------------------------------------------------------
    def compression_profile(self) -> KernelProfile:
        """Profile of all compression work in the session."""
        timeline = self.run()
        return profile_compression(
            timeline.total_out, self.config.compression_ratio
        ).scaled(1.0)

    def decompression_profile(self) -> KernelProfile:
        timeline = self.run()
        return profile_decompression(
            timeline.total_in, self.config.compression_ratio
        )

    def workload_functions(self) -> list[WorkloadFunction]:
        """The tab-switching workload: compression, decompression, other.

        "Other" covers the page-rendering and script work of re-displaying
        each tab (rasterization-like streaming traffic plus compute-heavy
        layout/JS), sized so compression+decompression sit near the
        paper's 18.1%-of-energy / 14.2%-of-time shares.
        """
        cfg = self.config
        # ~1.2 GB of streaming traffic per direction per switch: page
        # re-render, image re-decode, compositing, page-cache traffic.
        render_bytes = cfg.num_tabs * 1200 * MB / 2
        render = KernelProfile.streaming(
            name="tab_rendering",
            bytes_read=render_bytes,
            bytes_written=render_bytes,
            ops_per_byte=0.4,
            instruction_overhead=0.1,
            simd_fraction=0.8,
            notes="re-render + image decode + composite after switch",
        )
        script_instructions = cfg.num_tabs * 2.4e9  # layout/JS per switch
        script = KernelProfile(
            name="script_and_layout",
            instructions=script_instructions,
            mem_instructions=script_instructions * 0.3,
            alu_ops=script_instructions * 0.5,
            simd_fraction=0.05,
            l1_misses=script_instructions * 0.01,
            llc_misses=script_instructions * 0.002,
            dram_bytes=script_instructions * 0.002 * 64,
            working_set_bytes=64 * MB,
            notes="DOM/JS/layout: compute-bound, cache-friendly",
        )
        return [
            WorkloadFunction(
                "compression",
                self.compression_profile(),
                accelerator_key="compression",
                invocations=len(self._out_events),
            ),
            WorkloadFunction(
                "decompression",
                self.decompression_profile(),
                accelerator_key="decompression",
                invocations=len(self._in_events),
            ),
            WorkloadFunction("tab_rendering", render),
            WorkloadFunction("script_and_layout", script),
        ]


def profile_compression(
    uncompressed_bytes: float, ratio: float = 2.7
) -> KernelProfile:
    """Analytic profile of LZO-class compression of ``uncompressed_bytes``.

    Compression streams the input once (hash + compare per position) and
    writes the compressed output; the 64 kB match window stays cache-
    resident, so off-chip traffic is input + output.  More compute-heavy
    than tiling/blitting (~1.3 ops/byte), which is why the paper sees
    PIM-Acc pull ahead of PIM-Core on this kernel.
    """
    compressed = uncompressed_bytes / ratio
    return KernelProfile.streaming(
        name="compression",
        bytes_read=uncompressed_bytes,
        bytes_written=compressed,
        ops_per_byte=0.25,
        instruction_overhead=0.05,
        simd_fraction=0.4,
        notes="LZO-class compression (Section 4.3)",
    )


def profile_decompression(
    uncompressed_bytes: float, ratio: float = 2.7
) -> KernelProfile:
    """Analytic profile of LZO-class decompression.

    Decompression reads the compressed stream and writes the output; match
    copies read from the (cache-resident) recent output window.  With PIM,
    the decompressed pages stay in DRAM and only the lines the CPU
    actually touches cross the channel later, so ``pim_bytes`` equals the
    in-memory traffic.
    """
    compressed = uncompressed_bytes / ratio
    profile = KernelProfile.streaming(
        name="decompression",
        bytes_read=compressed,
        bytes_written=uncompressed_bytes,
        ops_per_byte=0.2,
        instruction_overhead=0.05,
        simd_fraction=0.4,
        notes="LZO-class decompression (Section 4.3)",
    )
    return profile
