"""Chrome figure harnesses (paper Figures 1, 2, 4, 18)."""

from __future__ import annotations

from repro._sum import left_sum
from repro.analysis.base import FigureResult
from repro.core.runner import ExperimentRunner
from repro.core.workload import characterize
from repro.energy.breakdown import Component
from repro.workloads.chrome.pages import PAGES, PAGE_ORDER
from repro.workloads.chrome.targets import browser_pim_targets
from repro.workloads.chrome.zram import TabSwitchingSession

GB = 1024.0**3
MB = 1024.0**2


def fig01_scrolling_energy() -> FigureResult:
    """Figure 1: energy breakdown for page scrolling, six pages."""
    rows = []
    combined = []
    for name in PAGE_ORDER:
        ch = characterize(name, PAGES[name].scrolling_functions())
        shares = ch.energy_shares()
        rows.append(
            {
                "page": name,
                "texture_tiling": shares["texture_tiling"],
                "color_blitting": shares["color_blitting"],
                "other": shares["other"],
            }
        )
        combined.append(shares["texture_tiling"] + shares["color_blitting"])
    avg = left_sum(combined) / len(combined)
    return FigureResult(
        figure_id="Figure 1",
        title="Energy breakdown for page scrolling",
        rows=rows,
        anchors={
            "avg tiling+blitting share of scrolling energy": (0.419, avg),
        },
    )


def fig02_docs_breakdown() -> FigureResult:
    """Figure 2: Google Docs scroll, per-component + per-function energy."""
    ch = characterize("Google Docs", PAGES["Google Docs"].scrolling_functions())
    total = ch.total_energy_j
    rows = [
        {
            "component": component.value,
            "energy_fraction": ch.component_energy(component) / total,
        }
        for component in (
            Component.CPU,
            Component.L1,
            Component.LLC,
            Component.INTERCONNECT,
            Component.MEMCTRL,
            Component.DRAM,
        )
    ]
    return FigureResult(
        figure_id="Figure 2",
        title="Energy breakdown when scrolling through Google Docs",
        rows=rows,
        anchors={
            "data movement fraction of total energy": (
                0.77,
                ch.data_movement_fraction,
            ),
            "texture tiling movement share of total": (
                0.257,
                ch.movement_share_of_workload("texture_tiling"),
            ),
            "tiling+blitting movement share of total": (
                0.377,
                ch.movement_share_of_workload("texture_tiling")
                + ch.movement_share_of_workload("color_blitting"),
            ),
            "movement fraction within texture tiling": (
                0.815,
                ch.movement_fraction_of_function("texture_tiling"),
            ),
            "movement fraction within color blitting": (
                0.639,
                ch.movement_fraction_of_function("color_blitting"),
            ),
            "color blitting share of total energy": (
                0.191,
                ch.energy_share("color_blitting"),
            ),
        },
    )


def fig04_zram_traffic() -> FigureResult:
    """Figure 4: ZRAM swap traffic while switching between 50 tabs."""
    session = TabSwitchingSession()
    timeline = session.run()
    # Down-sample the per-second series to 20-second buckets for display.
    rows = []
    for start in range(0, len(timeline.seconds), 20):
        sl = slice(start, start + 20)
        rows.append(
            {
                "t_start_s": int(start),
                "avg_out_MBps": float(timeline.bytes_out[sl].mean()) / MB,
                "avg_in_MBps": float(timeline.bytes_in[sl].mean()) / MB,
            }
        )
    ch = characterize("tab_switching", session.workload_functions())
    comp_energy = ch.energy_share("compression") + ch.energy_share("decompression")
    comp_time = ch.time_share("compression") + ch.time_share("decompression")
    return FigureResult(
        figure_id="Figure 4",
        title="ZRAM swap-out/in traffic, 50-tab switching",
        rows=rows,
        anchors={
            "total swapped out (GB)": (11.7, timeline.total_out / GB),
            "total swapped in (GB)": (7.8, timeline.total_in / GB),
            "peak swap-out rate (MB/s)": (201.0, timeline.peak_out_rate / MB),
            "peak swap-in rate (MB/s)": (227.0, timeline.peak_in_rate / MB),
            "compression+decompression energy share": (0.181, comp_energy),
            "compression+decompression time share": (0.142, comp_time),
        },
        notes=(
            "Swap-out volume runs ~15% above the paper: with every tab "
            "visited exactly once, re-activated tabs are evicted a second "
            "time; the paper's browsing mix re-uses some hot tabs."
        ),
    )


def fig18_browser_pim() -> FigureResult:
    """Figure 18: browser kernels on CPU-Only / PIM-Core / PIM-Acc."""
    result = ExperimentRunner().evaluate(browser_pim_targets())
    return FigureResult(
        figure_id="Figure 18",
        title="Browser kernels: normalized energy and runtime",
        rows=result.rows(),
        anchors={
            "mean PIM-Core energy reduction": (
                0.513,
                result.mean_pim_core_energy_reduction,
            ),
            "mean PIM-Acc energy reduction": (
                0.610,
                result.mean_pim_acc_energy_reduction,
            ),
            "mean PIM-Core speedup": (1.6, result.mean_pim_core_speedup),
            "mean PIM-Acc speedup": (2.0, result.mean_pim_acc_speedup),
        },
    )
