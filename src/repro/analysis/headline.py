"""Headline numbers and Table 1.

The paper's abstract/intro report three cross-workload averages:

* data movement causes 62.7% of total system energy;
* PIM cores reduce kernel energy by 49.1% (up to 59.4%) and improve
  performance by 44.6% (up to 2.2x);
* PIM accelerators reduce energy by 55.4% (up to 73.5%) and improve
  performance by 54.2% (up to 2.5x).
"""

from __future__ import annotations

from repro._sum import left_sum
from repro.analysis.base import FigureResult
from repro.config import table1_rows
from repro.core.runner import ExperimentRunner
from repro.core.workload import characterize
from repro.workloads.chrome.pages import PAGES, PAGE_ORDER
from repro.workloads.chrome.targets import browser_pim_targets
from repro.workloads.chrome.zram import TabSwitchingSession
from repro.workloads.tensorflow.models import all_models
from repro.workloads.tensorflow.network import network_functions
from repro.workloads.tensorflow.targets import tensorflow_pim_targets
from repro.workloads.vp9.frame import RESOLUTIONS
from repro.workloads.vp9.profiles import decoder_functions, encoder_functions
from repro.workloads.vp9.targets import video_pim_targets


def all_pim_targets():
    """Every PIM target evaluated by the paper, across all workloads."""
    return browser_pim_targets() + tensorflow_pim_targets() + video_pim_targets()


def workload_characterizations():
    """CPU-Only characterizations of every full workload."""
    out = []
    for name in PAGE_ORDER:
        out.append(characterize(name, PAGES[name].scrolling_functions()))
    out.append(
        characterize("tab_switching", TabSwitchingSession().workload_functions())
    )
    for net in all_models():
        out.append(characterize(net.name, network_functions(net)))
    w4, h4 = RESOLUTIONS["4K"]
    out.append(characterize("vp9_decode_4k", decoder_functions(w4, h4, 100)))
    wh, hh = RESOLUTIONS["HD"]
    out.append(characterize("vp9_encode_hd", encoder_functions(wh, hh, 10)))
    return out


def headline_summary() -> FigureResult:
    """The paper's headline averages, recomputed from our models."""
    characterizations = workload_characterizations()
    movement = [c.data_movement_fraction for c in characterizations]
    avg_movement = left_sum(movement) / len(movement)
    result = ExperimentRunner().evaluate(all_pim_targets())
    rows = [
        {"workload": c.workload, "data_movement_fraction": c.data_movement_fraction}
        for c in characterizations
    ]
    rows += result.rows()
    return FigureResult(
        figure_id="Headline",
        title="Cross-workload averages",
        rows=rows,
        anchors={
            "avg data-movement fraction of system energy": (0.627, avg_movement),
            "mean PIM-Core energy reduction": (
                0.491,
                result.mean_pim_core_energy_reduction,
            ),
            "max PIM-Core energy reduction": (
                0.594,
                result.max_pim_core_energy_reduction,
            ),
            "mean PIM-Acc energy reduction": (
                0.554,
                result.mean_pim_acc_energy_reduction,
            ),
            "max PIM-Acc energy reduction": (
                0.735,
                result.max_pim_acc_energy_reduction,
            ),
            "mean PIM-Core speedup": (1.446, result.mean_pim_core_speedup),
            "max PIM-Core speedup": (2.2, result.max_pim_core_speedup),
            "mean PIM-Acc speedup": (1.542, result.mean_pim_acc_speedup),
            "max PIM-Acc speedup": (2.5, result.max_pim_acc_speedup),
        },
    )


def table1_configuration() -> FigureResult:
    """Table 1: evaluated system configuration."""
    rows = [
        {"component": component, "configuration": description}
        for component, description in table1_rows()
    ]
    return FigureResult(
        figure_id="Table 1",
        title="Evaluated system configuration",
        rows=rows,
    )
