"""TensorFlow Mobile figure harnesses (paper Figures 6, 7, 19)."""

from __future__ import annotations

from repro._sum import left_sum
from repro.analysis.base import FigureResult
from repro.core.runner import ExperimentRunner
from repro.core.workload import characterize
from repro.workloads.tensorflow.models import all_models
from repro.workloads.tensorflow.network import network_functions
from repro.workloads.tensorflow.targets import (
    GemmPipelineModel,
    tensorflow_pim_targets,
)


def fig06_tf_energy() -> FigureResult:
    """Figure 6: inference energy breakdown by function, four networks."""
    rows = []
    pq = []
    movement = []
    by_name = {}
    for net in all_models():
        ch = by_name[net.name] = characterize(net.name, network_functions(net))
        shares = ch.energy_shares()
        rows.append(
            {
                "network": net.name,
                "packing": shares["packing"],
                "quantization": shares["quantization"],
                "conv2d_matmul": shares["conv2d_matmul"],
                "other": shares["other"],
            }
        )
        pq.append(shares["packing"] + shares["quantization"])
        movement.append(ch.data_movement_fraction)
    ch_resnet = by_name["ResNet-V2-152"]
    return FigureResult(
        figure_id="Figure 6",
        title="TensorFlow Mobile energy breakdown by function",
        rows=rows,
        anchors={
            "avg packing+quantization energy share": (0.393, left_sum(pq) / len(pq)),
            "avg data-movement fraction of inference": (
                0.573,
                left_sum(movement) / len(movement),
            ),
            "ResNet quantization energy share": (
                0.161,
                ch_resnet.energy_share("quantization"),
            ),
        },
    )


def fig07_tf_time() -> FigureResult:
    """Figure 7: inference execution-time breakdown."""
    rows = []
    pq = []
    for net in all_models():
        ch = characterize(net.name, network_functions(net))
        shares = ch.time_shares()
        rows.append(
            {
                "network": net.name,
                "packing": shares["packing"],
                "quantization": shares["quantization"],
                "conv2d_matmul": shares["conv2d_matmul"],
                "other": shares["other"],
            }
        )
        pq.append(shares["packing"] + shares["quantization"])
    return FigureResult(
        figure_id="Figure 7",
        title="TensorFlow Mobile execution-time breakdown",
        rows=rows,
        anchors={
            "avg packing+quantization time share": (0.274, left_sum(pq) / len(pq)),
        },
    )


def fig19_tf_pim() -> FigureResult:
    """Figure 19: packing/quantization PIM energy + GEMM-sweep speedups."""
    energy = ExperimentRunner().evaluate(tensorflow_pim_targets())
    sweep = GemmPipelineModel().sweep([1, 2, 4, 8, 16])
    rows = energy.rows()
    for point in sweep:
        rows.append(
            {
                "num_gemms": point.num_gemms,
                "speedup_pim_core": point.pim_core_speedup,
                "speedup_pim_acc": point.pim_acc_speedup,
            }
        )
    return FigureResult(
        figure_id="Figure 19",
        title="TensorFlow kernels: PIM energy and GEMM-count sweep",
        rows=rows,
        anchors={
            "mean PIM-Core energy reduction": (
                0.509,
                energy.mean_pim_core_energy_reduction,
            ),
            "mean PIM-Acc energy reduction": (
                0.549,
                energy.mean_pim_acc_energy_reduction,
            ),
            "PIM-Core speedup at 16 GEMMs": (1.572, sweep[-1].pim_core_speedup),
            "PIM-Acc speedup at 16 GEMMs": (1.981, sweep[-1].pim_acc_speedup),
        },
        notes=(
            "The sweep reproduces the growth of speedup with GEMM count; "
            "our pipeline model gives a smaller PIM-Acc-over-PIM-Core gap "
            "than the paper's gem5 simulation."
        ),
    )
