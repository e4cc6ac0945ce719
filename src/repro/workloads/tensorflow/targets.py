"""TensorFlow Mobile PIM targets and the Figure 19 pipeline model.

Figure 19 (left) evaluates packing and quantization for the four most
time/energy-consuming GEMM operations of each network; Figure 19 (right)
sweeps the number of GEMM operations: the CPU-Only configuration runs
pack -> GEMM -> requantize -> unpack serially, while the PIM
configurations overlap packing/quantization (on PIM logic) with the
CPU's GEMM execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.offload import OffloadEngine
from repro.core.target import PimTarget
from repro.core.workload import shared_in_run
from repro.energy.components import EnergyParameters
from repro.workloads.tensorflow.gemm import profile_gemm
from repro.workloads.tensorflow.models import all_models
from repro.workloads.tensorflow.network import Network
from repro.workloads.tensorflow.packing import profile_packing, profile_unpacking
from repro.workloads.tensorflow.quantization import (
    profile_quantization,
    profile_requantization,
)


def top_gemm_layers(network: Network, count: int = 4) -> list:
    """The ``count`` largest layers by GEMM work (the paper's selection)."""
    return sorted(network.layers, key=lambda l: l.macs, reverse=True)[:count]


def packing_target(network: Network, layer_count: int = 4) -> PimTarget:
    """Packing/unpacking for the top ``layer_count`` GEMMs of a network."""
    profile = None
    for layer in top_gemm_layers(network, layer_count):
        m, k, n = layer.gemm_dims
        lp = profile_packing(float(m * k + k * n)).merged(
            profile_unpacking(float(m * n)), name="packing"
        )
        profile = lp if profile is None else profile.merged(lp, name="packing")
    return PimTarget(
        name="packing",
        profile=profile,
        accelerator_key="packing",
        invocations=layer_count,
        workload="tensorflow:%s" % network.name,
    )


def quantization_target(network: Network, layer_count: int = 4) -> PimTarget:
    """Quantize+requantize for the top ``layer_count`` GEMMs of a network."""
    profile = None
    for layer in top_gemm_layers(network, layer_count):
        m, k, n = layer.gemm_dims
        lq = profile_quantization(float(layer.input_elements)).merged(
            profile_requantization(float(m * n)), name="quantization"
        )
        profile = lq if profile is None else profile.merged(lq, name="quantization")
    return PimTarget(
        name="quantization",
        profile=profile,
        accelerator_key="quantization",
        invocations=2 * layer_count,
        workload="tensorflow:%s" % network.name,
    )


@shared_in_run
def tensorflow_pim_targets(networks: list[Network] | None = None) -> list[PimTarget]:
    """Packing + quantization targets aggregated over the four networks."""
    networks = networks or all_models()
    targets = []
    pack = None
    quant = None
    for net in networks:
        p = packing_target(net).profile
        q = quantization_target(net).profile
        pack = p if pack is None else pack.merged(p, name="packing")
        quant = q if quant is None else quant.merged(q, name="quantization")
    targets.append(
        PimTarget(
            name="packing",
            profile=pack,
            accelerator_key="packing",
            invocations=4 * len(networks),
            workload="tensorflow",
        )
    )
    targets.append(
        PimTarget(
            name="quantization",
            profile=quant,
            accelerator_key="quantization",
            invocations=8 * len(networks),
            workload="tensorflow",
        )
    )
    return targets


# ----------------------------------------------------------------------
# Figure 19 (right): speedup vs number of GEMM operations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GemmPipelinePoint:
    """Speedups for one GEMM count in the Figure 19 sweep."""

    num_gemms: int
    cpu_time_s: float
    pim_core_time_s: float
    pim_acc_time_s: float

    @property
    def pim_core_speedup(self) -> float:
        return self.cpu_time_s / self.pim_core_time_s

    @property
    def pim_acc_speedup(self) -> float:
        return self.cpu_time_s / self.pim_acc_time_s


class GemmPipelineModel:
    """Times the pack/quantize/GEMM pipeline of Figure 19 (right).

    CPU-Only: ``n * (t_pack_quant + t_gemm)`` -- everything serialized on
    the CPU.  PIM: a two-stage pipeline -- PIM logic packs/quantizes chunk
    ``i+1`` while the CPU runs GEMM ``i`` -- so the steady state is bound
    by the slower stage, plus the first chunk's un-hidden preparation:

        time(n) = max(n * t_gemm, n * t_prep_pim) + t_prep_pim
    """

    #: Representative GEMM shape ("we use the result matrix sizes of
    #: GEMMs to reflect real-world usage", Section 9): a weight-dominated
    #: chunk whose pack/quantize cost is a sizable fraction of the kernel.
    GEMM_M = 64
    GEMM_K = 4096
    GEMM_N = 256

    def __init__(
        self,
        system: SystemConfig | None = None,
        energy_params: EnergyParameters | None = None,
    ):
        self.engine = OffloadEngine(system, energy_params)
        m, k, n = self.GEMM_M, self.GEMM_K, self.GEMM_N
        self._gemm = profile_gemm(m, k, n)
        pack = profile_packing(float(m * k + k * n)).merged(
            profile_unpacking(float(m * n)), name="packing"
        )
        quant = profile_quantization(float(m * k)).merged(
            profile_requantization(float(m * n)), name="quantization"
        )
        self._prep = pack.merged(quant, name="pack_quant")
        self._prep_target = PimTarget(
            name="pack_quant",
            profile=self._prep,
            accelerator_key="packing",
            invocations=1,
            workload="tensorflow",
        )

    def sweep(self, gemm_counts: list[int]) -> list[GemmPipelinePoint]:
        t_gemm = self.engine.cpu_model.run(self._gemm).time_s
        t_prep_cpu = self.engine.cpu_model.run(self._prep).time_s
        t_prep_core = self.engine.run_pim_core(self._prep_target).time_s
        t_prep_acc = self.engine.run_pim_acc(self._prep_target).time_s
        points = []
        for n in gemm_counts:
            if n < 1:
                raise ValueError("GEMM count must be >= 1")
            cpu = n * (t_gemm + t_prep_cpu)
            core = self._pim_time(n, t_gemm, t_prep_core)
            acc = self._pim_time(n, t_gemm, t_prep_acc)
            points.append(
                GemmPipelinePoint(
                    num_gemms=n, cpu_time_s=cpu, pim_core_time_s=core, pim_acc_time_s=acc
                )
            )
        return points

    def _pim_time(self, n: int, t_gemm: float, t_prep_pim: float) -> float:
        steady = max(n * t_gemm, n * t_prep_pim)
        return steady + t_prep_pim
