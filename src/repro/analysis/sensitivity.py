"""Sensitivity analysis: do the conclusions survive the model constants?

The reproduction's energy parameters (:mod:`repro.energy.components`)
are calibrated estimates, not measurements.  A reproduction is only
credible if the paper's *conclusions* -- PIM saves energy, PIM-Acc beats
PIM-Core, no accepted target slows down -- hold across the plausible
range of those constants, not just at the calibrated point.  This module
sweeps the three most influential parameters and reports where, if
anywhere, each conclusion breaks:

* the off-chip DRAM energy per bit (the cost PIM avoids);
* the internal-to-off-chip energy ratio (how cheap in-memory access is);
* the CPU energy per instruction (how expensive compute is).

A fourth axis is *cache geometry*: the locality conclusions (packed
GEMM beats unpacked, tiled textures beat linear) should not hinge on
the Table 1 cache sizes.  :func:`cache_geometry_sweep` and
:func:`locality_robust_across_geometries` check them across a grid of
L1/LLC geometries, replaying each workload's trace from one shared
columnar artifact (:mod:`repro.analysis.cachesweep`) instead of
re-tracing the kernel per sweep point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.runner import ExperimentRunner
from repro.energy.components import EnergyParameters, default_energy_parameters


def _targets():
    from repro.workloads.chrome.targets import browser_pim_targets
    from repro.workloads.tensorflow.targets import tensorflow_pim_targets
    from repro.workloads.vp9.targets import video_pim_targets

    return browser_pim_targets() + tensorflow_pim_targets() + video_pim_targets()


@dataclass(frozen=True)
class SensitivityPoint:
    """Headline metrics at one parameter setting."""

    parameter: str
    scale: float
    mean_pim_core_energy_reduction: float
    mean_pim_acc_energy_reduction: float
    min_pim_acc_energy_reduction: float
    acc_beats_core: bool

    @property
    def pim_always_saves_energy(self) -> bool:
        return self.min_pim_acc_energy_reduction > 0.0


def _scaled_params(parameter: str, scale: float) -> EnergyParameters:
    base = default_energy_parameters()
    if parameter == "dram_energy":
        return dataclasses.replace(
            base, dram_energy_per_bit=base.dram_energy_per_bit * scale
        )
    if parameter == "internal_ratio":
        # Scale the internal path relative to its calibrated value; the
        # off-chip path stays fixed.
        return dataclasses.replace(
            base,
            stacked_internal_energy_per_bit=base.stacked_internal_energy_per_bit
            * scale,
            vault_ctrl_energy_per_bit=base.vault_ctrl_energy_per_bit * scale,
        )
    if parameter == "cpu_epi":
        return dataclasses.replace(
            base, cpu_energy_per_instruction=base.cpu_energy_per_instruction * scale
        )
    raise KeyError("unknown sensitivity parameter %r" % parameter)


def evaluate_point(parameter: str, scale: float) -> SensitivityPoint:
    """Headline metrics with one parameter scaled by ``scale``."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    params = _scaled_params(parameter, scale)
    result = ExperimentRunner(energy_params=params).evaluate(_targets())
    reductions = [c.pim_acc_energy_reduction for c in result.comparisons]
    acc_beats_core = all(
        c.pim_acc_energy_reduction >= c.pim_core_energy_reduction - 1e-9
        for c in result.comparisons
    )
    return SensitivityPoint(
        parameter=parameter,
        scale=scale,
        mean_pim_core_energy_reduction=result.mean_pim_core_energy_reduction,
        mean_pim_acc_energy_reduction=result.mean_pim_acc_energy_reduction,
        min_pim_acc_energy_reduction=min(reductions),
        acc_beats_core=acc_beats_core,
    )


def sweep(parameter: str, scales=(0.5, 0.75, 1.0, 1.5, 2.0)) -> list[SensitivityPoint]:
    """Sweep one parameter across plausible scales."""
    return [evaluate_point(parameter, s) for s in scales]


def cache_geometry_sweep(
    workload: str, socs=None, store=None, cache=None
) -> list[dict]:
    """One workload's sweep rows across cache geometries.

    Thin delegation to :func:`repro.analysis.cachesweep.run_sweep`; the
    workload is traced once (shared artifact) and every geometry, all
    in one batched pass, contributes one row of measured miss/traffic/
    timing statistics.
    """
    from repro.analysis.cachesweep import run_sweep

    return run_sweep(workload, socs=socs, store=store, cache=cache)["rows"]


def locality_robust_across_geometries(
    pairs=(
        ("tensorflow.gemm_packed", "tensorflow.gemm_unpacked"),
        ("chrome.compositing_tiled", "chrome.compositing_linear"),
    ),
    socs=None,
    store=None,
) -> list[dict]:
    """Does each locality optimization win at *every* geometry?

    For each (optimized, baseline) workload pair, compares off-chip
    traffic and replay cycles per geometry.  Returns one verdict row
    per pair: ``robust`` is True when the optimized variant never moves
    more DRAM bytes than the baseline at any swept geometry — the
    geometry-insensitive version of the paper's Sections 5/7 claims.
    """
    from repro.analysis.cachesweep import run_sweep
    from repro.sim.artifact import TraceStore

    store = store or TraceStore()
    verdicts = []
    for optimized, baseline in pairs:
        opt = run_sweep(optimized, socs=socs, store=store)
        base = run_sweep(baseline, socs=socs, store=store)
        points = []
        for opt_row, base_row in zip(opt["rows"], base["rows"]):
            points.append(
                {
                    "config": opt_row["config"],
                    "optimized_dram_bytes": opt_row["dram_bytes"],
                    "baseline_dram_bytes": base_row["dram_bytes"],
                    "traffic_reduction": (
                        1.0 - opt_row["dram_bytes"] / base_row["dram_bytes"]
                        if base_row["dram_bytes"]
                        else 0.0
                    ),
                    "speedup": (
                        base_row["cycles"] / opt_row["cycles"]
                        if opt_row["cycles"]
                        else 0.0
                    ),
                }
            )
        verdicts.append(
            {
                "optimized": optimized,
                "baseline": baseline,
                "robust": all(
                    p["optimized_dram_bytes"] <= p["baseline_dram_bytes"]
                    for p in points
                ),
                "points": points,
            }
        )
    return verdicts


def breakeven_internal_ratio(resolution: float = 0.1) -> float:
    """The internal-path energy scale at which PIM stops saving energy.

    Walks the internal-energy scale upward until the *minimum* per-kernel
    PIM-Acc reduction goes non-positive; returns the last scale at which
    every kernel still saved energy.  At the calibrated point internal
    access costs 0.5x off-chip, so a break-even well above 1.0 means the
    conclusion is robust.
    """
    scale = 1.0
    last_good = 0.0
    while scale <= 4.0:
        point = evaluate_point("internal_ratio", scale)
        if not point.pim_always_saves_energy:
            return last_good
        last_good = scale
        scale += resolution
    return last_good
