"""Whole-workload characterization.

A workload is a list of functions, each with a measured
:class:`KernelProfile`; characterization runs every function through the
CPU timing/energy model and reports the paper's two standard breakdowns:

* **per function** (Figures 1, 6, 7, 10, 15): each function's share of the
  workload's total energy or execution time;
* **per hardware component** (Figures 2, 11): each component's (CPU, L1,
  LLC, interconnect, memory controller, DRAM) share of total energy,
  optionally stacked by function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.energy.breakdown import Component, EnergyBreakdown
from repro.energy.components import EnergyParameters
from repro.sim.cpu import CpuModel, Execution
from repro.sim.profile import KernelProfile


@dataclass(frozen=True)
class WorkloadFunction:
    """One function of a workload, with its profile and PIM metadata."""

    name: str
    profile: KernelProfile
    #: Accelerator key if this function is a PIM target; None for the
    #: functions the paper leaves on the CPU (e.g. Conv2D/MatMul, "Other").
    accelerator_key: str | None = None
    invocations: int = 1


@dataclass
class FunctionResult:
    """A function's CPU-Only execution within the workload."""

    function: WorkloadFunction
    execution: Execution

    @property
    def name(self) -> str:
        return self.function.name

    @property
    def energy_j(self) -> float:
        return self.execution.energy_j

    @property
    def time_s(self) -> float:
        return self.execution.time_s


@dataclass
class WorkloadCharacterization:
    """Aggregated characterization of one workload on the CPU."""

    workload: str
    results: list[FunctionResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.results)

    @property
    def total_time_s(self) -> float:
        return sum(r.time_s for r in self.results)

    @property
    def total_breakdown(self) -> EnergyBreakdown:
        return sum((r.execution.energy for r in self.results), EnergyBreakdown.zero())

    @property
    def data_movement_fraction(self) -> float:
        """The paper's headline metric (62.7% on average, Section 1)."""
        return self.total_breakdown.data_movement_fraction

    # ------------------------------------------------------------------
    def energy_share(self, name: str) -> float:
        total = self.total_energy_j
        if total <= 0:
            return 0.0
        return sum(r.energy_j for r in self.results if r.name == name) / total

    def time_share(self, name: str) -> float:
        total = self.total_time_s
        if total <= 0:
            return 0.0
        return sum(r.time_s for r in self.results if r.name == name) / total

    def energy_shares(self) -> dict[str, float]:
        return {r.name: self.energy_share(r.name) for r in self.results}

    def time_shares(self) -> dict[str, float]:
        return {r.name: self.time_share(r.name) for r in self.results}

    def movement_share_of_workload(self, name: str) -> float:
        """Data-movement energy of one function as a share of workload energy."""
        total = self.total_energy_j
        if total <= 0:
            return 0.0
        movement = sum(
            r.execution.energy.data_movement for r in self.results if r.name == name
        )
        return movement / total

    def movement_fraction_of_function(self, name: str) -> float:
        """Fraction of a function's own energy spent on data movement."""
        energy = sum(r.energy_j for r in self.results if r.name == name)
        if energy <= 0:
            return 0.0
        movement = sum(
            r.execution.energy.data_movement for r in self.results if r.name == name
        )
        return movement / energy

    def component_energy(self, component: Component) -> float:
        return self.total_breakdown.component(component)

    def component_energy_by_function(self) -> dict[str, dict[str, float]]:
        """Figure 2/11-style matrix: component -> function -> joules."""
        matrix: dict[str, dict[str, float]] = {}
        for component in (
            Component.CPU,
            Component.L1,
            Component.LLC,
            Component.INTERCONNECT,
            Component.MEMCTRL,
            Component.DRAM,
        ):
            matrix[component.value] = {
                r.name: r.execution.energy.component(component) for r in self.results
            }
        return matrix

    def function(self, name: str) -> FunctionResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError("no function %r in workload %r" % (name, self.workload))


def characterize(
    workload: str,
    functions: list[WorkloadFunction],
    system: SystemConfig | None = None,
    energy_params: EnergyParameters | None = None,
) -> WorkloadCharacterization:
    """Run every function of a workload through the CPU model."""
    cpu = CpuModel(system, energy_params)
    results = [
        FunctionResult(function=f, execution=cpu.run(f.profile)) for f in functions
    ]
    return WorkloadCharacterization(workload=workload, results=results)

