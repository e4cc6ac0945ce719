"""Energy breakdowns by hardware component.

The paper reports energy split across six components (Figure 2, Figure 11,
Figures 18-20): CPU, L1, LLC, interconnect, memory controller, and DRAM.
PIM executions add two more: the PIM logic's compute energy and the internal
(logic-layer to DRAM-layer) memory energy.  ``EnergyBreakdown`` is the
common currency passed between the timing models, the offload engine, and
the figure harnesses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from repro._sum import left_sum
from repro.validate.strict import invariant


class Component(str, enum.Enum):
    """Hardware components that consume energy in the model."""

    CPU = "cpu"
    L1 = "l1"
    LLC = "llc"
    INTERCONNECT = "interconnect"
    MEMCTRL = "memctrl"
    DRAM = "dram"
    PIM_COMPUTE = "pim_compute"
    PIM_MEMORY = "pim_memory"


@dataclass
class EnergyBreakdown:
    """Energy (joules) consumed by each hardware component.

    ``cpu`` is further split for reporting purposes into active (compute)
    and stall energy via ``cpu_stall``; ``cpu`` always includes the stall
    portion so that ``total`` is a plain sum of the component fields.
    """

    cpu: float = 0.0
    l1: float = 0.0
    llc: float = 0.0
    interconnect: float = 0.0
    memctrl: float = 0.0
    dram: float = 0.0
    pim_compute: float = 0.0
    pim_memory: float = 0.0
    #: Portion of ``cpu`` attributable to memory stalls (informational).
    cpu_stall: float = 0.0

    _COMPONENT_FIELDS = (
        "cpu",
        "l1",
        "llc",
        "interconnect",
        "memctrl",
        "dram",
        "pim_compute",
        "pim_memory",
    )

    @property
    def total(self) -> float:
        return left_sum(getattr(self, name) for name in self._COMPONENT_FIELDS)

    @property
    def data_movement(self) -> float:
        """Energy spent moving data rather than computing on it.

        Following the paper (Section 4.2.1): caches, interconnect, memory
        controller, and DRAM, plus CPU cycles stalled waiting on memory.
        PIM internal memory traffic also counts as movement.
        """
        return (
            self.l1
            + self.llc
            + self.interconnect
            + self.memctrl
            + self.dram
            + self.pim_memory
            + self.cpu_stall
        )

    @property
    def compute(self) -> float:
        """Energy spent on actual computation (CPU active + PIM logic)."""
        return (self.cpu - self.cpu_stall) + self.pim_compute

    @property
    def data_movement_fraction(self) -> float:
        total = self.total
        if total <= 0.0:
            return 0.0
        return self.data_movement / total

    def component(self, which: Component) -> float:
        return getattr(self, which.value)

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """A copy with every component multiplied by ``factor``."""
        return EnergyBreakdown(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        if not isinstance(other, EnergyBreakdown):
            return NotImplemented
        return EnergyBreakdown(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def __radd__(self, other):
        # Support sum() over breakdowns.
        if other == 0:
            return self
        return self.__add__(other)

    @staticmethod
    def zero() -> "EnergyBreakdown":
        return EnergyBreakdown()

    def publish(self, counters, prefix: str) -> None:
        """Accumulate every component into a counter registry.

        Publishes ``<prefix>.<component>`` for each non-zero component
        (plus the informational ``cpu_stall`` split), so per-component
        joules are exported through the observability layer rather than
        staying buried in result objects.
        """
        for name in self._COMPONENT_FIELDS + ("cpu_stall",):
            value = getattr(self, name)
            if value:
                counters.add("%s.%s" % (prefix, name), value)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._COMPONENT_FIELDS}

    def check_invariants(self, name: str = "energy.breakdown") -> None:
        """Strict-mode conservation checks on this breakdown.

        Raises :class:`repro.validate.InvariantError` (and publishes
        ``validate.<name>.*`` counters) if any component is negative or
        non-finite, the stall split exceeds the CPU total, or the
        compute/data-movement split fails to reconstruct ``total``.
        """
        bad = [
            (field_name, value)
            for field_name in self._COMPONENT_FIELDS + ("cpu_stall",)
            for value in (getattr(self, field_name),)
            if not math.isfinite(value) or value < 0.0
        ]
        invariant(
            not bad,
            name + ".components",
            "negative or non-finite components: %r" % bad,
        )
        invariant(
            self.cpu_stall <= self.cpu * (1.0 + 1e-12),
            name + ".stall_share",
            "cpu_stall %.17g exceeds cpu %.17g" % (self.cpu_stall, self.cpu),
        )
        total = self.total
        reconstructed = self.compute + self.data_movement
        invariant(
            abs(reconstructed - total) <= 1e-9 * max(abs(total), 1e-30),
            name + ".conservation",
            "compute + data_movement = %.17g but total = %.17g"
            % (reconstructed, total),
        )
