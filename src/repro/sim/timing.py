"""Cycle-approximate trace timing (validation for the roofline models).

The analytic CPU model (:mod:`repro.sim.cpu`) is a roofline: runtime =
max(compute time, memory time).  This module provides an independent,
event-driven check: a recorded memory trace is replayed against the
cache hierarchy with a limited window of in-flight misses (MSHRs), each
access charged its level's latency, and non-memory instructions issuing
between accesses at the core's sustained IPC.  The integration tests
replay real kernel traces through both models and require agreement
within a small factor.

The replay is :func:`repro.sim.batch.replay_timing_batch` (or
:func:`~repro.sim.batch.sweep_batch`, which shares its cache passes with
the hierarchy replay).  A :class:`TimingSimulator` carries one config's
SoC geometry and :class:`TimingParameters`, and its ``_finish`` checks
and publishes each config's result.  The clock is ``anchor + pending *
issue_gap``, where ``pending`` counts issue gaps since the last latency
event, materialized with the same float expressions at the same events
as the serial per-access replay.  So the batched result is bit-identical
to that replay, which the tests keep as the oracle
(``tests/sim/oracle.py``; enforced by
``tests/perf/test_vectorized_equivalence.py`` and
``tests/sim/test_replay_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SocConfig
from repro.validate.fields import require_non_negative, require_positive_int
from repro.validate.strict import invariant


@dataclass(frozen=True)
class TimingParameters:
    """Latency/parallelism constants for the event-driven replay."""

    l1_hit_cycles: int = 2
    llc_hit_cycles: int = 20
    dram_cycles: int = 200  # 100 ns at 2 GHz
    mshrs: int = 6  # in-flight DRAM misses the core sustains
    #: Minimum issue interval between DRAM misses, enforcing the off-chip
    #: channel bandwidth (64 B line at 25.6 GB/s sustained, 2 GHz clock).
    dram_issue_interval_cycles: float = 5.0

    def __post_init__(self) -> None:
        require_positive_int(self, "l1_hit_cycles", self.l1_hit_cycles)
        require_positive_int(self, "llc_hit_cycles", self.llc_hit_cycles)
        require_positive_int(self, "dram_cycles", self.dram_cycles)
        require_positive_int(self, "mshrs", self.mshrs)
        # 0 is legal (an unthrottled channel, used by bandwidth ablations).
        require_non_negative(
            self, "dram_issue_interval_cycles", self.dram_issue_interval_cycles
        )


@dataclass
class TimingResult:
    """Outcome of an event-driven replay."""

    cycles: float
    accesses: int
    dram_misses: int
    compute_cycles: float

    @property
    def stall_fraction(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return max(0.0, 1.0 - self.compute_cycles / self.cycles)

    def time_s(self, frequency_hz: float = 2.0e9) -> float:
        return self.cycles / frequency_hz


class TimingSimulator:
    """One config's timing model: SoC geometry plus timing constants."""

    def __init__(
        self,
        soc: SocConfig | None = None,
        params: TimingParameters | None = None,
    ):
        self.soc = soc or SocConfig()
        self.params = params or TimingParameters()

    def _finish(
        self,
        num_accesses: int,
        clock: float,
        dram_misses: int,
        issue_gap: float,
        recorder,
        strict: bool = False,
        mshr_overflows: int = 0,
    ) -> TimingResult:
        counters = recorder.counters
        counters.add("sim.timing.fast_path")
        counters.add("sim.timing.trace_accesses", num_accesses)
        counters.add("sim.timing.dram_misses", dram_misses)
        compute_cycles = num_accesses * issue_gap
        if strict:
            invariant(
                mshr_overflows == 0,
                "timing.mshr_occupancy",
                "%d DRAM misses exceeded the %d-MSHR window"
                % (mshr_overflows, self.params.mshrs),
            )
            invariant(
                0 <= dram_misses <= num_accesses,
                "timing.dram_misses",
                "%d DRAM misses for a %d-access trace"
                % (dram_misses, num_accesses),
            )
            # The clock can never run ahead of pure compute issue: every
            # access contributes at least one issue gap (the tolerance
            # covers the clock summing its gaps in another order).
            invariant(
                clock >= compute_cycles * (1.0 - 1e-9) - 1e-9,
                "timing.clock",
                "final clock %.17g below compute floor %.17g"
                % (clock, compute_cycles),
            )
        return TimingResult(
            cycles=clock,
            accesses=num_accesses,
            dram_misses=dram_misses,
            compute_cycles=compute_cycles,
        )
