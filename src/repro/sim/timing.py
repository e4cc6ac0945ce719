"""Cycle-approximate trace timing (validation for the roofline models).

The analytic CPU model (:mod:`repro.sim.cpu`) is a roofline: runtime =
max(compute time, memory time).  This module provides an independent,
event-driven check: a recorded memory trace is replayed against the
cache hierarchy with a limited window of in-flight misses (MSHRs), each
access charged its level's latency, and non-memory instructions issuing
between accesses at the core's sustained IPC.  The integration tests
replay real kernel traces through both models and require agreement
within a small factor.

Two replay engines are provided.  :meth:`TimingSimulator.replay` walks
the trace one access at a time (the scalar oracle);
:meth:`TimingSimulator.replay_fast` consumes :meth:`MemoryTrace.
line_runs` so a run of consecutive same-line accesses costs one Python
iteration.  Both engines represent the clock as ``anchor + pending *
issue_gap`` — ``pending`` counts issue gaps since the last latency
event — and materialize it with the *same float expressions at the same
events*, so the two produce bit-identical :class:`TimingResult` values
(enforced by ``tests/perf/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import SocConfig, CACHE_LINE_BYTES
from repro.obs.recorder import get_recorder
from repro.sim.cache import CacheHierarchy
from repro.validate.fields import require_non_negative, require_positive_int
from repro.validate.strict import invariant, resolve_strict

if TYPE_CHECKING:  # annotation-only: a memo hit needs TimingParameters, not NumPy
    from repro.sim.trace import MemoryTrace


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
    """Replays a trace with bounded memory-level parallelism."""

    def __init__(
        self,
        soc: SocConfig | None = None,
        params: TimingParameters | None = None,
    ):
        self.soc = soc or SocConfig()
        self.params = params or TimingParameters()

    def replay(
        self,
        trace: MemoryTrace,
        instructions_per_access: float = 2.0,
        strict: bool | None = None,
    ) -> TimingResult:
        """Replay ``trace``; ``instructions_per_access`` non-memory
        instructions are issued (at the sustained IPC) between accesses.

        This is the per-access scalar oracle; :meth:`replay_fast` returns
        a bit-identical result and should be preferred for large traces.
        ``strict`` arms the MSHR-occupancy and clock invariants (``None``
        defers to the global strict mode).
        """
        p = self.params
        strict = resolve_strict(strict)
        mshr_overflows = 0
        recorder = get_recorder()
        with recorder.span("sim.timing.replay"):
            hierarchy = CacheHierarchy(self.soc)
            issue_gap = instructions_per_access / self.soc.sustained_ipc
            llc_penalty = p.llc_hit_cycles * 0.25  # partially overlapped
            anchor = 0.0  # clock at the last latency event
            pending = 0  # issue gaps accumulated since then
            in_flight: list[float] = []  # completion times of DRAM misses
            next_dram_slot = 0.0
            dram_misses = 0
            addresses = trace.addresses
            writes = trace.is_write
            l1 = hierarchy.l1
            llc = hierarchy.llc
            for i in range(len(trace)):
                pending += 1
                line = int(addresses[i]) // CACHE_LINE_BYTES
                hit, victim = l1.access(line, bool(writes[i]))
                if victim is not None and victim[1]:
                    hierarchy._llc_install_writeback(victim[0])
                if hit:
                    continue  # L1 hits pipeline under the issue gap
                llc_hit, llc_victim = llc.access(line, False)
                if llc_victim is not None and llc_victim[1]:
                    hierarchy.dram_line_writes += 1
                if llc_hit:
                    anchor = anchor + pending * issue_gap + llc_penalty
                    pending = 0
                    continue
                # DRAM miss: wait for an MSHR, respect channel bandwidth.
                dram_misses += 1
                clock = anchor + pending * issue_gap
                pending = 0
                in_flight = [t for t in in_flight if t > clock]
                if len(in_flight) >= p.mshrs:
                    clock = max(clock, min(in_flight))
                    in_flight = [t for t in in_flight if t > clock]
                start = max(clock, next_dram_slot)
                in_flight.append(start + p.dram_cycles)
                next_dram_slot = start + p.dram_issue_interval_cycles
                anchor = clock
                if strict and len(in_flight) > p.mshrs:
                    mshr_overflows += 1
            clock = anchor + pending * issue_gap
            if in_flight:
                clock = max(clock, max(in_flight))
            return self._finish(
                trace, clock, dram_misses, issue_gap, recorder,
                fast=False, strict=strict, mshr_overflows=mshr_overflows,
            )

    def replay_fast(
        self,
        trace: MemoryTrace,
        instructions_per_access: float = 2.0,
        strict: bool | None = None,
    ) -> TimingResult:
        """Line-run replay; bit-identical to :meth:`replay`.

        Equivalence argument, piece by piece:

        * **Cache state.**  :meth:`MemoryTrace.line_runs` folds each run of
          consecutive same-line accesses into one (line, count, any_write)
          record.  Accesses after a run's first are guaranteed L1 hits on
          an already-MRU line (the cache replay_fast argument), so the
          run's single ``l1.access`` with the OR-folded write flag leaves
          identical hierarchy state.
        * **Clock.**  An L1 hit's only timing effect is one issue gap, so
          a run contributes ``pending += 1`` before its first access and
          ``pending += count - 1`` after — the same integer ``pending`` at
          every materialization point, and materialization uses the same
          float expressions (``anchor + pending * issue_gap`` etc.) as the
          oracle, hence bit-identical cycles.
        * **MSHRs.**  DRAM completion times are strictly increasing (each
          start is at least the previous start plus the issue interval),
          so the in-flight list is always sorted; the oracle's O(mshrs)
          list filtering equals popping stale heads off a deque, which is
          what makes this path fast at large MSHR counts.
        """
        p = self.params
        strict = resolve_strict(strict)
        mshr_overflows = 0
        completion_disorder = 0
        recorder = get_recorder()
        with recorder.span("sim.timing.replay_fast"):
            hierarchy = CacheHierarchy(self.soc)
            issue_gap = instructions_per_access / self.soc.sustained_ipc
            llc_penalty = p.llc_hit_cycles * 0.25  # partially overlapped
            anchor = 0.0
            pending = 0
            in_flight: deque[float] = deque()
            next_dram_slot = 0.0
            dram_misses = 0
            l1 = hierarchy.l1
            llc = hierarchy.llc
            run_lines, run_counts, run_writes = trace.line_runs()
            for line, count, is_write in zip(
                run_lines.tolist(), run_counts.tolist(), run_writes.tolist()
            ):
                pending += 1
                hit, victim = l1.access(line, is_write)
                if victim is not None and victim[1]:
                    hierarchy._llc_install_writeback(victim[0])
                if hit:
                    pending += count - 1
                    continue
                llc_hit, llc_victim = llc.access(line, False)
                if llc_victim is not None and llc_victim[1]:
                    hierarchy.dram_line_writes += 1
                if llc_hit:
                    anchor = anchor + pending * issue_gap + llc_penalty
                    pending = count - 1
                    continue
                dram_misses += 1
                clock = anchor + pending * issue_gap
                while in_flight and in_flight[0] <= clock:
                    in_flight.popleft()
                if len(in_flight) >= p.mshrs:
                    clock = max(clock, in_flight[0])
                    while in_flight and in_flight[0] <= clock:
                        in_flight.popleft()
                start = max(clock, next_dram_slot)
                if strict:
                    # The deque shortcut (popping stale heads, reading
                    # in_flight[-1] as the max) relies on completion
                    # times being non-decreasing.
                    if in_flight and start + p.dram_cycles < in_flight[-1]:
                        completion_disorder += 1
                    if len(in_flight) >= p.mshrs:
                        mshr_overflows += 1
                in_flight.append(start + p.dram_cycles)
                next_dram_slot = start + p.dram_issue_interval_cycles
                anchor = clock
                pending = count - 1
            clock = anchor + pending * issue_gap
            if in_flight:
                clock = max(clock, in_flight[-1])
            if strict:
                invariant(
                    completion_disorder == 0,
                    "timing.mshr_ordering",
                    "%d DRAM completions issued out of order" % completion_disorder,
                )
            return self._finish(
                trace, clock, dram_misses, issue_gap, recorder,
                fast=True, strict=strict, mshr_overflows=mshr_overflows,
            )

    @classmethod
    def replay_batch(
        cls,
        trace: MemoryTrace,
        simulators,
        instructions_per_access: float = 2.0,
        strict: bool | None = None,
    ) -> list[TimingResult]:
        """Replay one trace through N simulators in a single shared pass.

        Returns one :class:`TimingResult` per simulator in input order,
        each bit-identical to ``sim.replay_fast(trace)``; see
        :func:`repro.sim.batch.replay_timing_batch`.
        """
        from repro.sim.batch import replay_timing_batch

        return replay_timing_batch(
            trace,
            simulators,
            instructions_per_access=instructions_per_access,
            strict=strict,
        )

    def _finish(
        self,
        trace: MemoryTrace,
        clock: float,
        dram_misses: int,
        issue_gap: float,
        recorder,
        fast: bool,
        strict: bool = False,
        mshr_overflows: int = 0,
    ) -> TimingResult:
        counters = recorder.counters
        counters.add(
            "sim.timing.fast_path" if fast else "sim.timing.scalar_path"
        )
        counters.add("sim.timing.trace_accesses", len(trace))
        counters.add("sim.timing.dram_misses", dram_misses)
        compute_cycles = len(trace) * issue_gap
        if strict:
            invariant(
                mshr_overflows == 0,
                "timing.mshr_occupancy",
                "%d DRAM misses exceeded the %d-MSHR window"
                % (mshr_overflows, self.params.mshrs),
            )
            invariant(
                0 <= dram_misses <= len(trace),
                "timing.dram_misses",
                "%d DRAM misses for a %d-access trace"
                % (dram_misses, len(trace)),
            )
            # The clock can never run ahead of pure compute issue: every
            # access contributes at least one issue gap (tolerance covers
            # float-summation order differences between the two engines).
            invariant(
                clock >= compute_cycles * (1.0 - 1e-9) - 1e-9,
                "timing.clock",
                "final clock %.17g below compute floor %.17g"
                % (clock, compute_cycles),
            )
        return TimingResult(
            cycles=clock,
            accesses=len(trace),
            dram_misses=dram_misses,
            compute_cycles=compute_cycles,
        )
