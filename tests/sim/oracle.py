"""The serial cache and timing replays and the GEMM trace loop, kept as
differential oracles.

Production replays go through one engine, the config-batched passes in
:mod:`repro.sim.batch`: every sweep row, every ``replay_trace`` call.
This module keeps the serial engines that engine replaced, as the
reference the differential suites and the trace-engine benches compare
it against:

* :class:`Cache` / :class:`CacheHierarchy` -- ``replay`` walks the trace
  one access at a time (the obviously-correct oracle); ``replay_fast``
  consumes :meth:`MemoryTrace.line_runs`, one run per iteration, and is
  bit-identical to it;
* :class:`TimingSimulator` -- the same pair for the MSHR-bounded timing
  replay;
* :func:`sweep_row` -- one sweep-point row built from the two
  ``replay_fast`` engines: the serial reference for
  :class:`repro.core.runner.ConfigSweep` rows;
* :func:`gemm_lhs_trace_loop` -- the GEMM LHS walk issued as one
  ``TraceRecorder.read`` per operand load: the reference for
  :func:`repro.workloads.tensorflow.access_patterns.gemm_lhs_trace`,
  which emits the same walk as one ``record_ranges`` batch;
* :func:`merged_pairwise` -- one ``KernelProfile`` merge step, as
  ``KernelProfile.merged`` computed it before it became the two-profile
  case of ``KernelProfile.folded``: chained left to right, the
  reference for the fold.  It shares no code with the fold.

The classes are moved unchanged from ``repro.sim.cache`` and
``repro.sim.timing``, and the loop from ``access_patterns``.  The cache
replays still end in the production tail
(:func:`repro.sim.cache.finish_stats`, with the same strict checks and
published counters), so registries compare as well as stats.
pytest does not collect this module: its name has no ``test_`` prefix.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from repro.config import CACHE_LINE_BYTES, CacheConfig, SocConfig
from repro.core.runner import _sweep_row
from repro.obs.recorder import get_recorder
from repro.sim.cache import (
    CacheStats,
    HierarchyStats,
    _counts,
    check_line_runs,
    finish_stats,
)
from repro.sim.profile import KernelProfile
from repro.sim.timing import TimingParameters, TimingResult
from repro.sim.trace import AddressSpace, MemoryTrace, TraceRecorder
from repro.validate.strict import invariant, resolve_strict


class Cache:
    """One set-associative, write-back, write-allocate cache level."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # One OrderedDict per set: line_tag -> dirty flag; LRU order is
        # insertion order (move_to_end on hit).
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(config.num_sets)]

    def reset(self) -> None:
        self.stats = CacheStats()
        for s in self._sets:
            s.clear()

    def access(self, line_addr: int, is_write: bool):
        """Access one cache line.

        Returns:
            (hit, victim): ``hit`` is True on a cache hit; ``victim`` is the
            (line_addr, dirty) pair evicted to make room, or None.
        """
        set_idx = line_addr % self.config.num_sets
        tag = line_addr // self.config.num_sets
        lines = self._sets[set_idx]
        self.stats.accesses += 1
        if tag in lines:
            self.stats.hits += 1
            lines.move_to_end(tag)
            if is_write:
                lines[tag] = True
            return True, None
        self.stats.misses += 1
        victim = None
        if len(lines) >= self.config.associativity:
            victim_tag, victim_dirty = lines.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
            victim_line = victim_tag * self.config.num_sets + set_idx
            victim = (victim_line, victim_dirty)
        lines[tag] = is_write
        return False, victim

    def contains(self, line_addr: int) -> bool:
        set_idx = line_addr % self.config.num_sets
        tag = line_addr // self.config.num_sets
        return tag in self._sets[set_idx]



class CacheHierarchy:
    """A two-level (L1 + shared LLC) inclusive-ish hierarchy.

    Misses in L1 access the LLC; LLC misses fetch from DRAM.  Dirty
    evictions write back to the next level (L1 victims are installed into
    the LLC as dirty; LLC dirty victims count as DRAM writes).
    """

    def __init__(self, soc: SocConfig | None = None):
        cfg = soc or SocConfig()
        self.l1 = Cache(cfg.l1, name="L1")
        self.llc = Cache(cfg.l2, name="LLC")
        self.dram_line_reads = 0
        self.dram_line_writes = 0

    def reset(self) -> None:
        self.l1.reset()
        self.llc.reset()
        self.dram_line_reads = 0
        self.dram_line_writes = 0

    def access(self, address: int, is_write: bool) -> None:
        line = address // CACHE_LINE_BYTES
        hit, victim = self.l1.access(line, is_write)
        if victim is not None:
            victim_line, victim_dirty = victim
            if victim_dirty:
                self._llc_install_writeback(victim_line)
        if hit:
            return
        # L1 miss: fetch line through the LLC (the fill itself is a read).
        llc_hit, llc_victim = self.llc.access(line, is_write=False)
        if llc_victim is not None:
            _, dirty = llc_victim
            if dirty:
                self.dram_line_writes += 1
        if not llc_hit:
            self.dram_line_reads += 1

    def _llc_install_writeback(self, line: int) -> None:
        hit, victim = self.llc.access(line, is_write=True)
        if victim is not None:
            _, dirty = victim
            if dirty:
                self.dram_line_writes += 1
        if not hit:
            # Write-allocate: the line is fetched before being overwritten.
            self.dram_line_reads += 1

    def flush(self) -> None:
        """Write back all dirty lines (end-of-kernel accounting)."""
        for cache, sink in ((self.l1, self._llc_install_writeback), (self.llc, None)):
            for set_idx, lines in enumerate(cache._sets):
                for tag, dirty in list(lines.items()):
                    if not dirty:
                        continue
                    cache.stats.writebacks += 1
                    line = tag * cache.config.num_sets + set_idx
                    if sink is not None:
                        sink(line)
                    else:
                        self.dram_line_writes += 1
                    lines[tag] = False

    def replay(
        self,
        trace: MemoryTrace,
        flush: bool = True,
        instructions_hint: float = 0.0,
        strict: bool | None = None,
    ) -> HierarchyStats:
        """Replay a full trace, one access at a time.

        This is the slow, obviously-correct path; :meth:`replay_fast`
        produces bit-identical statistics and should be preferred for
        large traces.  ``strict`` arms the conservation invariants
        (``None`` defers to the global strict mode).
        """
        strict = resolve_strict(strict)
        recorder = get_recorder()
        before = self._counter_state() if (recorder.enabled or strict) else None
        with recorder.span("sim.cache.replay"):
            addresses = trace.addresses
            writes = trace.is_write
            access = self.access
            for i in range(len(trace)):
                access(int(addresses[i]), bool(writes[i]))
            return self._finish(
                len(trace), flush, instructions_hint, recorder, before, strict
            )

    def replay_fast(
        self,
        trace: MemoryTrace,
        flush: bool = True,
        instructions_hint: float = 0.0,
        strict: bool | None = None,
    ) -> HierarchyStats:
        """Replay a trace via line-run compression; bit-identical to
        :meth:`replay`.

        :meth:`MemoryTrace.line_runs` folds each run of consecutive
        accesses to the same cache line into one (line, count, any_write)
        record.  Within a run, accesses after the first are guaranteed L1
        hits on an already-MRU line, so they cannot change LRU state,
        victims, or lower-level traffic; their entire effect is
        ``count - 1`` extra L1 accesses/hits plus OR-ing their write flags
        into the line's dirty bit.  Dirtiness itself is flag-order
        independent (it is a monotone OR), so performing the run's first
        access with the folded flag and bulk-adding the remaining hits
        reproduces the per-access statistics exactly.  The equivalence is
        enforced by property tests (``tests/sim/test_replay_equivalence``).
        """
        strict = resolve_strict(strict)
        recorder = get_recorder()
        before = self._counter_state() if (recorder.enabled or strict) else None
        with recorder.span("sim.cache.replay_fast"):
            self._replay_line_runs(trace, strict)
            return self._finish(
                len(trace), flush, instructions_hint, recorder, before, strict
            )

    def _replay_line_runs(self, trace: MemoryTrace, strict: bool = False) -> None:
        run_lines, run_counts, run_writes = trace.line_runs()
        if strict:
            check_line_runs(len(trace), run_lines, run_counts)
        l1, llc = self.l1, self.llc
        l1_num_sets, l1_assoc = l1.config.num_sets, l1.config.associativity
        llc_num_sets, llc_assoc = llc.config.num_sets, llc.config.associativity
        l1_sets, llc_sets = l1._sets, llc._sets
        # Stats are accumulated in locals and folded back once at the end;
        # pure integer additions, so the totals are bit-identical.
        l1_acc = l1_hits = l1_miss = l1_wb = 0
        llc_acc = llc_hits = llc_miss = llc_wb = 0
        dram_reads = dram_writes = 0
        for line, count, is_write in zip(
            run_lines.tolist(), run_counts.tolist(), run_writes.tolist()
        ):
            # Inlined Cache.access for L1 with the run's hits folded in.
            set_idx = line % l1_num_sets
            tag = line // l1_num_sets
            lines = l1_sets[set_idx]
            l1_acc += count
            if tag in lines:
                l1_hits += count
                lines.move_to_end(tag)
                if is_write:
                    lines[tag] = True
                continue
            l1_miss += 1
            l1_hits += count - 1
            if len(lines) >= l1_assoc:
                victim_tag, victim_dirty = lines.popitem(last=False)
                if victim_dirty:
                    l1_wb += 1
                    # Inlined _llc_install_writeback (LLC write-allocate).
                    victim_line = victim_tag * l1_num_sets + set_idx
                    wb_set = victim_line % llc_num_sets
                    wb_tag = victim_line // llc_num_sets
                    wb_lines = llc_sets[wb_set]
                    llc_acc += 1
                    if wb_tag in wb_lines:
                        llc_hits += 1
                        wb_lines.move_to_end(wb_tag)
                        wb_lines[wb_tag] = True
                    else:
                        llc_miss += 1
                        if len(wb_lines) >= llc_assoc:
                            _, wb_victim_dirty = wb_lines.popitem(last=False)
                            if wb_victim_dirty:
                                llc_wb += 1
                                dram_writes += 1
                        wb_lines[wb_tag] = True
                        dram_reads += 1
            lines[tag] = is_write
            # L1 miss: fetch line through the LLC (the fill itself is a
            # read) — inlined Cache.access on the LLC.
            llc_set = line % llc_num_sets
            llc_tag = line // llc_num_sets
            llc_lines = llc_sets[llc_set]
            llc_acc += 1
            if llc_tag in llc_lines:
                llc_hits += 1
                llc_lines.move_to_end(llc_tag)
            else:
                llc_miss += 1
                if len(llc_lines) >= llc_assoc:
                    _, llc_victim_dirty = llc_lines.popitem(last=False)
                    if llc_victim_dirty:
                        llc_wb += 1
                        dram_writes += 1
                llc_lines[llc_tag] = False
                dram_reads += 1
        l1.stats.accesses += l1_acc
        l1.stats.hits += l1_hits
        l1.stats.misses += l1_miss
        l1.stats.writebacks += l1_wb
        llc.stats.accesses += llc_acc
        llc.stats.hits += llc_hits
        llc.stats.misses += llc_miss
        llc.stats.writebacks += llc_wb
        self.dram_line_reads += dram_reads
        self.dram_line_writes += dram_writes

    def _counter_state(self) -> tuple:
        """Every published statistic, as one cumulative tuple."""
        return _counts(
            self.l1.stats, self.llc.stats,
            self.dram_line_reads, self.dram_line_writes,
        )

    def _finish(
        self,
        num_accesses: int,
        flush: bool,
        instructions_hint: float,
        recorder=None,
        before: tuple | None = None,
        strict: bool = False,
    ) -> HierarchyStats:
        if flush:
            self.flush()
        stats = HierarchyStats(
            l1=self.l1.stats,
            llc=self.llc.stats,
            dram_line_reads=self.dram_line_reads,
            dram_line_writes=self.dram_line_writes,
            instructions_hint=instructions_hint or float(num_accesses),
        )
        return finish_stats(stats, num_accesses, recorder, before, strict)


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


def sweep_row(trace, soc, timing_params, instructions_per_access) -> dict:
    """One geometry's row: serial cache replay + serial timing replay."""
    stats = CacheHierarchy(soc).replay_fast(trace)
    timing = TimingSimulator(soc, timing_params).replay_fast(
        trace, instructions_per_access
    )
    return _sweep_row(soc, stats, timing, instructions_per_access)


def gemm_lhs_trace_loop(
    m: int,
    k: int,
    n_blocks: int,
    packed: bool,
    panel_rows: int = 4,
    granularity: int = 16,
) -> MemoryTrace:
    """The GEMM kernel's LHS access stream, one read per operand load."""
    if m <= 0 or k <= 0 or n_blocks <= 0:
        raise ValueError("dimensions must be positive")
    if panel_rows <= 0:
        raise ValueError("panel_rows must be positive")
    space = AddressSpace()
    base = space.alloc(m * k)
    rec = TraceRecorder(granularity=granularity)
    num_panels = (m + panel_rows - 1) // panel_rows
    for _ in range(n_blocks):
        for panel in range(num_panels):
            if packed:
                # Panel-major: the whole panel is one contiguous run; the
                # last panel holds only the rows left below m.
                rows = min(panel_rows, m - panel * panel_rows)
                rec.read(base + panel * panel_rows * k, rows * k)
            else:
                # Row-major: interleave the panel's rows the way the
                # kernel consumes them -- panel_rows operands per depth
                # step, k bytes apart.
                for depth in range(0, k, granularity):
                    for row in range(panel_rows):
                        r = panel * panel_rows + row
                        if r >= m:
                            continue
                        rec.read(base + r * k + depth, granularity)
    return rec.trace()


def merged_pairwise(a: KernelProfile, b: KernelProfile, name=None) -> KernelProfile:
    """``a`` followed by ``b``: the pairwise merge ``folded`` must chain to.

    The fields are computed as ``KernelProfile.merged`` computed them
    before the fold: sums, the ``alu_ops``-weighted ``simd_fraction``
    (0 when neither has ops), the larger working set and empty notes.
    The result goes through the validating constructor, not the
    production combinators' unvalidated one: from valid inputs both
    build the same profile, and on overflow to ``inf`` both raise the
    same ``ConfigError``.
    """
    wa, wb = a.alu_ops, b.alu_ops
    if wa + wb <= 0:
        simd_fraction = 0.0
    else:
        simd_fraction = (a.simd_fraction * wa + b.simd_fraction * wb) / (wa + wb)
    return KernelProfile(
        name=name or "%s+%s" % (a.name, b.name),
        instructions=a.instructions + b.instructions,
        mem_instructions=a.mem_instructions + b.mem_instructions,
        alu_ops=a.alu_ops + b.alu_ops,
        simd_fraction=simd_fraction,
        l1_misses=a.l1_misses + b.l1_misses,
        llc_misses=a.llc_misses + b.llc_misses,
        dram_bytes=a.dram_bytes + b.dram_bytes,
        working_set_bytes=max(a.working_set_bytes, b.working_set_bytes),
        pim_bytes=a.pim_bytes + b.pim_bytes,
        notes="",
    )
