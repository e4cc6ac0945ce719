"""Trace-driven set-associative cache simulator.

Models the SoC cache hierarchy of Table 1 (64 kB 4-way L1, 2 MB 8-way LLC)
with true-LRU replacement and write-back/write-allocate policy.  The
simulator replays :class:`repro.sim.trace.MemoryTrace` objects and reports
per-level hits, misses, writebacks, and resulting DRAM traffic.  It is the
reproduction's stand-in for the performance-counter traffic measurements in
the paper and is used to validate the analytic profiles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import CacheConfig, SocConfig, CACHE_LINE_BYTES
from repro.obs.recorder import get_recorder
from repro.validate.strict import invariant, resolve_strict

if TYPE_CHECKING:  # annotation-only: importing the simulator loads no NumPy
    from repro.sim.trace import MemoryTrace


@dataclass
class CacheStats:
    """Access statistics for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


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


@dataclass
class HierarchyStats:
    """Aggregate results of replaying a trace through the hierarchy."""

    l1: CacheStats = field(default_factory=CacheStats)
    llc: CacheStats = field(default_factory=CacheStats)
    dram_line_reads: int = 0
    dram_line_writes: int = 0
    instructions_hint: float = 0.0

    @property
    def dram_bytes(self) -> int:
        return (self.dram_line_reads + self.dram_line_writes) * CACHE_LINE_BYTES

    def mpki(self, instructions: float | None = None) -> float:
        n = instructions if instructions is not None else self.instructions_hint
        if n <= 0:
            return 0.0
        return self.llc.misses / (n / 1000.0)


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

    @classmethod
    def replay_batch(
        cls,
        trace: MemoryTrace,
        socs,
        flush: bool = True,
        instructions_hint: float = 0.0,
        strict: bool | None = None,
    ) -> list[HierarchyStats]:
        """Replay one trace under N SoC configs in a single shared pass.

        Returns one :class:`HierarchyStats` per config in input order,
        each bit-identical to ``CacheHierarchy(soc).replay_fast(trace)``
        on a fresh hierarchy; see :func:`repro.sim.batch.replay_batch`.
        """
        from repro.sim.batch import replay_batch

        return replay_batch(
            trace,
            socs,
            flush=flush,
            instructions_hint=instructions_hint,
            strict=strict,
        )

    def _replay_line_runs(self, trace: MemoryTrace, strict: bool = False) -> None:
        run_lines, run_counts, run_writes = trace.line_runs()
        if strict:
            self._check_line_runs(len(trace), run_lines, run_counts)
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

    @staticmethod
    def _check_line_runs(num_accesses, run_lines, run_counts) -> None:
        """Strict-mode structural checks on a trace's line-run compression.

        The replay_fast equivalence argument assumes the run encoding is
        well-formed: counts cover the trace exactly, every run is
        non-empty, and consecutive runs change line (otherwise a fold
        could hide an eviction between same-line runs).
        """
        invariant(
            int(run_counts.sum()) == num_accesses,
            "trace.line_runs.total",
            "run counts sum to %d for a %d-access trace"
            % (int(run_counts.sum()), num_accesses),
        )
        invariant(
            run_counts.size == 0 or int(run_counts.min()) >= 1,
            "trace.line_runs.counts",
            "found an empty line run",
        )
        invariant(
            bool((run_lines[1:] != run_lines[:-1]).all()),
            "trace.line_runs.boundaries",
            "consecutive runs share a cache line",
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


#: Registry names for the hierarchy's counters, in :func:`_counts` order.
_COUNTER_NAMES = (
    "sim.cache.l1.accesses",
    "sim.cache.l1.hits",
    "sim.cache.l1.misses",
    "sim.cache.l1.writebacks",
    "sim.cache.llc.accesses",
    "sim.cache.llc.hits",
    "sim.cache.llc.misses",
    "sim.cache.llc.writebacks",
    "sim.cache.dram.line_reads",
    "sim.cache.dram.line_writes",
)

_NO_COUNTS = (0,) * len(_COUNTER_NAMES)


def _counts(l1: CacheStats, llc: CacheStats, dram_reads: int, dram_writes: int) -> tuple:
    return (
        l1.accesses, l1.hits, l1.misses, l1.writebacks,
        llc.accesses, llc.hits, llc.misses, llc.writebacks,
        dram_reads, dram_writes,
    )


def _check_accounting(num_accesses: int, before: tuple, after: tuple) -> None:
    """Strict-mode conservation laws over one replay's stat deltas.

    Computed as deltas so replays accumulating on a shared hierarchy
    are each checked in isolation.
    """
    (
        l1_acc, l1_hit, l1_miss, l1_wb,
        llc_acc, llc_hit, llc_miss, llc_wb,
        dram_reads, dram_writes,
    ) = tuple(now - prior for prior, now in zip(before, after))
    invariant(
        l1_hit + l1_miss == l1_acc,
        "cache.l1.accounting",
        "hits %d + misses %d != accesses %d" % (l1_hit, l1_miss, l1_acc),
    )
    invariant(
        llc_hit + llc_miss == llc_acc,
        "cache.llc.accounting",
        "hits %d + misses %d != accesses %d" % (llc_hit, llc_miss, llc_acc),
    )
    invariant(
        l1_acc == num_accesses,
        "cache.l1.coverage",
        "L1 saw %d accesses for a %d-access trace" % (l1_acc, num_accesses),
    )
    invariant(
        llc_acc == l1_miss + l1_wb,
        "cache.llc.traffic",
        "LLC accesses %d != L1 misses %d + L1 writebacks %d"
        % (llc_acc, l1_miss, l1_wb),
    )
    # Every LLC miss fetches exactly one line from DRAM, and every
    # dirty LLC eviction (or flush) writes exactly one line back.
    invariant(
        dram_reads == llc_miss and dram_writes == llc_wb,
        "cache.dram.traffic",
        "DRAM deltas reads=%d writes=%d vs LLC misses=%d writebacks=%d"
        % (dram_reads, dram_writes, llc_miss, llc_wb),
    )


def finish_stats(
    stats: HierarchyStats,
    num_accesses: int,
    recorder=None,
    before: tuple | None = None,
    strict: bool = False,
) -> HierarchyStats:
    """Check and publish one replay's final counts, then return them.

    The one tail every cache replay ends in, serial or batched.
    ``before`` is the counter tuple when the replay started (``None``
    for a fresh hierarchy): strict mode checks the conservation laws
    over the deltas, and the registry gets the deltas, because the
    stats objects accumulate across replays on the same hierarchy and
    an earlier replay must not be counted twice.
    """
    after = _counts(
        stats.l1, stats.llc, stats.dram_line_reads, stats.dram_line_writes
    )
    base = before if before is not None else _NO_COUNTS
    if strict:
        _check_accounting(num_accesses, base, after)
    if recorder is not None and recorder.enabled:
        counters = recorder.counters
        for name, prior, current in zip(_COUNTER_NAMES, base, after):
            counters.add(name, current - prior)
        counters.add("sim.cache.replays", 1)
        counters.add("sim.cache.trace_accesses", num_accesses)
    return stats


def replay_trace(
    trace: MemoryTrace,
    soc: SocConfig | None = None,
    fast: bool = True,
    strict: bool | None = None,
) -> HierarchyStats:
    """Convenience wrapper: replay ``trace`` through a fresh hierarchy."""
    hierarchy = CacheHierarchy(soc)
    if fast:
        return hierarchy.replay_fast(trace, strict=strict)
    return hierarchy.replay(trace, strict=strict)
