"""Cache-hierarchy statistics and the tail every cache replay ends in.

Models the SoC cache hierarchy of Table 1 (64 kB 4-way L1, 2 MB 8-way LLC)
with true-LRU replacement and write-back/write-allocate policy.  The
replay itself is the config-batched engine in :mod:`repro.sim.batch`;
this module holds what it reports and checks: per-level hits, misses and
writebacks, the resulting DRAM traffic, the strict-mode conservation
laws and line-run structure checks, and the published ``sim.cache.*``
counters.  It is the reproduction's stand-in for the
performance-counter traffic measurements in the paper and is used to
validate the analytic profiles.  :func:`replay_trace` replays one trace
under one config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import SocConfig, CACHE_LINE_BYTES
from repro.validate.strict import invariant

if TYPE_CHECKING:  # annotation-only: importing the statistics loads no NumPy
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



def check_line_runs(num_accesses, run_lines, run_counts) -> None:
    """Strict-mode structural checks on a trace's line-run compression.

    The line-run replay's equivalence argument assumes the run encoding
    is well-formed: counts cover the trace exactly, every run is
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

    The one tail every cache replay ends in: each config of the batched
    engine, and the serial oracles the tests compare it with.
    ``before`` is the counter tuple when the replay started (``None``
    for a fresh hierarchy, which every batched config is): strict mode
    checks the conservation laws over the deltas, and the registry gets
    the deltas, because a serial hierarchy's stats accumulate across
    replays and an earlier replay must not be counted twice.
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
    strict: bool | None = None,
) -> HierarchyStats:
    """Replay ``trace`` through a fresh hierarchy: a one-config batch."""
    from repro.sim.batch import replay_batch

    return replay_batch(trace, [soc or SocConfig()], strict=strict)[0]
