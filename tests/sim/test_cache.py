"""Unit tests for the set-associative cache simulator.

``TestSingleCache`` pins the per-access LRU cache of the serial oracle
(``tests/sim/oracle.py``); ``TestHierarchy`` runs the production
engine, one config through :func:`repro.sim.batch.replay_batch`.
"""

import numpy as np
import pytest

from repro.config import CacheConfig, CACHE_LINE_BYTES, SocConfig
from repro.sim.batch import replay_batch
from repro.sim.cache import replay_trace
from repro.sim.trace import MemoryTrace, TraceRecorder
from tests.sim.oracle import Cache


def tiny_cache(size=1024, assoc=2):
    return Cache(CacheConfig(size_bytes=size, associativity=assoc), "test")


def replay(trace, **kwargs):
    """The Table 1 hierarchy through the production engine."""
    return replay_batch(trace, [SocConfig()], **kwargs)[0]


def make_trace(addresses, writes=None):
    addresses = np.asarray(addresses, dtype=np.uint64)
    if writes is None:
        writes = np.zeros(len(addresses), dtype=bool)
    return MemoryTrace(addresses=addresses, is_write=np.asarray(writes, dtype=bool))


class TestSingleCache:
    def test_first_access_misses(self):
        c = tiny_cache()
        hit, victim = c.access(0, False)
        assert not hit and victim is None

    def test_second_access_hits(self):
        c = tiny_cache()
        c.access(0, False)
        hit, _ = c.access(0, False)
        assert hit

    def test_lru_eviction_order(self):
        c = tiny_cache(size=128, assoc=2)  # 1 set of 2 lines
        assert c.config.num_sets == 1
        c.access(0, False)
        c.access(1, False)
        c.access(0, False)  # touch line 0: line 1 is now LRU
        hit, victim = c.access(2, False)
        assert not hit
        assert victim[0] == 1  # line 1 evicted

    def test_dirty_eviction_reports_writeback(self):
        c = tiny_cache(size=64, assoc=1)  # a single line
        c.access(0, True)
        hit, victim = c.access(1, False)  # evicts dirty line 0
        assert victim == (0, True)
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = tiny_cache(size=64, assoc=1)
        c.access(0, False)
        _, victim = c.access(1, False)
        assert victim == (0, False)
        assert c.stats.writebacks == 0

    def test_write_marks_dirty_on_hit(self):
        c = tiny_cache(size=64, assoc=1)
        c.access(0, False)
        c.access(0, True)
        _, victim = c.access(1, False)
        assert victim == (0, True)

    def test_set_mapping_no_conflict(self):
        c = tiny_cache(size=1024, assoc=2)  # 8 sets
        for line in range(8):  # one line per set
            c.access(line, False)
        assert c.stats.misses == 8
        for line in range(8):
            hit, _ = c.access(line, False)
            assert hit

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=3)

    def test_reset(self):
        c = tiny_cache()
        c.access(0, True)
        c.reset()
        assert c.stats.accesses == 0
        assert not c.contains(0)

    def test_hit_rate(self):
        c = tiny_cache()
        c.access(0, False)
        c.access(0, False)
        assert c.stats.hit_rate == pytest.approx(0.5)
        assert c.stats.miss_rate == pytest.approx(0.5)


class TestHierarchy:
    def test_streaming_misses_every_line(self):
        """A one-pass stream over a large buffer misses once per line at
        both levels: the assumption behind KernelProfile.streaming."""
        size = 8 * 1024 * 1024  # 4x the LLC
        rec = TraceRecorder(granularity=64)
        rec.read(0, size)
        stats = replay(rec.trace())
        lines = size // CACHE_LINE_BYTES
        assert stats.l1.misses == lines
        assert stats.dram_line_reads == lines
        assert stats.dram_line_writes == 0

    def test_small_working_set_stays_cached(self):
        """Repeated passes over an L1-resident buffer: compulsory misses
        only."""
        size = 16 * 1024  # fits in 64 kB L1
        rec = TraceRecorder(granularity=64)
        for _ in range(10):
            rec.read(0, size)
        stats = replay(rec.trace())
        assert stats.dram_line_reads == size // CACHE_LINE_BYTES
        assert stats.l1.hit_rate > 0.85

    def test_llc_resident_working_set(self):
        """A buffer bigger than L1 but smaller than the LLC: DRAM sees it
        once, later passes hit in the LLC."""
        size = 512 * 1024
        rec = TraceRecorder(granularity=64)
        for _ in range(4):
            rec.read(0, size)
        stats = replay(rec.trace())
        assert stats.dram_line_reads == size // CACHE_LINE_BYTES

    def test_writes_produce_writebacks_on_flush(self):
        size = 64 * 1024
        rec = TraceRecorder(granularity=64)
        rec.write(0, size)
        stats = replay(rec.trace(), flush=True)
        assert stats.dram_line_writes == size // CACHE_LINE_BYTES

    def test_flush_counts_per_level_writebacks(self):
        """Regression: draining dirty lines at flush must increment each
        level's ``writebacks`` so per-level stats match DRAM writes."""
        size = 4096  # L1-resident: no writebacks until the flush
        lines = size // CACHE_LINE_BYTES
        rec = TraceRecorder(granularity=64)
        rec.write(0, size)
        stats = replay(rec.trace(), flush=True)
        assert stats.l1.writebacks == lines
        assert stats.llc.writebacks == lines
        assert stats.dram_line_writes == lines

    def test_flush_skips_clean_lines(self):
        rec = TraceRecorder(granularity=64)
        rec.read(0, 4096)
        stats = replay(rec.trace(), flush=True)
        assert stats.l1.writebacks == 0
        assert stats.llc.writebacks == 0
        assert stats.dram_line_writes == 0

    def test_no_flush_keeps_dirty_lines_in_cache(self):
        rec = TraceRecorder(granularity=64)
        rec.write(0, 4096)
        stats = replay(rec.trace(), flush=False)
        assert stats.dram_line_writes == 0

    def test_mpki_uses_instruction_hint(self):
        rec = TraceRecorder(granularity=64)
        rec.read(0, 64 * 1000)
        stats = replay(rec.trace(), instructions_hint=100_000)
        assert stats.mpki() == pytest.approx(10.0)

    def test_replay_trace_convenience(self):
        t = make_trace([0, 64, 128])
        stats = replay_trace(t)
        assert stats.l1.accesses == 3

    def test_dram_bytes(self):
        rec = TraceRecorder(granularity=64)
        rec.read(0, 6400)
        stats = replay(rec.trace())
        assert stats.dram_bytes == 6400
