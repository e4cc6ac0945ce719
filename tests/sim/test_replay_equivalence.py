"""Property tests: the line-run replay is bit-identical to per-access.

Both serial oracles live in ``tests/sim/oracle.py``.  ``replay_fast``
consumes run-length-compressed line runs (:meth:`MemoryTrace.line_runs`)
instead of individual accesses; these tests drive it and the per-access
``replay`` with random, streaming, strided, and write-heavy traces and
require identical :class:`HierarchyStats` — every counter at every
level, not just the headline traffic numbers.  The production engine
(:mod:`repro.sim.batch`) is pinned to the same oracles here through
:func:`replay_trace` and the registry tests, and in
``tests/sim/test_replay_batch.py``.  A second group pins the lazy
range-record ``TraceRecorder`` to the old eager expansion, byte for
byte.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import CACHE_LINE_BYTES, CacheConfig, SocConfig
from repro.obs import recording
from repro.sim.cache import replay_trace
from repro.sim.trace import MemoryTrace, TraceRecorder
from tests.sim.oracle import CacheHierarchy


def tiny_soc() -> SocConfig:
    """A deliberately small hierarchy so random traces cause evictions."""
    return SocConfig(
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
    )


def assert_equivalent(trace: MemoryTrace, soc: SocConfig | None = None):
    oracle = CacheHierarchy(soc).replay(trace)
    fast = CacheHierarchy(soc).replay_fast(trace)
    assert fast == oracle
    # Also without the end-of-trace flush.
    oracle_nf = CacheHierarchy(soc).replay(trace, flush=False)
    fast_nf = CacheHierarchy(soc).replay_fast(trace, flush=False)
    assert fast_nf == oracle_nf


address_lists = st.lists(
    st.integers(min_value=0, max_value=1 << 14), min_size=0, max_size=300
)


class TestReplayEquivalence:
    @settings(max_examples=60)
    @given(addresses=address_lists, data=st.data())
    def test_random_traces(self, addresses, data):
        writes = [data.draw(st.booleans()) for _ in addresses]
        trace = MemoryTrace(
            addresses=np.array(addresses, dtype=np.uint64),
            is_write=np.array(writes, dtype=bool),
        )
        assert_equivalent(trace, tiny_soc())

    @settings(max_examples=25)
    @given(
        start=st.integers(min_value=0, max_value=1 << 12),
        size=st.integers(min_value=1, max_value=1 << 14),
        gran=st.sampled_from([1, 4, 8, 64]),
        write=st.booleans(),
    )
    def test_streaming_traces(self, start, size, gran, write):
        rec = TraceRecorder(granularity=gran)
        (rec.write if write else rec.read)(start, size)
        assert_equivalent(rec.trace(), tiny_soc())

    @settings(max_examples=25)
    @given(
        stride=st.integers(min_value=1, max_value=4096),
        count=st.integers(min_value=1, max_value=200),
        span=st.integers(min_value=8, max_value=256),
    )
    def test_strided_traces(self, stride, count, span):
        rec = TraceRecorder(granularity=8)
        for i in range(count):
            rec.read(i * stride, span)
        assert_equivalent(rec.trace(), tiny_soc())

    @settings(max_examples=25)
    @given(
        passes=st.integers(min_value=1, max_value=6),
        size=st.integers(min_value=64, max_value=8192),
        write_fraction=st.floats(min_value=0.5, max_value=1.0),
    )
    def test_write_heavy_traces(self, passes, size, write_fraction, ):
        rec = TraceRecorder(granularity=8)
        rng = np.random.default_rng(size)
        for _ in range(passes):
            if rng.random() < write_fraction:
                rec.write(0, size)
            else:
                rec.read(0, size)
        assert_equivalent(rec.trace(), tiny_soc())

    def test_full_size_soc_mixed_trace(self):
        """One large deterministic trace on the paper's real geometry."""
        rng = np.random.default_rng(7)
        rec = TraceRecorder(granularity=8)
        rec.read(0, 256 * 1024)
        rec.write(1 << 24, 128 * 1024)
        for i in range(500):
            rec.read((1 << 26) + i * 4096, 64)
        scattered = rng.integers(0, 1 << 22, 20_000, dtype=np.uint64)
        rec.read_indices(1 << 28, scattered, element_size=4)
        assert_equivalent(rec.trace())

    def test_empty_trace(self):
        assert_equivalent(TraceRecorder().trace())

    def test_replay_trace_defaults_to_fast_path(self):
        """The public one-config entry point runs the batched engine and
        matches the per-access oracle."""
        rec = TraceRecorder(granularity=8)
        rec.write(0, 64 * 1024)
        assert replay_trace(rec.trace()) == CacheHierarchy().replay(rec.trace())


class TestLineRuns:
    def test_runs_fold_consecutive_same_line(self):
        trace = MemoryTrace(
            addresses=np.array([0, 8, 63, 64, 0], dtype=np.uint64),
            is_write=np.array([False, True, False, False, False]),
        )
        lines, counts, writes = trace.line_runs()
        assert lines.tolist() == [0, 1, 0]
        assert counts.tolist() == [3, 1, 1]
        assert writes.tolist() == [True, False, False]

    def test_empty(self):
        lines, counts, writes = TraceRecorder().trace().line_runs()
        assert len(lines) == len(counts) == len(writes) == 0

    @settings(max_examples=60)
    @given(addresses=address_lists, data=st.data())
    def test_runs_reconstruct_line_sequence(self, addresses, data):
        writes = [data.draw(st.booleans()) for _ in addresses]
        trace = MemoryTrace(
            addresses=np.array(addresses, dtype=np.uint64),
            is_write=np.array(writes, dtype=bool),
        )
        lines, counts, run_writes = trace.line_runs()
        assert int(counts.sum()) == len(trace)
        reconstructed = np.repeat(lines, counts)
        np.testing.assert_array_equal(reconstructed, trace.line_addresses())
        # No two adjacent runs share a line, and write flags OR-fold.
        assert not np.any(lines[1:] == lines[:-1])
        expected = np.logical_or.reduceat(trace.is_write, np.cumsum(np.append(0, counts[:-1]))) if len(lines) else run_writes
        np.testing.assert_array_equal(run_writes, expected)


def registry_output(trace: MemoryTrace, soc: SocConfig, fast: bool) -> dict:
    """The full counter-registry export of one replay on a fresh hierarchy.

    ``validate.*`` counters are excluded: under REPRO_STRICT the two
    engines run different *structural* self-checks (only replay_fast
    consumes line runs), so check counts differ by design while every
    simulation statistic must still match exactly.  ``sim.replay_batch.*``
    is batch-shape bookkeeping (configs per batch, shared-trace hits),
    published only by the batched engine, and likewise excluded — the
    batched-vs-serial test below asserts every *simulation* counter
    matches across engines.
    """
    excluded = ("validate.", "sim.replay_batch.")
    with recording() as rec:
        hierarchy = CacheHierarchy(soc)
        (hierarchy.replay_fast if fast else hierarchy.replay)(trace)
    return {
        name: value
        for name, value in rec.counters.as_dict().items()
        if not name.startswith(excluded)
    }


class TestCounterRegistryEquivalence:
    """Differential: both replay paths publish *identical registries*.

    Stricter than comparing ``HierarchyStats``: the assertion covers the
    exported counter names and every value — L1/LLC hits, misses,
    writebacks, DRAM line traffic, replay/access bookkeeping — i.e. the
    exact payload a run manifest would contain.
    """

    @settings(max_examples=40)
    @given(addresses=address_lists, data=st.data())
    def test_registry_identical_on_random_traces(self, addresses, data):
        writes = [data.draw(st.booleans()) for _ in addresses]
        trace = MemoryTrace(
            addresses=np.array(addresses, dtype=np.uint64),
            is_write=np.array(writes, dtype=bool),
        )
        oracle = registry_output(trace, tiny_soc(), fast=False)
        fast = registry_output(trace, tiny_soc(), fast=True)
        assert fast == oracle
        if len(trace):
            assert oracle["sim.cache.l1.accesses"] == len(trace)
        assert oracle["sim.cache.replays"] == 1
        assert oracle["sim.cache.trace_accesses"] == len(trace)

    @settings(max_examples=20)
    @given(
        stride=st.integers(min_value=1, max_value=4096),
        count=st.integers(min_value=1, max_value=120),
        span=st.integers(min_value=8, max_value=256),
    )
    def test_registry_identical_on_strided_traces(self, stride, count, span):
        rec = TraceRecorder(granularity=8)
        for i in range(count):
            rec.read(i * stride, span)
        trace = rec.trace()
        assert registry_output(trace, tiny_soc(), fast=True) == registry_output(
            trace, tiny_soc(), fast=False
        )

    @settings(max_examples=25)
    @given(addresses=address_lists, data=st.data())
    def test_registry_identical_batched_vs_serial_sweep(self, addresses, data):
        """A batched sweep publishes the same simulation registry as N
        serial replays — ``sim.cache.*`` totals across configs match
        exactly; only the batch-bookkeeping namespace differs."""
        from repro.sim.batch import replay_batch

        writes = [data.draw(st.booleans()) for _ in addresses]

        def trace():
            return MemoryTrace(
                addresses=np.array(addresses, dtype=np.uint64),
                is_write=np.array(writes, dtype=bool),
            )

        socs = [
            tiny_soc(),
            SocConfig(
                l1=CacheConfig(size_bytes=512, associativity=1),
                l2=CacheConfig(size_bytes=2048, associativity=2),
            ),
            SocConfig(
                l1=CacheConfig(size_bytes=2048, associativity=4),
                l2=CacheConfig(size_bytes=8192, associativity=8),
            ),
        ]
        excluded = ("validate.", "sim.replay_batch.")
        with recording() as serial_rec:
            for soc in socs:
                CacheHierarchy(soc).replay_fast(trace())
        with recording() as batch_rec:
            replay_batch(trace(), socs)
        serial = {
            k: v
            for k, v in serial_rec.counters.as_dict().items()
            if not k.startswith(excluded)
        }
        batched = {
            k: v
            for k, v in batch_rec.counters.as_dict().items()
            if not k.startswith(excluded)
        }
        assert batched == serial
        assert batch_rec.counters.as_dict()["sim.replay_batch.configs"] == len(socs)

    def test_second_replay_publishes_delta_not_cumulative(self):
        rec = TraceRecorder(granularity=8)
        rec.read(0, 8 * 1024)
        trace = rec.trace()
        with recording() as obs:
            hierarchy = CacheHierarchy(tiny_soc())
            hierarchy.replay_fast(trace)
            first = dict(obs.counters.as_dict())
            hierarchy.replay_fast(trace)
        second = obs.counters.as_dict()
        # The registry accumulates per-replay deltas, so two replays of
        # the same trace publish exactly twice the accesses of one --
        # even though the hierarchy's own stats objects are cumulative.
        assert second["sim.cache.replays"] == 2
        assert (
            second["sim.cache.l1.accesses"] == 2 * first["sim.cache.l1.accesses"]
        )

    def test_disabled_recorder_publishes_nothing(self):
        rec = TraceRecorder(granularity=8)
        rec.read(0, 4 * 1024)
        trace = rec.trace()
        with recording() as obs:
            pass  # recorder active only inside the block
        replay_trace(trace, tiny_soc())
        assert obs.counters.as_dict() == {}


class EagerRecorder:
    """The pre-optimization recorder: expands ranges at record time."""

    def __init__(self, granularity: int = 8):
        self.granularity = granularity
        self._chunks: list[tuple[np.ndarray, bool]] = []

    def read(self, base, size):
        self._record(base, size, False)

    def write(self, base, size):
        self._record(base, size, True)

    def read_indices(self, base, indices, element_size):
        addrs = np.uint64(base) + np.asarray(indices, dtype=np.uint64) * np.uint64(
            element_size
        )
        self._chunks.append((addrs, False))

    def _record(self, base, size, is_write):
        if size == 0:
            return
        count = (size + self.granularity - 1) // self.granularity
        addrs = np.uint64(base) + np.arange(count, dtype=np.uint64) * np.uint64(
            self.granularity
        )
        self._chunks.append((addrs, is_write))

    def trace(self) -> MemoryTrace:
        if not self._chunks:
            return MemoryTrace(np.empty(0, np.uint64), np.empty(0, bool))
        return MemoryTrace(
            addresses=np.concatenate([c for c, _ in self._chunks]),
            is_write=np.concatenate(
                [np.full(c.shape[0], w, dtype=bool) for c, w in self._chunks]
            ),
        )


ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "read_indices"]),
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=2048),
    ),
    min_size=0,
    max_size=30,
)


class TestLazyRecorderMatchesEager:
    @settings(max_examples=60)
    @given(sequence=ops, gran=st.sampled_from([1, 7, 8, 64]))
    def test_byte_for_byte(self, sequence, gran):
        lazy = TraceRecorder(granularity=gran)
        eager = EagerRecorder(granularity=gran)
        for op, base, size in sequence:
            if op == "read_indices":
                indices = np.arange(size % 17, dtype=np.uint64)
                lazy.read_indices(base, indices, 4)
                eager.read_indices(base, indices, 4)
            else:
                getattr(lazy, op)(base, size)
                getattr(eager, op)(base, size)
        got, want = lazy.trace(), eager.trace()
        np.testing.assert_array_equal(got.addresses, want.addresses)
        np.testing.assert_array_equal(got.is_write, want.is_write)
        assert lazy.num_accesses == len(want)

    def test_num_accesses_without_materializing(self):
        rec = TraceRecorder(granularity=8)
        rec.read(0, 1 << 30)  # a billion-byte range is O(1) to record
        assert rec.num_accesses == (1 << 30) // 8
        assert rec._ops[0][0] == 0  # still a compact range record

    def test_write_flag_in_line_runs_partial_line(self):
        """A write run covering part of a line still marks it dirty."""
        rec = TraceRecorder(granularity=8)
        rec.read(0, CACHE_LINE_BYTES)
        rec.write(CACHE_LINE_BYTES // 2, 8)
        stats = replay_trace(rec.trace())  # flushes at the end
        assert stats.dram_line_writes == 1
