"""Differential tests: the NumPy LRU kernel against the OrderedDict loop.

:func:`repro.sim.batch._lru_kernel` decides each access of an LRU pass
from its set's recent window, or returns ``None`` when a window repeats
a line; :func:`repro.sim.batch._lru_loop` steps the cache one access at
a time.  Wherever the kernel decides, every per-access hit, victim and
victim dirty bit and the end state must equal the loop's.  Each stream
is checked under both levels' flag semantics: as an L1 pass (flags are
writes on the access stream) and as an LLC pass (flags mark the
writeback-installs of the event stream an L1 pass induces).

Each generator also asserts which branch it reaches — strided,
streaming, direct-mapped and empty access streams are decided, ``A B A
C A D ...`` interleavings and an LLC set that ends cycling over fewer
lines than it has ways are not — so both the kernel and the fallback
run on every invocation.  The last tests pin the ways the sweep depends
on the kernel: the default ``cachesweep`` grid never falls back, its
passes share one set order per stream and set count, and timing clocks
are shared exactly when LLC fetch outcomes are.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cachesweep import WORKLOADS, default_geometry_grid
from repro.config import CACHE_LINE_BYTES, CacheConfig, SocConfig
from repro.core.runner import _sweep_row
from repro.sim import batch
from repro.sim.timing import TimingParameters, TimingSimulator
from repro.sim.trace import MemoryTrace
from tests.sim import oracle

#: (num_sets, assoc) of the LLC pass each L1 event stream is run through.
LLC_GEOMETRY = (4, 4)


def outcomes_equal(got, want) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(got, want))


def l1_events(lines, writes, num_sets, assoc):
    """The LLC event stream a production L1 pass induces from ``lines``."""
    trace = MemoryTrace(
        addresses=np.asarray(lines, dtype=np.uint64) * CACHE_LINE_BYTES,
        is_write=np.asarray(writes, dtype=bool),
    )
    l1 = CacheConfig(
        size_bytes=num_sets * assoc * CACHE_LINE_BYTES, associativity=assoc
    )
    llc = CacheConfig(
        size_bytes=LLC_GEOMETRY[0] * LLC_GEOMETRY[1] * CACHE_LINE_BYTES,
        associativity=LLC_GEOMETRY[1],
    )
    outcomes = batch._SharedOutcomes(trace)
    outcomes.run_passes([SocConfig(l1=l1, l2=llc)])
    l1_pass = outcomes.l1(l1)
    return l1_pass.ev_lines, l1_pass.ev_is_wb


def check(lines, flags, num_sets, assoc) -> bool:
    """Kernel == loop wherever the kernel decides; True if it decided."""
    lines = np.asarray(lines, dtype=np.int64)
    flags = np.asarray(flags, dtype=bool)
    set_order = batch._set_order(lines, num_sets)
    got = batch._lru_kernel(set_order, flags, assoc)
    want = batch._lru_loop(lines, flags, num_sets, assoc)
    if got is not None:
        assert outcomes_equal(got, want)
    assert outcomes_equal(batch._lru(set_order, flags, assoc), want)
    return got is not None


def check_both_levels(lines, writes, num_sets, assoc):
    """(decided as an L1 pass, decided as an LLC pass) for one stream."""
    as_l1 = check(lines, writes, num_sets, assoc)
    ev_lines, ev_is_wb = l1_events(lines, writes, num_sets, assoc)
    as_llc = check(ev_lines, ev_is_wb, *LLC_GEOMETRY)
    return as_l1, as_llc


geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]), st.sampled_from([1, 2, 3, 4, 8])
)


@st.composite
def write_flags(draw, n):
    density = draw(st.sampled_from([0.0, 0.2, 0.7]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return np.random.default_rng(seed).random(n) < density


class TestDecided:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.integers(min_value=0, max_value=1 << 20),
        stride=st.integers(min_value=1, max_value=64),
        period=st.integers(min_value=1, max_value=96),
        n=st.integers(min_value=1, max_value=600),
        geometry=geometries,
        data=st.data(),
    )
    def test_strided_traces(self, base, stride, period, n, geometry, data):
        """Cyclic strided sweeps: each set sees a fixed cycle of lines,
        so its window is either distinct or the set never overflows.
        The L1's misses need not be cyclic per LLC set (see
        ``test_llc_set_ends_in_short_cycle``), so only the L1 pass is
        certain to be decided."""
        lines = base + (np.arange(n) % period) * stride
        writes = data.draw(write_flags(n))
        as_l1, _ = check_both_levels(lines, writes, *geometry)
        assert as_l1

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(min_value=0, max_value=1 << 20),
        n=st.integers(min_value=1, max_value=600),
        geometry=geometries,
        data=st.data(),
    )
    def test_streaming_traces(self, base, n, geometry, data):
        """Every line once: all windows are distinct.  Writebacks can
        put a line twice in an LLC window, so the LLC pass is certain to
        be decided only for reads."""
        lines = base + np.arange(n)
        writes = data.draw(write_flags(n))
        as_l1, as_llc = check_both_levels(lines, writes, *geometry)
        assert as_l1 and (as_llc or writes.any())

    @settings(max_examples=40, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=64), max_size=300),
        num_sets=st.sampled_from([1, 4, 16]),
        data=st.data(),
    )
    def test_direct_mapped(self, lines, num_sets, data):
        """One way: the window is the access before, always decided."""
        writes = data.draw(write_flags(len(lines)))
        assert check(lines, writes, num_sets, 1)

    @pytest.mark.parametrize("num_sets,assoc", [(1, 1), (4, 2), (16, 8)])
    def test_empty_trace(self, num_sets, assoc):
        assert check([], [], num_sets, assoc)
        hits, victims, victim_dirty, end_lines, end_dirty = batch._lru_kernel(
            batch._set_order(np.zeros(0, dtype=np.int64), num_sets),
            np.zeros(0, dtype=bool),
            assoc,
        )
        assert hits.size == victims.size == victim_dirty.size == 0
        assert end_lines.size == end_dirty.size == 0


class TestUndecided:
    @settings(max_examples=40, deadline=None)
    @given(
        hot=st.integers(min_value=0, max_value=1 << 10),
        assoc=st.sampled_from([3, 4, 8]),
        extra=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    def test_interleaved_window_repeats(self, hot, assoc, extra, data):
        """``A B A C A D ...`` in one fully associative set: every window
        holds A twice, so the first eviction is undecided."""
        fresh = hot + 1 + np.arange(assoc + extra)
        lines = np.empty(2 * fresh.size, dtype=np.int64)
        lines[0::2] = hot
        lines[1::2] = fresh
        writes = data.draw(write_flags(lines.size))
        assert not check(lines, writes, 1, assoc)

    def test_llc_set_ends_in_short_cycle(self):
        """Lines 0..19 cycled through a 16-set direct-mapped L1: only the
        lines of the four two-line L1 sets keep missing, so LLC set 0
        sees 0 4 8 12 16 once and then 0 16 0 16 ...  Its last four
        accesses repeat lines, so the end state is undecided."""
        lines = np.arange(100) % 20
        writes = np.zeros(lines.size, dtype=bool)
        assert check_both_levels(lines, writes, 16, 1) == (True, False)

    @settings(max_examples=80, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=48), max_size=300),
        geometry=geometries,
        data=st.data(),
    )
    def test_random_traces(self, lines, geometry, data):
        """Random reuse reaches either branch; decided passes must match."""
        writes = data.draw(write_flags(len(lines)))
        check_both_levels(lines, writes, *geometry)

    @settings(max_examples=40, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=24), max_size=200),
        assoc=st.sampled_from([2, 4, 8, 16]),
        data=st.data(),
    )
    def test_fully_associative(self, lines, assoc, data):
        writes = data.draw(write_flags(len(lines)))
        check_both_levels(lines, writes, 1, assoc)


@pytest.fixture(scope="class")
def default_grid():
    """The default ``cachesweep`` grid, its timing constants, the four
    workload traces and the oracle's rows for each."""
    socs = default_geometry_grid()
    params = TimingParameters()
    traces = {name: build() for name, build in WORKLOADS.items()}
    rows = {
        name: [oracle.sweep_row(trace, soc, params, 2.0) for soc in socs]
        for name, trace in traces.items()
    }
    return socs, params, traces, rows


def sweep_rows(trace, socs, params):
    stats, timings = batch.sweep_batch(trace, socs, params=params)
    return [_sweep_row(soc, s, t, 2.0) for soc, s, t in zip(socs, stats, timings)]


class TestSweepDependsOnKernel:
    def test_default_grid_never_falls_back(self, monkeypatch, default_grid):
        """Every pass of the benchmark's sweep is decided by the kernel:
        with the loop made to raise, the rows still equal the oracle's."""

        def no_loop(*args):
            raise AssertionError("LRU pass fell back to the loop")

        monkeypatch.setattr(batch, "_lru_loop", no_loop)
        socs, params, traces, want = default_grid
        for name, trace in traces.items():
            assert sweep_rows(trace, socs, params) == want[name], name

    def test_set_order_shared_across_associativities(
        self, monkeypatch, default_grid
    ):
        """The grid's 30 LRU passes build 20 set orders, one per stream
        and set count: its L1s have 128 or 256 sets and its LLCs 2048 or
        4096, so the L1 passes of the four traces build 4 x 2, and the
        LLC passes over their six distinct L1 event streams build 6 x 2.
        The rows still equal the oracle's."""
        set_counts = []
        passes = []
        set_order, lru = batch._set_order, batch._lru

        def set_order_spy(lines, num_sets):
            set_counts.append(num_sets)
            return set_order(lines, num_sets)

        def lru_spy(so, flags, assoc):
            passes.append((so.num_sets, assoc))
            return lru(so, flags, assoc)

        monkeypatch.setattr(batch, "_set_order", set_order_spy)
        monkeypatch.setattr(batch, "_lru", lru_spy)
        socs, params, traces, want = default_grid
        for name, trace in traces.items():
            assert sweep_rows(trace, socs, params) == want[name], name
        assert len(passes) == 30
        assert Counter(set_counts) == {128: 4, 256: 4, 2048: 6, 4096: 6}

    def test_clocks_shared_by_llc_fetch_outcomes(self, monkeypatch):
        """Two LLC sizes with equal fetch outcomes share one clock loop;
        one whose outcomes differ gets its own.  All match the oracle."""
        calls = []
        clock = batch._timing_clock

        def spy(*args):
            calls.append(args[2])  # fetch_hits
            return clock(*args)

        monkeypatch.setattr(batch, "_timing_clock", spy)
        # 192 lines read twice: the second pass misses the 1 kB L1, hits
        # the 64 kB LLC, and misses the 4 kB LLC (it holds only 64).
        lines = np.tile(np.arange(192), 2)
        trace = MemoryTrace(
            addresses=(lines * CACHE_LINE_BYTES).astype(np.uint64),
            is_write=np.zeros(lines.size, dtype=bool),
        )
        l1 = CacheConfig(size_bytes=1024, associativity=2)
        socs = [
            SocConfig(l1=l1, l2=CacheConfig(size_bytes=size, associativity=4))
            for size in (4096, 8192, 65536)
        ]
        simulators = [TimingSimulator(soc, TimingParameters()) for soc in socs]
        got = batch.replay_timing_batch(trace, simulators)
        want = [
            oracle.TimingSimulator(soc, TimingParameters()).replay_fast(trace)
            for soc in socs
        ]
        assert got == want
        assert got[0] == got[1] != got[2]
        # The 4 kB and 8 kB LLCs miss every fetch and share one loop.
        assert len(calls) == 2
        assert not any(calls[0]) and all(calls[1][192:])
