"""Differential tests: the NumPy LRU kernel and the first-use rule
against the OrderedDict loop.

:func:`repro.sim.batch._lru_kernel` decides each access of an LRU pass
from its set's recent window, or returns ``None`` when a window repeats
a line; :func:`repro.sim.batch._first_use` decides a pass in which no
set ever holds more lines than it has ways; :func:`repro.sim.batch._lru_loop`
steps the cache one access at a time.  Wherever the kernel decides, and
wherever no set overflows, every per-access hit, every dirty eviction
(its time and victim line) and the end state with its dirty bits must
equal the loop's; so must what :func:`repro.sim.batch._outcomes`, which
picks between them, yields.  Each stream is checked under both levels'
flag semantics: as an L1 pass (flags are writes on the access stream)
and as an LLC pass (flags mark the writeback-installs of the event
stream an L1 pass induces).

Each generator also asserts which branch it reaches — strided,
streaming, direct-mapped and empty access streams are decided, ``A B A
C A D ...`` interleavings and an LLC set that ends cycling over fewer
lines than it has ways are not — so both the kernel and the fallback
run on every invocation.  Set counts include non-powers of two, whose
set index is a ``%`` rather than a mask.  The last tests pin the ways
the sweep depends on the kernel: the default ``cachesweep`` grid never
falls back, only its passes that evict build a set order (one per
stream and set count), and timing clocks are shared exactly when LLC
fetch outcomes are.
"""

from __future__ import annotations

import tracemalloc
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
    """Kernel == loop wherever the kernel decides, first-use rule ==
    loop wherever no set overflows; True if the kernel decided."""
    lines = np.asarray(lines, dtype=np.int64)
    flags = np.asarray(flags, dtype=bool)
    want = batch._lru_loop(lines, flags, num_sets, assoc)
    uses = batch._line_uses(lines, flags)
    sets = uses.end_lines % num_sets
    if np.bincount(sets, minlength=1).max() <= assoc:
        assert outcomes_equal(batch._first_use(uses, sets), want)
    set_order = batch._set_order(lines, num_sets)
    got = batch._lru_kernel(set_order, flags, assoc)
    if got is not None:
        assert outcomes_equal(got, want)
    assert outcomes_equal(batch._lru(set_order, flags, assoc), want)
    [(key, outcome)] = batch._outcomes(lines, flags, {num_sets: {assoc}})
    assert key == (num_sets, assoc) and outcomes_equal(outcome, want)
    return got is not None


def check_both_levels(lines, writes, num_sets, assoc):
    """(decided as an L1 pass, decided as an LLC pass) for one stream."""
    as_l1 = check(lines, writes, num_sets, assoc)
    ev_lines, ev_is_wb = l1_events(lines, writes, num_sets, assoc)
    as_llc = check(ev_lines, ev_is_wb, *LLC_GEOMETRY)
    return as_l1, as_llc


geometries = st.tuples(
    st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16]), st.sampled_from([1, 2, 3, 4, 8])
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
        hits, wb_at, wb_lines, end_lines, end_dirty = batch._lru_kernel(
            batch._set_order(np.zeros(0, dtype=np.int64), num_sets),
            np.zeros(0, dtype=bool),
            assoc,
        )
        assert hits.size == wb_at.size == wb_lines.size == 0
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
        """The grid's 30 LRU passes build 6 set orders.  Its L1s have 128
        or 256 sets and its LLCs 2048 or 4096.  No set of an LLC pass
        ever holds more lines than it has ways (the six distinct L1
        event streams put at most 4 lines in a 2048-set LLC's set, which
        has 8 ways), and neither does a 256-set L1 over the two gemm
        traces (4 lines per set, 4 or 8 ways).  Those 22 passes never
        evict and are decided by first use, without a set order.  The
        other 8 run the kernel and build one set order per trace and set
        count: 128 sets for all four traces, 256 for the two compositing
        traces.  The rows still equal the oracle's."""
        set_counts = []
        passes = []
        kernel = []
        set_order, lru, outcomes = batch._set_order, batch._lru, batch._outcomes

        def set_order_spy(lines, num_sets):
            set_counts.append(num_sets)
            return set_order(lines, num_sets)

        def lru_spy(so, flags, assoc):
            kernel.append((so.num_sets, assoc))
            return lru(so, flags, assoc)

        def outcomes_spy(lines, flags, ways_by_sets):
            for key, outcome in outcomes(lines, flags, ways_by_sets):
                passes.append(key)
                yield key, outcome

        monkeypatch.setattr(batch, "_set_order", set_order_spy)
        monkeypatch.setattr(batch, "_lru", lru_spy)
        monkeypatch.setattr(batch, "_outcomes", outcomes_spy)
        socs, params, traces, want = default_grid
        for name, trace in traces.items():
            assert sweep_rows(trace, socs, params) == want[name], name
        assert len(passes) == 30
        assert Counter(kernel) == {(128, 4): 4, (256, 4): 2, (256, 8): 2}
        assert Counter(set_counts) == {128: 4, 256: 2}

    def test_sweep_memory_peak(self, default_grid):
        """One sweep over ``chrome.compositing_linear`` (32,768 runs) and
        the default grid, its line runs already built, allocates at most
        4 MiB at its peak (``tracemalloc``, which sees NumPy's buffers).
        Building a set order for every pass and returning per-access
        victim arrays from every pass peaked at 5.38 MiB; deciding the
        never-evicting passes by first use and returning only dirty
        evictions peaks at 3.00 MiB."""
        socs, params, traces, _ = default_grid
        trace = traces["chrome.compositing_linear"]
        trace.line_runs()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            batch.sweep_batch(trace, socs, params=params)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 4 << 20, "%.2f MiB" % (peak / (1 << 20))

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
