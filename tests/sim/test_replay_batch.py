"""Property tests: config-batched replay is bit-identical to serial.

:func:`repro.sim.batch.replay_batch` evaluates N cache configurations
over one shared run stream; these tests drive random traces through
random config batches and require every per-config result — stats,
flush traffic, published counters, timing clocks — to match the serial
line-run ``replay_fast`` oracle (``tests/sim/oracle.py``) exactly.
Bit-identity (not closeness) is the contract: the batched engine is
the only production replay, so the oracle is what pins its numbers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, SocConfig
from repro.obs import recording
from repro.sim.batch import ShardEvaluator, replay_batch, replay_timing_batch
from repro.sim.timing import TimingParameters, TimingSimulator
from repro.sim.trace import MemoryTrace, TraceRecorder
from repro.workloads.chrome.texture import compositing_trace
from repro.workloads.tensorflow.access_patterns import gemm_lhs_trace
from tests.sim import oracle

#: Deliberately small, deliberately *heterogeneous* geometries: different
#: set counts (including 12 and 48, which are not powers of two),
#: associativities (including direct-mapped), and LLC sizes, so batched
#: planes are padded and per-config indexing bugs surface.
GEOMETRIES = [
    (512, 2, 2048, 2),
    (1024, 1, 4096, 2),
    (1024, 2, 4096, 4),
    (2048, 4, 8192, 8),
    (4096, 4, 16384, 4),
    (1536, 2, 12288, 4),
]


def make_soc(l1_bytes, l1_assoc, llc_bytes, llc_assoc) -> SocConfig:
    return SocConfig(
        l1=CacheConfig(size_bytes=l1_bytes, associativity=l1_assoc),
        l2=CacheConfig(size_bytes=llc_bytes, associativity=llc_assoc),
    )


soc_batches = st.lists(
    st.sampled_from(GEOMETRIES), min_size=1, max_size=4
).map(lambda geos: [make_soc(*g) for g in geos])

address_lists = st.lists(
    st.integers(min_value=0, max_value=1 << 14), min_size=0, max_size=300
)


def make_trace(addresses, writes) -> MemoryTrace:
    return MemoryTrace(
        addresses=np.array(addresses, dtype=np.uint64),
        is_write=np.array(writes, dtype=bool),
    )


class TestCacheBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(addresses=address_lists, socs=soc_batches, data=st.data())
    def test_bit_identical_to_serial(self, addresses, socs, data):
        writes = [data.draw(st.booleans()) for _ in addresses]
        flush = data.draw(st.booleans())
        serial = [
            oracle.CacheHierarchy(soc).replay_fast(
                make_trace(addresses, writes), flush=flush
            )
            for soc in socs
        ]
        batch = replay_batch(make_trace(addresses, writes), socs, flush=flush)
        assert batch == serial

    @settings(max_examples=20, deadline=None)
    @given(
        stride=st.integers(min_value=1, max_value=4096),
        count=st.integers(min_value=1, max_value=150),
        socs=soc_batches,
    )
    def test_strided_traces(self, stride, count, socs):
        def rec_trace():
            rec = TraceRecorder(granularity=8)
            for i in range(count):
                rec.read(i * stride, 64)
            return rec.trace()

        serial = [oracle.CacheHierarchy(soc).replay_fast(rec_trace()) for soc in socs]
        assert replay_batch(rec_trace(), socs) == serial

    def test_duplicate_configs_get_identical_results(self):
        rng = np.random.default_rng(3)
        trace = make_trace(
            rng.integers(0, 1 << 13, 400, dtype=np.uint64),
            rng.random(400) < 0.3,
        )
        soc = make_soc(*GEOMETRIES[0])
        out = replay_batch(trace, [soc, soc, soc])
        assert out[0] == out[1] == out[2]

    def test_empty_config_list(self):
        assert replay_batch(make_trace([0, 64], [False, True]), []) == []

    def test_empty_trace(self):
        socs = [make_soc(*g) for g in GEOMETRIES[:2]]
        serial = [oracle.CacheHierarchy(s).replay_fast(make_trace([], [])) for s in socs]
        assert replay_batch(make_trace([], []), socs) == serial

    def test_strict_mode_passes_on_valid_trace(self):
        rng = np.random.default_rng(5)
        trace = make_trace(
            rng.integers(0, 1 << 12, 300, dtype=np.uint64),
            rng.random(300) < 0.5,
        )
        socs = [make_soc(*g) for g in GEOMETRIES]
        serial = [
            oracle.CacheHierarchy(s).replay_fast(
                make_trace(trace.addresses, trace.is_write), strict=True
            )
            for s in socs
        ]
        assert replay_batch(trace, socs, strict=True) == serial

    def test_instructions_hint_forwarded(self):
        trace = make_trace([0, 4096, 8192], [True, True, True])
        soc = make_soc(*GEOMETRIES[0])
        serial = oracle.CacheHierarchy(soc).replay_fast(
            make_trace(trace.addresses, trace.is_write), instructions_hint=123.0
        )
        batch = replay_batch(trace, [soc], instructions_hint=123.0)[0]
        assert batch == serial
        assert batch.instructions_hint == 123.0


class TestBatchFlush:
    """Each config's flush runs on copies; the shared passes stay intact.

    The sweep workloads' traces are read-only and never dirty a line,
    so this write-heavy trace is what drives the flush: dirty L1 lines
    whose writeback installs evict dirty LLC lines.
    """

    def test_flush_leaves_shared_passes_intact(self):
        rng = np.random.default_rng(7)
        # One hot line per L1 set, each followed by a stream line of the
        # same LLC set: the hot lines stay in the L1 while the stream
        # pushes them out of the LLC behind its own dirty lines.
        hot = np.arange(1000) % 4
        stream = rng.integers(1, 1 << 10, 1000) * 16 + hot
        addresses = np.empty(2000, dtype=np.uint64)
        addresses[0::2] = hot * 64
        addresses[1::2] = stream * 64
        writes = rng.random(2000) < 0.7
        a = make_soc(*GEOMETRIES[0])
        # Same L1 geometry as A, another LLC: B shares A's L1 pass.
        b = make_soc(*GEOMETRIES[0][:2], *GEOMETRIES[1][2:])
        socs = [a, a, b]
        serial = [
            oracle.CacheHierarchy(soc).replay_fast(make_trace(addresses, writes))
            for soc in socs
        ]

        # Serially, the L1 half of the flush alone evicts dirty LLC lines.
        hierarchy = oracle.CacheHierarchy(a)
        hierarchy.replay_fast(make_trace(addresses, writes), flush=False)
        writes_before = hierarchy.dram_line_writes
        l1 = hierarchy.l1
        for set_idx, lines in enumerate(l1._sets):
            for tag, dirty in list(lines.items()):
                if dirty:
                    hierarchy._llc_install_writeback(
                        tag * l1.config.num_sets + set_idx
                    )
        assert hierarchy.dram_line_writes > writes_before

        evaluator = ShardEvaluator(make_trace(addresses, writes))
        outcomes = evaluator.outcomes
        outcomes.run_passes(socs)
        l1_passes = list(outcomes._l1.values())
        llc_passes = list(outcomes._llc.values())
        assert (len(l1_passes), len(llc_passes)) == (1, 2)
        before = (
            [list(p.dirty_lines) for p in l1_passes],
            [[od.copy() for od in p.sets] for p in llc_passes],
        )
        stats, _ = evaluator.evaluate(socs)
        assert stats == serial
        unflushed = replay_batch(make_trace(addresses, writes), socs, flush=False)
        for flushed, plain in zip(stats, unflushed):
            assert flushed.dram_line_writes > plain.dram_line_writes
        after = (
            [p.dirty_lines for p in l1_passes],
            [p.sets for p in llc_passes],
        )
        assert after == before
        for llc_pass in llc_passes:
            assert llc_pass.dirty == sum(
                sum(od.values()) for od in llc_pass.sets
            )


class TestTimingBatchEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        addresses=address_lists,
        socs=soc_batches,
        mshrs=st.integers(min_value=1, max_value=8),
        dram_cycles=st.integers(min_value=1, max_value=400),
        issue_interval=st.sampled_from([0.0, 0.3, 5.0, 7.1])
        | st.floats(min_value=0.0, max_value=50.0),
        instructions_per_access=st.sampled_from([0.1, 1.5, 2.0])
        | st.floats(min_value=0.01, max_value=8.0),
        strict=st.booleans(),
        data=st.data(),
    )
    def test_bit_identical_to_serial(
        self, addresses, socs, mshrs, dram_cycles, issue_interval,
        instructions_per_access, strict, data,
    ):
        """Clocks match the oracle's bit for bit also where they are not
        integers: a fractional issue gap or DRAM issue interval (0.3 and
        7.1 are not binary fractions) exposes any change in the order
        the clock's float expressions round; interval 0.0 makes DRAM
        completions tie."""
        writes = [data.draw(st.booleans()) for _ in addresses]
        params = TimingParameters(
            mshrs=mshrs,
            dram_cycles=dram_cycles,
            dram_issue_interval_cycles=issue_interval,
        )
        serial = [
            oracle.TimingSimulator(soc, params).replay_fast(
                make_trace(addresses, writes), instructions_per_access, strict
            )
            for soc in socs
        ]
        batch = replay_timing_batch(
            make_trace(addresses, writes),
            [TimingSimulator(soc, params) for soc in socs],
            instructions_per_access,
            strict,
        )
        assert batch == serial

    @settings(max_examples=20, deadline=None)
    @given(addresses=address_lists, data=st.data())
    def test_heterogeneous_parameters(self, addresses, data):
        """Each simulator may carry its own latency/MSHR parameters."""
        writes = [data.draw(st.booleans()) for _ in addresses]
        configs = [
            (make_soc(*GEOMETRIES[0]), TimingParameters(mshrs=1)),
            (
                make_soc(*GEOMETRIES[3]),
                TimingParameters(dram_cycles=333, dram_issue_interval_cycles=0.0),
            ),
            (make_soc(*GEOMETRIES[1]), TimingParameters(llc_hit_cycles=7)),
        ]
        serial = [
            oracle.TimingSimulator(soc, params).replay_fast(
                make_trace(addresses, writes)
            )
            for soc, params in configs
        ]
        batch = replay_timing_batch(
            make_trace(addresses, writes),
            [TimingSimulator(soc, params) for soc, params in configs],
        )
        assert batch == serial

    def test_strict_mode(self):
        rng = np.random.default_rng(11)
        trace = make_trace(
            rng.integers(0, 1 << 13, 500, dtype=np.uint64),
            rng.random(500) < 0.3,
        )
        socs = [make_soc(*g) for g in GEOMETRIES]
        params = TimingParameters(mshrs=2)
        serial = [
            oracle.TimingSimulator(s, params).replay_fast(
                make_trace(trace.addresses, trace.is_write), strict=True
            )
            for s in socs
        ]
        batch = replay_timing_batch(
            trace, [TimingSimulator(s, params) for s in socs], strict=True
        )
        assert batch == serial

    def test_empty_simulator_list(self):
        assert replay_timing_batch(make_trace([0], [False]), []) == []


class TestBatchCounters:
    def test_batch_publishes_own_counters(self):
        rng = np.random.default_rng(2)
        trace = make_trace(
            rng.integers(0, 1 << 12, 200, dtype=np.uint64),
            rng.random(200) < 0.2,
        )
        socs = [make_soc(*g) for g in GEOMETRIES[:3]]
        with recording() as obs:
            replay_batch(trace, socs)
        counters = obs.counters.as_dict()
        assert counters["sim.replay_batch.batches"] == 1
        assert counters["sim.replay_batch.configs"] == 3
        assert counters["sim.replay_batch.runs"] == len(trace.line_runs()[0])
        # Per-config replay bookkeeping matches a 3-config serial sweep.
        assert counters["sim.cache.replays"] == 3
        assert counters["sim.cache.trace_accesses"] == 3 * len(trace)

    def test_shared_trace_hits_counts_memoized_runs(self):
        rng = np.random.default_rng(4)
        trace = make_trace(
            rng.integers(0, 1 << 12, 100, dtype=np.uint64),
            rng.random(100) < 0.2,
        )
        socs = [make_soc(*g) for g in GEOMETRIES[:2]]
        with recording() as obs:
            replay_batch(trace, socs)  # first call materializes the runs
            replay_batch(trace, socs)  # second call reuses the memo
        counters = obs.counters.as_dict()
        assert counters["sim.replay_batch.shared_trace_hits"] == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gemm_lhs_trace(m=96, k=256, n_blocks=3, packed=True),
            lambda: compositing_trace(width=256, height=128, tiled=True),
        ],
        ids=["gemm_packed", "compositing_tiled"],
    )
    def test_observing_layers_do_not_perturb_replay(self, build):
        """Recording counters and arming strict checks, alone or
        together, leave every replayed statistic unchanged."""
        trace = build()
        socs = [SocConfig()]
        bare = replay_batch(trace, socs, strict=False)
        with recording():
            assert replay_batch(trace, socs, strict=False) == bare
        assert replay_batch(trace, socs, strict=True) == bare
        with recording():
            assert replay_batch(trace, socs, strict=True) == bare

    def test_rejects_lines_beyond_int64(self):
        # uint64 byte addresses cap line numbers at 2**58, so forge an
        # exotic run stream through the memo cache to exercise the guard.
        trace = make_trace([0], [False])
        trace._line_runs_cache[64] = (
            np.array([1 << 63], dtype=np.uint64),
            np.array([1], dtype=np.int64),
            np.array([False]),
        )
        with pytest.raises(ValueError, match="2\\*\\*63"):
            replay_batch(trace, [make_soc(*GEOMETRIES[0])])
