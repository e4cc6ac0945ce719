"""Tests for the multicore sharded sweep path (PR 8).

The contract under test is bit-identity: a sweep sharded across worker
processes — each memory-mapping the same on-disk trace artifact — must
produce exactly the rows, stats, timings, and published counters of the
single-process batched engine, and both must equal the serial oracles
(``tests/sim/oracle.py``).  A shard worker that dies fails the sweep.

Pool-spinning tests are kept to a minimum (one happy path, one killed
worker, one workload fan-out) because process pools dominate test wall
time; the bit-identity property itself is exercised in-process via
:class:`ShardEvaluator`, which is exactly what the workers run.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.runner as runner
from repro.config import CacheConfig, SocConfig, soc_cache_label
from repro.core.memo import MemoCache
from repro.core.runner import ConfigSweep
from repro.obs import get_recorder, recording
from repro.sim.artifact import TraceArtifact
from repro.sim.batch import (
    ShardEvaluator,
    plan_shards,
    publish_sweep_plan,
    sweep_batch,
)
from repro.sim.timing import TimingParameters
from repro.sim.trace import MemoryTrace
from tests.sim import oracle

# L1 geometries deliberately collide across some SoCs so shard planning
# has real sharing groups to preserve.
_L1S = [
    CacheConfig(size_bytes=512, associativity=1),
    CacheConfig(size_bytes=1024, associativity=2),
    CacheConfig(size_bytes=2048, associativity=4),
]
_L2S = [
    CacheConfig(size_bytes=2048, associativity=2),
    CacheConfig(size_bytes=4096, associativity=4),
    CacheConfig(size_bytes=8192, associativity=8),
]
_GRID = [
    SocConfig(l1=l1, l2=l2) for l1 in _L1S for l2 in _L2S
    if l2.size_bytes > l1.size_bytes
]


def make_trace(length: int = 600, seed: int = 0) -> MemoryTrace:
    rng = np.random.default_rng(seed)
    return MemoryTrace(
        addresses=rng.integers(0, 1 << 14, length, dtype=np.uint64),
        is_write=rng.random(length) < 0.3,
    )


def make_saved_artifact(tmp_path, seed: int = 0) -> TraceArtifact:
    artifact = TraceArtifact.from_trace(make_trace(seed=seed), workload="unit")
    artifact.save(tmp_path / "unit.trace")
    return artifact


class TestPlanShards:
    def items(self, socs):
        return [(i, soc_cache_label(s), s) for i, s in enumerate(socs)]

    def test_covers_every_item_exactly_once(self):
        items = self.items(_GRID)
        for jobs in (1, 2, 3, 5, 64):
            shards = plan_shards(items, jobs)
            flat = sorted(item[0] for shard in shards for item in shard)
            assert flat == list(range(len(items)))

    def test_deterministic(self):
        items = self.items(_GRID)
        assert plan_shards(items, 3) == plan_shards(items, 3)

    def test_groups_by_l1_geometry(self):
        # With as many slots as distinct L1s, each shard holds exactly
        # one L1 group, so no worker duplicates an L1 pass.
        items = self.items(_GRID)
        shards = plan_shards(items, len(_L1S))
        assert len(shards) == len(_L1S)
        for shard in shards:
            keys = {(item[2].l1.size_bytes, item[2].l1.associativity)
                    for item in shard}
            assert len(keys) == 1

    def test_splits_largest_groups_for_extra_slots(self):
        items = self.items(_GRID)
        shards = plan_shards(items, len(_L1S) + 2)
        assert len(shards) == len(_L1S) + 2
        flat = sorted(item[0] for shard in shards for item in shard)
        assert flat == list(range(len(items)))

    def test_never_exceeds_item_count(self):
        items = self.items(_GRID[:2])
        assert len(plan_shards(items, 16)) <= 2
        assert plan_shards([], 4) == []

    def test_single_job_single_shard_when_one_group(self):
        socs = [s for s in _GRID if s.l1 == _L1S[0]]
        shards = plan_shards(self.items(socs), 1)
        assert len(shards) == 1


class TestShardBitIdentity:
    """Sharded evaluation == single-process batched == serial, on the
    full stats and timing objects, for arbitrary traces and plans."""

    @settings(max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=16, max_value=400),
        write_pct=st.floats(min_value=0.0, max_value=1.0),
        n_socs=st.integers(min_value=1, max_value=len(_GRID)),
        jobs=st.integers(min_value=1, max_value=6),
    )
    def test_sharded_equals_batched_equals_serial(
        self, seed, length, write_pct, n_socs, jobs
    ):
        rng = np.random.default_rng(seed)
        trace = MemoryTrace(
            addresses=rng.integers(0, 1 << 13, length, dtype=np.uint64),
            is_write=rng.random(length) < write_pct,
        )
        socs = _GRID[:n_socs]

        serial_stats = [
            oracle.CacheHierarchy(soc).replay_fast(trace) for soc in socs
        ]
        serial_timings = [
            oracle.TimingSimulator(soc).replay_fast(trace) for soc in socs
        ]
        batched_stats, batched_timings = sweep_batch(trace, socs)

        items = [(i, soc_cache_label(s), s) for i, s in enumerate(socs)]
        shard_stats = [None] * len(socs)
        shard_timings = [None] * len(socs)
        for shard in plan_shards(items, jobs):
            evaluator = ShardEvaluator(trace)
            stats, timings = evaluator.evaluate([it[2] for it in shard])
            for (index, _, _), s, t in zip(shard, stats, timings):
                shard_stats[index] = s
                shard_timings[index] = t

        assert batched_stats == serial_stats
        assert batched_timings == serial_timings
        assert shard_stats == serial_stats
        assert shard_timings == serial_timings

    def test_counter_parity_with_publish_sweep_plan(self):
        """Worker-published per-config counters plus the parent's one
        ``publish_sweep_plan`` call reproduce ``sweep_batch``'s registry
        exactly — the counter-ownership split behind sharded parity.
        The trace is artifact-backed, as in production: its run columns
        arrive prepopulated, so every engine records a shared-trace hit,
        matching the parent's ``shared=True`` plan record."""
        trace = TraceArtifact.from_trace(make_trace(), workload="unit").trace()
        socs = [s for s in _GRID if s.l2 == _L2S[2]]  # shared L1 group
        socs = socs + [SocConfig(l1=_L1S[0], l2=_L2S[1])]
        with recording() as batched_obs:
            sweep_batch(trace, socs)
        batched = batched_obs.counters.as_dict()

        items = [(i, soc_cache_label(s), s) for i, s in enumerate(socs)]
        with recording() as sharded_obs:
            num_runs = None
            for shard in plan_shards(items, 2):
                evaluator = ShardEvaluator(trace)
                evaluator.evaluate([it[2] for it in shard])
                num_runs = evaluator.outcomes.num_runs
            publish_sweep_plan(get_recorder(), len(socs), num_runs)
        sharded = sharded_obs.counters.as_dict()
        # Strict-mode validate.* counters tally how many times a check
        # *ran*, which scales with the number of evaluator instances —
        # an artifact of call structure, not of results.
        def strip(counters):
            return {
                k: v for k, v in counters.items()
                if not k.startswith("validate.")
            }

        assert strip(sharded) == strip(batched)


#: Two distinct L1 geometries, so a single-workload sweep shards.
_SWEEP_SOCS = [
    SocConfig(l1=CacheConfig(size_bytes=1024, associativity=2), l2=_L2S[1]),
    SocConfig(l1=CacheConfig(size_bytes=2048, associativity=4), l2=_L2S[2]),
]

_real_shard = runner._sweep_shard_in_worker


def _kill_first_shard(job):
    """Shard task whose ``shard-0`` worker dies by SIGKILL mid-sweep."""
    if job[0] == "shard-0":
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_shard(job)


class TestParallelConfigSweep:
    def socs(self):
        return _GRID[:4]

    def test_parallel_rows_and_counters_match_batched(self, tmp_path):
        artifact = make_saved_artifact(tmp_path)
        socs = self.socs()
        with recording() as one_obs:
            one = ConfigSweep(artifact).evaluate(socs, jobs=1)
        with recording() as many_obs:
            many = ConfigSweep(artifact).evaluate(socs, jobs=2)
        assert many.rows == one.rows
        serial = [
            oracle.sweep_row(artifact.trace(), soc, TimingParameters(), 2.0)
            for soc in socs
        ]
        assert many.rows == serial

        # validate.* strict-check counters scale with how many evaluator
        # instances ran the checks, not with results — skip them too.
        skip = ("sim.artifact.", "core.runner.", "validate.")
        def published(obs):
            return {
                k: v for k, v in obs.counters.as_dict().items()
                if not k.startswith(skip)
            }
        assert published(many_obs) == published(one_obs)
        many_counters = many_obs.counters.as_dict()
        assert many_counters["core.runner.parallel_batches"] == 1
        assert many_counters["core.runner.pool_workers"] == 2

    def test_killed_shard_worker_fails_the_sweep(
        self, tmp_path, monkeypatch
    ):
        """A SIGKILLed shard worker surfaces as ``BrokenProcessPool`` from
        the sweep, and no partial document reaches the memo cache."""
        from repro.analysis.cachesweep import sweep_all
        from repro.sim.artifact import TraceStore

        monkeypatch.setattr(runner, "_sweep_shard_in_worker", _kill_first_shard)
        name = "chrome.compositing_tiled"
        store = TraceStore(tmp_path / "traces")
        cache = MemoCache(tmp_path / "memo")
        with pytest.raises(BrokenProcessPool):
            sweep_all([name], socs=_SWEEP_SOCS, store=store, cache=cache, jobs=2)
        cache.close()
        assert not list((tmp_path / "memo").glob("*.seg"))

        monkeypatch.undo()
        cache = MemoCache(tmp_path / "memo")
        with recording() as obs:
            sweep_all([name], socs=_SWEEP_SOCS, store=store, cache=cache, jobs=1)
        cache.close()
        assert obs.counters.get("core.memo.hits") == 0
        assert obs.counters.get("core.memo.misses") == 1


class TestInnerJobsAllocation:
    """``--workload all --jobs N`` must not idle surplus cores."""

    def test_surplus_jobs_spread_deterministically(self):
        from repro.analysis.cachesweep import plan_inner_jobs

        assert plan_inner_jobs(8, 3) == [3, 3, 2]
        assert plan_inner_jobs(9, 3) == [3, 3, 3]
        assert plan_inner_jobs(3, 3) == [1, 1, 1]
        assert plan_inner_jobs(2, 4) == [1, 1, 1, 1]
        assert plan_inner_jobs(1, 1) == [1]
        assert plan_inner_jobs(7, 2) == [4, 3]

    def test_budget_is_used_never_exceeded_by_more_than_rounding(self):
        from repro.analysis.cachesweep import plan_inner_jobs

        for jobs in range(1, 33):
            for n in range(1, 9):
                plan = plan_inner_jobs(jobs, n)
                assert len(plan) == n
                assert all(inner >= 1 for inner in plan)
                assert sum(plan) == max(jobs, n)
                # Deterministic remainder spread: non-increasing by index.
                assert plan == sorted(plan, reverse=True)

    def test_fanout_jobs_carry_allocation_to_workers(self, monkeypatch):
        """The dispatched job tuples carry the per-workload inner-jobs
        split, so surplus jobs reach each workload's sharded engine."""
        import repro.core.resilience as resilience
        from repro.analysis.cachesweep import sweep_all

        captured = {}

        class _CaptureMap:
            def __init__(self, fn, items, jobs=1, initializer=None, initargs=()):
                captured["items"] = list(items)
                captured["jobs"] = jobs

            def run(self):
                return [{"workload": name} for name, _ in captured["items"]]

        monkeypatch.setattr(resilience, "ResilientMap", _CaptureMap)
        workloads = [
            "tensorflow.gemm_packed",
            "tensorflow.gemm_unpacked",
            "chrome.compositing_tiled",
        ]
        documents = sweep_all(workloads=workloads, socs=_GRID[:1], jobs=8)
        assert captured["jobs"] == 3  # outer fan-out: one per workload
        assert [item[1] for item in captured["items"]] == [3, 3, 2]
        assert [item[0] for item in captured["items"]] == workloads
        assert list(documents) == workloads


class TestSweepAllFanout:
    def test_parallel_workloads_match_serial(self, tmp_path):
        from repro.analysis.cachesweep import sweep_all
        from repro.sim.artifact import TraceStore

        workloads = ["tensorflow.gemm_packed", "chrome.compositing_tiled"]
        socs = _GRID[:2]
        serial = sweep_all(
            workloads=workloads, socs=socs,
            store=TraceStore(directory=tmp_path / "a"), jobs=1,
        )
        with recording() as obs:
            parallel = sweep_all(
                workloads=workloads, socs=socs,
                store=TraceStore(directory=tmp_path / "b"), jobs=2,
            )
        assert list(parallel) == workloads
        for name in workloads:
            assert parallel[name]["rows"] == serial[name]["rows"]
            assert parallel[name]["artifact"] == serial[name]["artifact"]
        counters = obs.counters.as_dict()
        assert counters["analysis.cachesweep.parallel_workloads"] == len(
            workloads
        )
