"""Fault suite for the cross-workload fan-out: real worker processes, real deaths.

``sweep_all`` with ``jobs > 1`` hands one workload to each pool worker
through :class:`~repro.core.resilience.ResilientMap`.  Every scenario
asserts the ResilientMap contract holds on that path: faults degrade or
retry exactly as they do for the runner's target sweeps, and whatever
survives is byte-identical to a serial single-process run.  The
"fleet" in the names is the set of pool workers a sweep fans out to.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.cachesweep import run_sweep, sweep_all
from repro.config import CacheConfig, SocConfig, soc_cache_label
from repro.core.memo import MemoCache
from repro.core.resilience import FAULT_PLAN_ENV, RetryPolicy
from repro.obs import recording
from repro.sim.artifact import TraceStore
from repro.validate import strict_mode

NAMES = ["tensorflow.gemm_unpacked", "chrome.compositing_linear"]
# Two distinct L1 geometries so the sharded path has >= 2 shards.
SOCS = [
    SocConfig(
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
    ),
    SocConfig(
        l1=CacheConfig(size_bytes=2048, associativity=4),
        l2=CacheConfig(size_bytes=8192, associativity=8),
    ),
]
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.05, jitter=0.0)


def canon(document) -> str:
    return json.dumps(document, sort_keys=True)


def install_plan(tmp_path, monkeypatch, faults: dict) -> None:
    """Write a fault plan; forked pool workers inherit the variable."""
    path = tmp_path / "fault-plan.json"
    path.write_text(json.dumps({"faults": faults}))
    monkeypatch.setenv(FAULT_PLAN_ENV, str(path))


@pytest.fixture
def local_docs(tmp_path):
    """The fault-free serial ground truth for NAMES x SOCS."""
    store = TraceStore(tmp_path / "local-traces")
    return sweep_all(NAMES, socs=SOCS, store=store, jobs=1)


class TestFleetFaults:
    def test_worker_killed_mid_sweep_retries_on_sibling(
        self, tmp_path, monkeypatch, local_docs
    ):
        install_plan(
            tmp_path, monkeypatch, {"tensorflow.gemm_unpacked": ["kill"]}
        )
        store = TraceStore(tmp_path / "pool-traces")
        with strict_mode(False), recording() as rec:
            documents = sweep_all(
                NAMES, socs=SOCS, store=store, jobs=2, retry_policy=FAST
            )
            assert rec.counters.get("core.resilience.retries") >= 1
        assert canon(documents) == canon(local_docs)

    def test_whole_fleet_dead_quarantines_and_degrades(
        self, tmp_path, monkeypatch
    ):
        # Every attempt of every workload SIGKILLs its worker.
        install_plan(
            tmp_path, monkeypatch,
            {name: ["kill"] * FAST.max_attempts for name in NAMES},
        )
        store = TraceStore(tmp_path / "pool-traces")
        with strict_mode(False), recording() as rec:
            documents = sweep_all(
                NAMES, socs=SOCS, store=store, jobs=2, retry_policy=FAST
            )
            assert rec.counters.get("core.resilience.quarantined") == len(NAMES)
        # Degraded aggregates: every workload contributes a failure
        # document instead of aborting or hanging the sweep.
        for name in NAMES:
            assert documents[name]["rows"] == []
            (failure,) = documents[name]["failures"]
            assert failure["config"] == "*"
            assert failure["attempts"] == FAST.max_attempts
            assert "BrokenProcessPool" in failure["error"]

    def test_hung_worker_times_out_and_requeues(
        self, tmp_path, monkeypatch, local_docs
    ):
        install_plan(
            tmp_path, monkeypatch, {"tensorflow.gemm_unpacked": ["hang:60"]}
        )
        store = TraceStore(tmp_path / "pool-traces")
        policy = RetryPolicy(
            max_attempts=3, backoff_base_s=0.05, jitter=0.0, timeout_s=3.0
        )
        with strict_mode(False), recording() as rec:
            documents = sweep_all(
                NAMES, socs=SOCS, store=store, jobs=2, retry_policy=policy
            )
            assert rec.counters.get("core.resilience.timeouts") >= 1
        assert canon(documents) == canon(local_docs)

    def test_shared_cache_short_circuits_second_client(
        self, tmp_path, monkeypatch, local_docs
    ):
        name = "tensorflow.gemm_unpacked"
        cache_dir = tmp_path / "shared-cache"

        # Client 1 computes over the pool and publishes to the shared
        # cache directory.
        cache = MemoCache(cache_dir)
        with recording() as rec:
            first = run_sweep(
                name, socs=SOCS, store=TraceStore(tmp_path / "traces"),
                jobs=2, retry_policy=FAST, cache=cache,
            )
            assert rec.counters.get("core.memo.puts") >= 1
        cache.close()
        assert canon(first) == canon(local_docs[name])

        # From here on every shard and every geometry fails, in a pool
        # worker or in-process; a second client still gets the first
        # client's document, because the cache answers before any job
        # is dispatched.
        targets = ["shard-0", "shard-1"] + [soc_cache_label(s) for s in SOCS]
        install_plan(
            tmp_path, monkeypatch,
            {target: ["raise:dispatched"] * 9 for target in targets},
        )
        cache = MemoCache(cache_dir)
        with recording() as rec:
            second = run_sweep(
                name, socs=SOCS, store=TraceStore(tmp_path / "traces"),
                jobs=2, retry_policy=FAST, cache=cache,
            )
            assert rec.counters.get("core.memo.hits") >= 1
            assert "core.resilience.retries" not in rec.counters
        cache.close()
        assert canon(second) == canon(first)
