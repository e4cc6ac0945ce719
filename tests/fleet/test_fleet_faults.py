"""Shared-cache behaviour of the cross-workload fan-out.

``run_sweep`` answers from a shared memo cache before it dispatches any
pool job, so a second client over the same cache directory gets the
first client's document even when every sweep path would fail.  The
"fleet" in the names is the set of pool workers a sweep fans out to.
"""

from __future__ import annotations

import json

import pytest

import repro.core.runner as runner
from repro.analysis.cachesweep import run_sweep, sweep_all
from repro.config import CacheConfig, SocConfig
from repro.core.memo import MemoCache
from repro.obs import recording
from repro.sim.artifact import TraceStore

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


def canon(document) -> str:
    return json.dumps(document, sort_keys=True)


@pytest.fixture
def local_docs(tmp_path):
    """The serial ground truth for NAMES x SOCS."""
    store = TraceStore(tmp_path / "local-traces")
    return sweep_all(NAMES, socs=SOCS, store=store, jobs=1)


class TestFleetFaults:
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
                jobs=2, cache=cache,
            )
            assert rec.counters.get("core.memo.puts") >= 1
        cache.close()
        assert canon(first) == canon(local_docs[name])

        # From here on every sweep path fails (sharded pool or
        # in-process); a second client still gets the first client's
        # document, because the cache answers before any job is
        # dispatched.
        def dispatched(self, socs, jobs=1):
            raise AssertionError("dispatched")

        monkeypatch.setattr(runner.ConfigSweep, "evaluate", dispatched)
        cache = MemoCache(cache_dir)
        with recording() as rec:
            second = run_sweep(
                name, socs=SOCS, store=TraceStore(tmp_path / "traces"),
                jobs=2, cache=cache,
            )
            assert rec.counters.get("core.memo.hits") >= 1
        cache.close()
        assert canon(second) == canon(first)
