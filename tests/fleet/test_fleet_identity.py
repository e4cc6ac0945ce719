"""Property: a sweep sharded over pool workers is byte-identical to a serial sweep.

``sweep_all`` is driven with ``jobs > 1`` (the "fleet" of pool workers
each workload's geometries shard over) and with ``jobs=1`` over
Hypothesis-drawn workload subsets, geometry grids and job counts, and
the documents must agree byte for byte.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cachesweep import sweep_all, workload_names
from repro.config import CacheConfig, SocConfig
from repro.sim.artifact import TraceStore

_L1S = [
    CacheConfig(size_bytes=1024, associativity=2),
    CacheConfig(size_bytes=2048, associativity=4),
]
_L2S = [
    CacheConfig(size_bytes=4096, associativity=4),
    CacheConfig(size_bytes=8192, associativity=8),
]
GRID = [SocConfig(l1=l1, l2=l2) for l1 in _L1S for l2 in _L2S]


def canon(document) -> str:
    return json.dumps(document, sort_keys=True)


class TestFleetBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_fleet_matches_local_and_resumes(self, tmp_path_factory, data):
        names = data.draw(
            st.lists(
                st.sampled_from(workload_names()),
                min_size=1, max_size=2, unique=True,
            ),
            label="workloads",
        )
        socs = data.draw(
            st.lists(st.sampled_from(GRID), min_size=1, max_size=3, unique=True),
            label="socs",
        )
        jobs = data.draw(st.integers(min_value=2, max_value=4), label="jobs")
        base = tmp_path_factory.mktemp("pool-identity")

        local = sweep_all(
            names, socs=socs, store=TraceStore(base / "local"), jobs=1
        )
        pooled = sweep_all(
            names, socs=socs, store=TraceStore(base / "pooled"), jobs=jobs
        )
        assert canon(pooled) == canon(local)
