"""Property: a sweep fanned out over pool workers is byte-identical to a serial sweep.

``sweep_all`` is driven with ``jobs > 1`` (the "fleet" of pool workers)
and with ``jobs=1`` over Hypothesis-drawn workload subsets, geometry
grids and job counts.  The contract covers the documents, the
checkpoint journals the pooled run writes, and a serial ``--resume``
from those journals.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cachesweep import sweep_all, workload_names
from repro.config import CacheConfig, SocConfig
from repro.core.resilience import RetryPolicy, SweepCheckpoint, sweep_key
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
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.05, jitter=0.0)


def canon(document) -> str:
    return json.dumps(document, sort_keys=True)


def canon_data(documents) -> str:
    """Canon minus the ``batched`` engine-provenance flag.

    A fully-resumed sweep reports ``batched: false`` (rows came from the
    journal, not the batch engine), so the resume comparison covers the
    data: artifact, rows, failures.
    """
    return json.dumps(
        {
            name: {k: v for k, v in doc.items() if k != "batched"}
            for name, doc in documents.items()
        },
        sort_keys=True,
    )


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
        checkpoint = str(base / "sweep.ckpt")
        pooled = sweep_all(
            names, socs=socs, store=TraceStore(base / "pooled"),
            jobs=jobs, retry_policy=FAST, checkpoint=checkpoint,
        )
        assert canon(pooled) == canon(local)

        # The journals the pooled run wrote resume a serial run to the
        # same bytes: checkpoint/resume semantics ignore the job count.
        resumed = sweep_all(
            names, socs=socs, store=TraceStore(base / "pooled"),
            jobs=1, retry_policy=FAST, checkpoint=checkpoint, resume=True,
        )
        assert canon_data(resumed) == canon_data(local)

    def test_fleet_checkpoint_matches_local_checkpoint(self, tmp_path):
        """The journal entries themselves, not just the documents, agree."""
        from repro.sim.timing import TimingParameters

        names = [workload_names()[0]]
        # Two distinct L1 geometries, so the single-workload path shards
        # across the pool (one shard per L1 group) instead of staying
        # in-process.
        socs = [GRID[0], GRID[3]]
        local_ckpt = str(tmp_path / "local.ckpt")
        pooled_ckpt = str(tmp_path / "pooled.ckpt")

        local = sweep_all(
            names, socs=socs, store=TraceStore(tmp_path / "local"), jobs=1,
            retry_policy=FAST, checkpoint=local_ckpt,
        )
        pooled = sweep_all(
            names, socs=socs, store=TraceStore(tmp_path / "pooled"),
            jobs=2, retry_policy=FAST, checkpoint=pooled_ckpt,
        )
        assert canon(pooled) == canon(local)

        # The same journal key ConfigSweep derives for this sweep.
        artifact = local[names[0]]["artifact"]
        key = "%s:%s" % (artifact, sweep_key((TimingParameters(), 2.0)))
        local_journal = SweepCheckpoint(local_ckpt, key=key)
        pooled_journal = SweepCheckpoint(pooled_ckpt, key=key)
        try:
            local_entries = local_journal.entries()
            pooled_entries = pooled_journal.entries()
        finally:
            local_journal.close()
            pooled_journal.close()
        assert local_entries
        assert canon(pooled_entries) == canon(local_entries)
