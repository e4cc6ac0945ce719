"""Tests for :class:`repro.core.runner.ConfigSweep` and its wiring.

The sweep executor is a composition point: one shared trace artifact,
N geometries, one batched engine, memoization.  The core contract is
that its rows, in one process or sharded across workers, equal rows
built from the serial oracles (``tests/sim/oracle.py``), and that a
failing geometry fails the sweep.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import CacheConfig, SocConfig, soc_cache_label
from repro.core.offload import measured_profile
from repro.core.runner import ConfigSweep
from repro.obs import recording
from repro.sim.artifact import TraceArtifact, TraceStore
from repro.sim.cache import replay_trace
from repro.sim.profile import KernelProfile
from repro.sim.timing import TimingParameters
from repro.sim.trace import MemoryTrace
from tests.sim import oracle


def small_grid() -> list[SocConfig]:
    return [
        SocConfig(
            l1=CacheConfig(size_bytes=1024, associativity=2),
            l2=CacheConfig(size_bytes=4096, associativity=4),
        ),
        SocConfig(
            l1=CacheConfig(size_bytes=2048, associativity=4),
            l2=CacheConfig(size_bytes=8192, associativity=8),
        ),
        SocConfig(
            l1=CacheConfig(size_bytes=512, associativity=1),
            l2=CacheConfig(size_bytes=2048, associativity=2),
        ),
    ]


def make_artifact(tmp_path=None, seed: int = 0) -> TraceArtifact:
    rng = np.random.default_rng(seed)
    trace = MemoryTrace(
        addresses=rng.integers(0, 1 << 15, 800, dtype=np.uint64),
        is_write=rng.random(800) < 0.3,
    )
    artifact = TraceArtifact.from_trace(trace, workload="unit")
    if tmp_path is not None:
        artifact.save(tmp_path / "unit.trace")
    return artifact


class TestConfigSweep:
    def test_batched_and_serial_rows_identical(self):
        """Production rows equal rows built from the serial oracles."""
        artifact = make_artifact()
        socs = small_grid()
        batched = ConfigSweep(artifact).evaluate(socs)
        serial = [
            oracle.sweep_row(artifact.trace(), soc, TimingParameters(), 2.0)
            for soc in socs
        ]
        assert batched == serial
        assert [r["config"] for r in batched] == [
            soc_cache_label(s) for s in socs
        ]

    def test_parallel_autosaves_in_memory_artifact(self, tmp_path):
        """An in-memory artifact no longer blocks ``jobs > 1`` — the sweep
        saves it into ``trace_dir`` so shard workers can memory-map it,
        and the rows stay identical to a single-process run."""
        artifact = make_artifact()  # never saved
        socs = small_grid()
        expected = ConfigSweep(make_artifact()).evaluate(socs)
        with recording() as obs:
            rows = ConfigSweep(artifact, trace_dir=tmp_path).evaluate(
                socs, jobs=2
            )
        assert rows == expected
        assert artifact.path is not None
        assert artifact.path.parent == tmp_path
        assert obs.counters.as_dict()["sim.artifact.autosaves"] == 1

    def test_duplicate_geometries_rejected(self):
        artifact = make_artifact()
        soc = small_grid()[0]
        with pytest.raises(ValueError, match="duplicate"):
            ConfigSweep(artifact).evaluate([soc, soc])

    def test_rows_are_json_able_and_carry_mpki(self):
        artifact = make_artifact()
        rows = ConfigSweep(artifact).evaluate(small_grid()[:1])
        row = json.loads(json.dumps(rows[0]))
        assert row["accesses"] == artifact.num_accesses
        assert row["l1_misses"] > 0
        instructions = row["accesses"] * 2.0
        assert row["llc_mpki"] == pytest.approx(
            row["llc_misses"] / (instructions / 1000.0)
        )
        assert row["pim_candidate"] == (row["llc_mpki"] > 10.0)

    def test_fault_without_policy_raises(self, tmp_path, monkeypatch):
        import repro.sim.batch as batch

        artifact = make_artifact()
        socs = small_grid()[:2]
        bad = soc_cache_label(socs[0])

        def failing_batch(trace, socs, **kwargs):
            raise RuntimeError("injected fault for %r" % bad)

        monkeypatch.setattr(batch, "sweep_batch", failing_batch)
        with pytest.raises(RuntimeError, match="injected"):
            ConfigSweep(artifact).evaluate(socs)

    def test_sweep_counters_published(self):
        artifact = make_artifact()
        with recording() as obs:
            ConfigSweep(artifact).evaluate(small_grid())
        counters = obs.counters.as_dict()
        assert counters["core.runner.config_sweeps"] == 1
        assert counters["core.runner.config_sweep_points"] == 3
        assert counters["sim.replay_batch.configs"] == 6  # cache + timing


class TestCacheSweepAnalysis:
    def test_run_sweep_shares_one_artifact(self, tmp_path):
        from repro.analysis.cachesweep import run_sweep

        store = TraceStore(directory=tmp_path)
        socs = small_grid()
        with recording() as obs:
            first = run_sweep("tensorflow.gemm_packed", socs=socs, store=store)
            second = run_sweep("tensorflow.gemm_packed", socs=socs, store=store)
        counters = obs.counters.as_dict()
        assert counters["sim.artifact.misses"] == 1  # traced exactly once
        assert counters["sim.artifact.hits"] == 1
        assert first["rows"] == second["rows"]
        assert first["batched"]

    def test_memo_cache_keyed_on_artifact_hash(self, tmp_path):
        from repro.analysis.cachesweep import run_sweep
        from repro.core.memo import MemoCache

        store = TraceStore(directory=tmp_path / "traces")
        cache = MemoCache(directory=tmp_path / "memo")
        socs = small_grid()[:2]
        first = run_sweep(
            "chrome.compositing_tiled", socs=socs, store=store, cache=cache
        )
        with recording() as obs:
            second = run_sweep(
                "chrome.compositing_tiled", socs=socs, store=store, cache=cache
            )
        assert second == first
        counters = obs.counters.as_dict()
        assert counters["core.memo.hits"] == 1
        assert "sim.cache.replays" not in counters  # no replay on a hit
        # The memo key embeds the artifact hash: same workload name with
        # different trace content must miss.
        key_config_hit = cache.key(
            "cachesweep.chrome.compositing_tiled",
            {
                "artifact": first["artifact"],
                "configs": [soc_cache_label(s) for s in socs],
                "timing": {},
                "instructions_per_access": 2.0,
            },
        )
        key_config_other = cache.key(
            "cachesweep.chrome.compositing_tiled",
            {
                "artifact": "different-hash",
                "configs": [soc_cache_label(s) for s in socs],
                "timing": {},
                "instructions_per_access": 2.0,
            },
        )
        assert key_config_hit != key_config_other

    def test_unknown_workload_rejected(self):
        from repro.analysis.cachesweep import run_sweep

        with pytest.raises(ValueError, match="unknown sweep workload"):
            run_sweep("no.such.workload")

    def test_locality_robust_across_geometries(self, tmp_path):
        from repro.analysis.sensitivity import locality_robust_across_geometries

        store = TraceStore(directory=tmp_path)
        verdicts = locality_robust_across_geometries(
            socs=small_grid(), store=store
        )
        assert [v["optimized"] for v in verdicts] == [
            "tensorflow.gemm_packed",
            "chrome.compositing_tiled",
        ]
        for verdict in verdicts:
            assert verdict["robust"], verdict
            assert len(verdict["points"]) == 3


class TestMeasuredProfile:
    def profile(self, **overrides) -> KernelProfile:
        base = dict(
            name="unit",
            instructions=1000.0,
            mem_instructions=400.0,
            alu_ops=500.0,
            l1_misses=10.0,
            llc_misses=5.0,
            dram_bytes=320.0,
        )
        base.update(overrides)
        return KernelProfile(**base)

    def stats(self):
        artifact = make_artifact()
        return replay_trace(artifact.trace(), small_grid()[0])

    def test_grafts_measured_memory_fields(self):
        stats = self.stats()
        measured = measured_profile(self.profile(), stats)
        assert measured.l1_misses == stats.l1.misses
        assert measured.llc_misses == stats.llc.misses
        assert measured.dram_bytes == stats.dram_bytes
        assert measured.instructions == 1000.0  # compute side untouched
        assert measured.alu_ops == 500.0

    def test_default_pim_bytes_follows_measured_traffic(self):
        stats = self.stats()
        measured = measured_profile(self.profile(), stats)
        assert measured.pim_bytes == stats.dram_bytes

    def test_overridden_pim_bytes_preserved(self):
        stats = self.stats()
        measured = measured_profile(self.profile(pim_bytes=64.0), stats)
        assert measured.pim_bytes == 64.0
