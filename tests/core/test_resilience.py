"""Tests for the process-pool map and the fail-loudly sweep contract.

:class:`repro.core.resilience.ResilientMap` runs a sweep in-process or
on one process pool and re-raises the first failure; nothing is
retried, quarantined or averaged over survivors.  Its one pool, the
sharded cache-geometry sweep's, leaves diagnosable evidence when a
worker dies, and the memo cache's segment store detects corruption and
stays safe under concurrent writers.
"""

import hashlib
import itertools
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro.core.runner as runner
from repro.core.memo import MemoCache
from repro.core.offload import OffloadEngine
from repro.core.resilience import ResilientMap
from repro.core.runner import ExperimentRunner, SweepResult
from repro.core.target import PimTarget
from repro.obs.recorder import recording
from repro.sim.artifact import ArtifactError, TraceArtifact
from repro.sim.profile import KernelProfile
from repro.sim.timing import TimingParameters
from repro.sim.trace import MemoryTrace

MB = 1024 * 1024


def sweep_targets(n=4):
    out = []
    for i, name in enumerate(("alpha", "beta", "gamma", "delta")[:n]):
        profile = KernelProfile.streaming(
            name, (8 + 4 * i) * MB, (8 + 4 * i) * MB,
            ops_per_byte=0.2 + 0.1 * i, instruction_overhead=0.1,
            simd_fraction=0.9,
        )
        out.append(PimTarget(name, profile, accelerator_key="texture_tiling",
                             workload="test"))
    return out


# ----------------------------------------------------------------------
# ResilientMap (in-process semantics)
# ----------------------------------------------------------------------

class TestResilientMapSerial:
    def test_raise_failures_reraises_original(self):
        def doomed(x):
            raise KeyError("original")

        with pytest.raises(KeyError, match="original"):
            ResilientMap(doomed, [1]).run()

    def test_keyboard_interrupt_propagates(self):
        def interrupted(x):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ResilientMap(interrupted, [1]).run()


# ----------------------------------------------------------------------
# A failing target fails the runner's sweep
# ----------------------------------------------------------------------

class _Fatal(RuntimeError):
    pass


class TestFaultInjection:
    def test_no_policy_fails_fast_with_no_resilience_counters(
        self, monkeypatch
    ):
        compare = OffloadEngine.compare

        def failing(self, target):
            if target.name == "beta":
                raise _Fatal("fatal")
            return compare(self, target)

        monkeypatch.setattr(OffloadEngine, "compare", failing)
        with recording() as rec, pytest.raises(_Fatal, match="fatal"):
            ExperimentRunner().evaluate(sweep_targets())
        # The counter surface has *no* core.resilience.* keys at all
        # (absent, not zero).
        assert not [
            k for k in rec.counters.as_dict() if k.startswith("core.resilience.")
        ]


# ----------------------------------------------------------------------
# Worker diagnostics
# ----------------------------------------------------------------------

def _probe_handlers(_):
    import faulthandler
    import signal

    handler = signal.getsignal(signal.SIGTERM)
    custom = callable(handler) and handler not in (
        signal.SIG_DFL, signal.SIG_IGN
    )
    return faulthandler.is_enabled(), custom


def _init_shard_worker_unarmed(*initargs):
    """The shard initializer in a worker that starts with faulthandler
    off, so the probe sees what the initializer armed, not what a fork
    inherited from the test process."""
    import faulthandler

    faulthandler.disable()
    runner._init_shard_worker(*initargs)


class TestWorkerDiagnostics:
    def test_pool_workers_install_fault_handlers(self, tmp_path):
        trace = MemoryTrace(
            addresses=np.arange(0, 64 * 64, 64, dtype=np.uint64),
            is_write=np.zeros(64, dtype=bool),
        )
        artifact = TraceArtifact.from_trace(trace, workload="unit")
        artifact.save(tmp_path / "unit.trace")
        initargs = (
            str(artifact.path), artifact.content_hash, TimingParameters(), 2.0
        )
        with ProcessPoolExecutor(
            max_workers=1,
            initializer=_init_shard_worker_unarmed,
            initargs=initargs,
        ) as pool:
            enabled, custom = pool.submit(_probe_handlers, 0).result()
        assert enabled
        # SIGTERM keeps its default action: a terminated worker just exits.
        assert not custom

    def test_initializer_failure_leaves_cause_on_stderr(self, tmp_path, capsys):
        with pytest.raises(ArtifactError, match="unreadable artifact"):
            runner._init_shard_worker(
                str(tmp_path / "missing.trace"),
                "0" * 64,
                TimingParameters(),
                2.0,
            )
        assert (
            "repro: shard worker initializer failed"
            in capsys.readouterr().err
        )


# ----------------------------------------------------------------------
# SweepResult aggregates
# ----------------------------------------------------------------------

class TestSweepResultEdges:
    def test_empty_sweep_means_are_zero(self):
        assert SweepResult().mean_pim_core_speedup == 0.0


# ----------------------------------------------------------------------
# MemoCache: corruption quarantine, debris removal, concurrent writers
# ----------------------------------------------------------------------

class TestMemoCorruption:
    def test_tampered_value_is_quarantined_never_returned(self, tmp_path):
        cache = MemoCache(tmp_path, version="v1")
        path = cache.put("entry", {"answer": 42})
        # Alter the payload bytes inside the segment's entry frame: the
        # body still parses as JSON, but the frame checksum now lies.
        raw = path.read_bytes()
        assert raw.count(b'"answer": 42') == 1
        path.write_bytes(raw.replace(b'"answer": 42', b'"answer": 41'))
        with recording() as rec:
            assert cache.get("entry", default="MISS") == "MISS"
        assert rec.counters.get("core.memo.corrupt") == 1
        assert rec.counters.get("core.store.corrupt") == 1
        # The altered entry is an honest miss from now on.
        with recording() as rec:
            assert cache.get("entry") is None
        assert rec.counters.get("core.memo.corrupt") == 0
        assert rec.counters.get("core.memo.misses") == 1

    def test_truncated_entry_is_dropped_as_torn(self, tmp_path):
        cache = MemoCache(tmp_path, version="v1")
        cache.put("entry", {"rows": list(range(100))})
        path = cache.put("other", {"rows": [2]})
        cache.close()
        raw = path.read_bytes()
        # Cut the end off "entry"'s S line, keeping the newline that
        # seals it: a complete line whose body no longer parses.
        entry_end = raw.index(b"\n", raw.index(b"\n") + 1)
        path.write_bytes(raw[: entry_end - 10] + raw[entry_end:])
        fresh = MemoCache(tmp_path, version="v1")
        with recording() as rec:
            assert fresh.get("entry") is None
            assert fresh.get("other") == {"rows": [2]}
        assert rec.counters.get("core.store.torn") == 1
        assert rec.counters.get("core.memo.corrupt") == 0
        # A re-put lands in a new per-process blob and reads back fine.
        fresh.put("entry", {"rows": [1]})
        assert fresh.get("entry") == {"rows": [1]}

    def test_non_string_dict_keys_are_not_misquarantined(self, tmp_path):
        """JSON stringifies int keys, changing sort order across a round
        trip ({10: ...} sorts numerically at put, lexicographically after
        reload); the checksum is over the canonical re-parsed form, so
        such entries must load as hits, not corrupt."""
        cache = MemoCache(tmp_path, version="v1")
        cache.put("entry", {10: "ten", 2: "two"})
        with recording() as rec:
            got = cache.get("entry", default="MISS")
        assert got == {"10": "ten", "2": "two"}
        assert rec.counters.get("core.memo.hits") == 1
        assert rec.counters.get("core.memo.corrupt") == 0

    def test_clear_sweeps_tmp_and_corrupt_debris(self, tmp_path):
        cache = MemoCache(tmp_path, version="v1")
        cache.put("entry", {"x": 1})
        (tmp_path / "dead.tmp.12345").write_text("{")
        (tmp_path / "old.corrupt").write_text("{")
        assert cache.clear() == 3
        assert list(tmp_path.iterdir()) == []

    def test_prune_removes_only_aged_foreign_versions(self, tmp_path):
        current = MemoCache(tmp_path, version="now")
        keep = current.put("mine", {"x": 1})
        old = MemoCache(tmp_path, version="bygone").put("theirs", {"y": 2})
        debris = tmp_path / "dead.tmp.99"
        debris.write_text("{")
        ancient = time.time() - 90 * 86400
        for path in (keep, old, debris):
            os.utime(path, (ancient, ancient))
        removed = current.prune(max_age_days=30)
        assert removed == 2
        assert keep.exists()  # current version is never pruned
        assert not old.exists()
        assert not debris.exists()
        assert current.get("mine") == {"x": 1}


def _hammer_puts(directory, version, value, rounds):
    cache = MemoCache(Path(directory), version=version)
    for _ in range(rounds):
        cache.put("shared", value, config={"k": 1})


class TestMemoConcurrency:
    def test_concurrent_writers_never_tear_reads(self, tmp_path):
        value_a = {"who": "a", "rows": list(range(200))}
        value_b = {"who": "b", "rows": list(range(200, 400))}
        writers = [
            multiprocessing.Process(
                target=_hammer_puts, args=(str(tmp_path), "v1", value, 40)
            )
            for value in (value_a, value_b)
        ]
        cache = MemoCache(tmp_path, version="v1")
        for w in writers:
            w.start()
        try:
            with recording() as rec:
                while any(w.is_alive() for w in writers):
                    got = cache.get("shared", config={"k": 1})
                    assert got in (None, value_a, value_b)
                final = cache.get("shared", config={"k": 1})
        finally:
            for w in writers:
                w.join()
        assert final in (value_a, value_b)
        assert rec.counters.get("core.memo.corrupt") == 0
        assert not list(tmp_path.glob("*.corrupt"))

    def test_every_two_phase_commit_interleaving_is_atomic(self, tmp_path):
        """Two writers of the pre-segment layout (``<key>.json`` via a
        ``.tmp`` file and ``os.replace``), interleaved every way: the
        cache never reads their files, so every step is an honest miss,
        never a corrupt entry, and a segment put of the same key wins."""
        value = {"a": {"payload": [1, 2, 3]}, "b": {"payload": [4, 5, 6]}}
        steps = [("a", "tmp"), ("a", "replace"), ("b", "tmp"), ("b", "replace")]
        orders = [
            order for order in itertools.permutations(steps)
            if order.index(("a", "tmp")) < order.index(("a", "replace"))
            and order.index(("b", "tmp")) < order.index(("b", "replace"))
        ]
        assert len(orders) == 6
        for case, order in enumerate(orders):
            root = tmp_path / ("case%d" % case)
            root.mkdir()
            cache = MemoCache(root, version="v1")
            path = root / ("%s.json" % cache.key("k"))
            tmps = {}
            with recording() as rec:
                for writer, phase in order:
                    if phase == "tmp":
                        value_json = json.dumps(value[writer], sort_keys=True)
                        document = {
                            "name": "k",
                            "version": "v1",
                            "value": value[writer],
                            "checksum": hashlib.sha256(
                                value_json.encode()
                            ).hexdigest()[:16],
                        }
                        tmp = path.with_suffix(".tmp.%s" % writer)
                        tmp.write_text(json.dumps(document))
                        tmps[writer] = tmp
                    else:
                        os.replace(tmps[writer], path)
                    assert cache.get("k") is None
            assert rec.counters.get("core.memo.corrupt") == 0
            assert rec.counters.get("core.memo.misses") == len(order)
            assert path.exists()
            cache.put("k", value["a"])
            assert MemoCache(root, version="v1").get("k") == value["a"]
