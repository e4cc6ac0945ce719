"""Fault-injection tests for the resilience layer.

The "faulty engine" here is the *real* sweep stack driven through
:func:`repro.core.resilience.maybe_inject_fault`: a ``REPRO_FAULT_PLAN``
JSON file schedules kill/hang/raise faults for specific targets on
specific attempts, inside the real pool workers.  Each scenario the
design demands is proven end to end:

* crash -> retry -> success, bit-identical to a fault-free run;
* hang -> timeout -> pool respawn, without losing completed targets;
* exhaustion -> quarantine -> degraded result (or a raise under strict);
* interrupt -> resume -> bit-identical to an uninterrupted run;
* corrupted cache/journal entries quarantined, never returned.

CI runs this file under ``REPRO_STRICT=1`` as well, so every test that
*expects* quarantine-instead-of-raise pins ``strict_mode(False)``.
"""

import hashlib
import itertools
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.core.memo import MemoCache
from repro.core.resilience import (
    FAULT_PLAN_ENV,
    FaultInjected,
    ResilientMap,
    RetryPolicy,
    SweepCheckpoint,
    TargetFailure,
    comparison_to_jsonable,
    sweep_key,
)
from repro.core.runner import ExperimentRunner, SweepResult, _init_worker
from repro.core.target import PimTarget
from repro.obs.recorder import recording
from repro.sim.profile import KernelProfile
from repro.validate import InvariantError, strict_mode

MB = 1024 * 1024

#: Fast policy for tests: immediate-ish retries, deterministic jitter.
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.01, jitter=0.0)


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


def install_plan(tmp_path, monkeypatch, faults):
    """Write a fault plan and point REPRO_FAULT_PLAN at it."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"faults": faults}))
    monkeypatch.setenv(FAULT_PLAN_ENV, str(plan))
    return plan


@pytest.fixture
def baseline():
    """A fault-free serial sweep to compare degraded runs against."""
    return ExperimentRunner().evaluate(sweep_targets())


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.5, seed=7)
        again = RetryPolicy(backoff_base_s=0.1, jitter=0.5, seed=7)
        assert policy.delay_s("x", 1) == again.delay_s("x", 1)
        assert policy.delay_s("x", 1) != policy.delay_s("y", 1)
        assert policy.delay_s("x", 1) != policy.delay_s("x", 2)

    def test_delay_bounds_and_growth(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, jitter=0.25
        )
        first = policy.delay_s("t", 1)
        second = policy.delay_s("t", 2)
        assert 0.1 <= first <= 0.1 * 1.25
        assert 0.2 <= second <= 0.2 * 1.25


# ----------------------------------------------------------------------
# ResilientMap (serial scheduling semantics)
# ----------------------------------------------------------------------

class TestResilientMapSerial:
    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return x * 2

        with recording() as rec:
            values, failures = ResilientMap(
                flaky, [21], names=["t"], policy=FAST
            ).run()
        assert values == [42]
        assert failures == []
        assert rec.counters.get("core.resilience.retries") == 2

    def test_exhaustion_quarantines(self):
        def doomed(x):
            raise RuntimeError("permanent")

        with strict_mode(False), recording() as rec:
            values, failures = ResilientMap(
                doomed, [1, 2], names=["bad", "ok2"], policy=FAST
            ).run()
        # Item 2 also fails (same fn), so both are quarantined.
        assert values == [None, None]
        assert [f.target for f in failures] == ["bad", "ok2"]
        assert all(f.attempts == 3 for f in failures)
        assert all("permanent" in f.error for f in failures)
        assert rec.counters.get("core.resilience.quarantined") == 2

    def test_raise_failures_reraises_original(self):
        def doomed(x):
            raise KeyError("original")

        with pytest.raises(KeyError, match="original"):
            ResilientMap(
                doomed, [1], names=["t"], policy=FAST, raise_failures=True
            ).run()

    def test_strict_mode_upgrades_quarantine_to_raise(self):
        def doomed(x):
            raise RuntimeError("permanent")

        with strict_mode(True), pytest.raises(InvariantError,
                                              match="exhausted 3 attempt"):
            ResilientMap(doomed, [1], names=["t"], policy=FAST).run()

    def test_keyboard_interrupt_propagates(self):
        def interrupted(x):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ResilientMap(interrupted, [1], names=["t"], policy=FAST).run()


# ----------------------------------------------------------------------
# Crash / hang / quarantine through the real runner + pool
# ----------------------------------------------------------------------

class TestFaultInjection:
    def test_worker_crash_retried_bit_identical(
        self, tmp_path, monkeypatch, baseline
    ):
        install_plan(tmp_path, monkeypatch, {"beta": ["kill"]})
        with recording() as rec:
            result = ExperimentRunner().evaluate(
                sweep_targets(), jobs=2, retry_policy=FAST
            )
        assert not result.degraded
        assert result.comparisons == baseline.comparisons
        assert rec.counters.get("core.resilience.retries") >= 1

    def test_hung_worker_timed_out_and_respawned(
        self, tmp_path, monkeypatch, baseline
    ):
        install_plan(tmp_path, monkeypatch, {"gamma": ["hang:60"]})
        policy = RetryPolicy(
            max_attempts=3, backoff_base_s=0.01, jitter=0.0, timeout_s=1.0
        )
        start = time.monotonic()
        with recording() as rec:
            result = ExperimentRunner().evaluate(
                sweep_targets(), jobs=2, retry_policy=policy
            )
        assert time.monotonic() - start < 30.0  # nowhere near the 60s hang
        assert not result.degraded
        # Completed targets survived the pool respawn.
        assert result.comparisons == baseline.comparisons
        assert rec.counters.get("core.resilience.timeouts") >= 1

    def test_exhaustion_quarantines_and_degrades(
        self, tmp_path, monkeypatch, baseline
    ):
        install_plan(
            tmp_path, monkeypatch, {"beta": ["raise:boom"] * 3}
        )
        with strict_mode(False), recording() as rec:
            result = ExperimentRunner().evaluate(
                sweep_targets(), retry_policy=FAST
            )
        assert result.degraded
        assert [f.target for f in result.failures] == ["beta"]
        assert result.failures[0].attempts == 3
        assert "boom" in result.failures[0].error
        assert result.names == ["alpha", "gamma", "delta"]
        # Survivors are bit-identical to the fault-free run.
        survivors = [
            c for c in baseline.comparisons if c.target.name != "beta"
        ]
        assert result.comparisons == survivors
        assert rec.counters.get("core.resilience.quarantined") == 1
        assert rec.counters.get("core.resilience.retries") == 2

    def test_quarantine_raises_under_strict(self, tmp_path, monkeypatch):
        install_plan(tmp_path, monkeypatch, {"beta": ["raise"] * 3})
        with strict_mode(True), pytest.raises(InvariantError):
            ExperimentRunner().evaluate(sweep_targets(), retry_policy=FAST)

    def test_no_policy_fails_fast_with_no_resilience_counters(
        self, tmp_path, monkeypatch
    ):
        install_plan(tmp_path, monkeypatch, {"beta": ["raise:fatal"]})
        with recording() as rec, pytest.raises(FaultInjected, match="fatal"):
            ExperimentRunner().evaluate(sweep_targets())
        # Legacy contract: the fault-free counter surface has *no*
        # core.resilience.* keys at all (absent, not zero).
        assert not [
            k for k in rec.counters.as_dict() if k.startswith("core.resilience.")
        ]

    def test_degraded_rows_carry_failed_stub(self, tmp_path, monkeypatch):
        install_plan(tmp_path, monkeypatch, {"delta": ["raise"] * 3})
        with strict_mode(False):
            result = ExperimentRunner().evaluate(
                sweep_targets(), retry_policy=FAST
            )
        rows = result.rows()
        assert [r["target"] for r in rows] == [
            "alpha", "beta", "gamma", "delta"
        ]
        stub = rows[-1]
        assert stub["failed"] is True
        assert stub["attempts"] == 3
        assert "error" in stub
        # Surviving rows keep the exact legacy schema (no "failed" key).
        assert all("failed" not in r for r in rows[:-1])


# ----------------------------------------------------------------------
# kill -9 of a real pool worker (no fault plan: an external murder)
# ----------------------------------------------------------------------

def _slow_echo(x):
    time.sleep(0.5)
    return x


def _child_pids():
    """PIDs of our direct children, minus multiprocessing's trackers."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == me and b"tracker" not in cmdline:
            out.append(int(entry))
    return out


class TestExternalKill:
    def test_sweep_survives_kill_dash_nine(self):
        killed = []

        def assassin():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                children = _child_pids()
                if children:
                    time.sleep(0.2)  # let workers pick up tasks
                    victim = children[0]
                    try:
                        os.kill(victim, 9)
                        killed.append(victim)
                    except OSError:
                        continue
                    return
                time.sleep(0.05)

        thread = threading.Thread(target=assassin)
        thread.start()
        try:
            values, failures = ResilientMap(
                _slow_echo, [1, 2, 3, 4], names=list("abcd"),
                policy=FAST, jobs=2,
            ).run()
        finally:
            thread.join()
        assert killed, "assassin never found a pool worker to kill"
        assert values == [1, 2, 3, 4]
        assert failures == []


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


class _PoolWithoutProcesses:
    """A pool whose private ``_processes`` map is missing (future Python)."""

    def shutdown(self, wait=False, cancel_futures=False):
        pass


class TestKillPool:
    def test_no_discoverable_processes_is_counted_not_silent(self):
        mapper = ResilientMap(lambda x: x, [])
        with recording() as rec:
            mapper._kill_pool(_PoolWithoutProcesses())
        assert rec.counters.get("core.resilience.pool_kill_no_workers") == 1

    def test_real_pool_kill_is_not_counted_as_blind(self):
        mapper = ResilientMap(lambda x: x, [])
        pool = ProcessPoolExecutor(max_workers=1)
        pool.submit(int, 0).result()  # force the worker to exist
        with recording() as rec:
            mapper._kill_pool(pool)
        assert rec.counters.get("core.resilience.pool_kill_no_workers") == 0


class TestWorkerDiagnostics:
    def test_pool_workers_install_fault_handlers(self):
        with ProcessPoolExecutor(
            max_workers=1, initializer=_init_worker, initargs=(None, None)
        ) as pool:
            enabled, custom = pool.submit(_probe_handlers, 0).result()
        assert enabled
        assert custom

    def test_initializer_failure_leaves_cause_on_stderr(self, capsys):
        with pytest.raises(BaseException):
            _init_worker(object(), None)
        assert "pool worker initializer failed" in capsys.readouterr().err


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class TestConfigShipping:
    def test_unpicklable_config_fails_fast_with_cause(self):
        runner = ExperimentRunner()
        runner.energy_params = _Unpicklable()
        with pytest.raises(ValueError, match="pickle cleanly"):
            runner.evaluate(sweep_targets(), jobs=2, retry_policy=FAST)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

class TestCheckpointResume:
    def test_interrupted_sweep_resumes_bit_identical(
        self, tmp_path, monkeypatch, baseline
    ):
        journal = tmp_path / "sweep.jsonl"
        # Interrupt the sweep at the third target (legacy fail-fast, so
        # the exception escapes evaluate -- a genuine interruption).
        install_plan(tmp_path, monkeypatch, {"gamma": ["raise:interrupted"]})
        with pytest.raises(FaultInjected):
            ExperimentRunner().evaluate(sweep_targets(), checkpoint=journal)
        monkeypatch.delenv(FAULT_PLAN_ENV)
        with recording() as rec:
            result = ExperimentRunner().evaluate(
                sweep_targets(), checkpoint=journal, resume=True
            )
        assert rec.counters.get("core.resilience.resumed") == 2
        assert result.comparisons == baseline.comparisons
        assert result.rows() == baseline.rows()

    def test_resume_never_recomputes_journaled_targets(
        self, tmp_path, monkeypatch, baseline
    ):
        journal = tmp_path / "sweep.jsonl"
        ExperimentRunner().evaluate(sweep_targets(), checkpoint=journal)
        # Any recompute would now die on the first attempt.
        install_plan(
            tmp_path, monkeypatch,
            {t.name: ["raise:recomputed"] for t in sweep_targets()},
        )
        result = ExperimentRunner().evaluate(
            sweep_targets(), checkpoint=journal, resume=True
        )
        assert result.comparisons == baseline.comparisons

    def test_torn_final_line_is_dropped_and_recomputed(
        self, tmp_path, baseline
    ):
        journal = tmp_path / "sweep.jsonl"
        ExperimentRunner().evaluate(sweep_targets(), checkpoint=journal)
        torn = journal.read_text()[:-20]  # tear the last record
        journal.write_text(torn)
        with recording() as rec:
            result = ExperimentRunner().evaluate(
                sweep_targets(), checkpoint=journal, resume=True
            )
        assert rec.counters.get("core.resilience.checkpoint.torn") == 1
        assert rec.counters.get("core.resilience.resumed") == 3
        assert result.comparisons == baseline.comparisons

    def _resume_sets_journal_aside(self, journal, baseline):
        """Resume over a journal it cannot trust: the file is rotated to
        ``.stale`` byte-for-byte, nothing in it is merged, and every
        target recomputes bit-identically."""
        key = sweep_key((None, None))
        before = journal.read_bytes()
        with recording() as rec:
            result = ExperimentRunner().evaluate(
                sweep_targets(), checkpoint=journal, resume=True
            )
        assert rec.counters.get("core.resilience.resumed") == 0
        assert result.comparisons == baseline.comparisons
        assert json.dumps(result.rows()) == json.dumps(baseline.rows())
        rotated = journal.with_name(journal.name + ".stale")
        assert rotated.read_bytes() == before
        reloaded = SweepCheckpoint(journal, key=key).entries()
        assert sorted(reloaded) == ["alpha", "beta", "delta", "gamma"]

    def test_stale_journal_rotated_not_mixed(self, tmp_path, baseline):
        journal = tmp_path / "sweep.jsonl"
        SweepCheckpoint(journal, key="stale-code-version").append(
            "alpha", {"bogus": True}
        )
        self._resume_sets_journal_aside(journal, baseline)

    def test_resume_from_legacy_jsonl_journal_bit_identical(
        self, tmp_path, baseline
    ):
        """A journal in the pre-segment JSONL layout is set aside like a
        stale one, even when its key matches, and the resumed sweep is
        bit-identical to an uninterrupted run."""
        journal = tmp_path / "sweep.jsonl"
        key = sweep_key((None, None))
        lines = [json.dumps({"schema": "repro-sweep-checkpoint/v1", "key": key})]
        for comparison in baseline.comparisons[:2]:
            payload = comparison_to_jsonable(comparison)
            body = json.dumps(payload, sort_keys=True)
            lines.append(json.dumps({
                "name": comparison.target.name,
                "payload": payload,
                "sha": hashlib.sha256(body.encode()).hexdigest()[:16],
            }))
        journal.write_text("\n".join(lines) + "\n")
        self._resume_sets_journal_aside(journal, baseline)

    def test_parallel_checkpointed_run_matches_serial(
        self, tmp_path, baseline
    ):
        journal = tmp_path / "sweep.jsonl"
        result = ExperimentRunner().evaluate(
            sweep_targets(), jobs=2, retry_policy=FAST, checkpoint=journal
        )
        assert result.comparisons == baseline.comparisons
        entries = SweepCheckpoint(journal, key=sweep_key((None, None))).entries()
        assert sorted(entries) == ["alpha", "beta", "delta", "gamma"]

    def test_payload_key_order_survives_resume(self, tmp_path):
        """Figure rows render columns in dict-insertion order, so the
        journal must not alphabetize payload keys on the way through."""
        path = tmp_path / "j.jsonl"
        SweepCheckpoint(path, key="k").append(
            "fig", {"rows": [{"page": "Docs", "alpha": 1}]}
        )
        reloaded = SweepCheckpoint(path, key="k").entries()
        assert list(reloaded["fig"]["rows"][0]) == ["page", "alpha"]

    def test_checkpoint_counts_writes(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        with recording() as rec:
            ExperimentRunner().evaluate(sweep_targets(2), checkpoint=journal)
        assert rec.counters.get("core.resilience.checkpoint.writes") == 2


# ----------------------------------------------------------------------
# SweepResult aggregates under degradation
# ----------------------------------------------------------------------

class TestSweepResultEdges:
    def test_empty_sweep_max_raises_clearly(self):
        empty = SweepResult()
        for prop in (
            "max_pim_core_energy_reduction", "max_pim_acc_energy_reduction",
            "max_pim_core_speedup", "max_pim_acc_speedup",
        ):
            with pytest.raises(ValueError, match="empty sweep"):
                getattr(empty, prop)

    def test_empty_sweep_error_mentions_quarantine(self):
        failed = SweepResult(
            failures=[TargetFailure("x", 3, "RuntimeError('boom')", 0.1)]
        )
        assert failed.degraded
        with pytest.raises(ValueError, match="1 target\\(s\\) quarantined"):
            failed.max_pim_acc_speedup

    def test_empty_sweep_means_are_zero(self):
        assert SweepResult().mean_pim_core_speedup == 0.0


# ----------------------------------------------------------------------
# Figure harness degradation + resume
# ----------------------------------------------------------------------

class TestFigureHarness:
    def _patch_experiments(self, monkeypatch, fns):
        from repro.analysis import report

        monkeypatch.setattr(report, "EXPERIMENTS", tuple(fns))
        return report

    def test_failing_figure_yields_degraded_placeholder(self, monkeypatch):
        from repro.analysis.base import FigureResult

        def fig_ok():
            return FigureResult(figure_id="F1", title="ok", rows=[{"x": 1}])

        def fig_bad():
            raise RuntimeError("figure exploded")

        report = self._patch_experiments(monkeypatch, [fig_ok, fig_bad])
        with strict_mode(False):
            results = report.all_results(
                retry_policy=RetryPolicy(
                    max_attempts=2, backoff_base_s=0.0, jitter=0.0
                )
            )
        assert results[0].figure_id == "F1"
        assert results[1].figure_id == "fig_bad"
        assert results[1].title == "(not regenerated)"
        assert "DEGRADED" in results[1].notes
        assert "2 attempt(s)" in results[1].notes

    def test_figures_resume_skips_regeneration(self, monkeypatch, tmp_path):
        from repro.analysis.base import FigureResult

        calls = {"n": 0}

        def fig_counted():
            calls["n"] += 1
            return FigureResult(figure_id="F1", title="t", rows=[{"x": 1}])

        report = self._patch_experiments(monkeypatch, [fig_counted])
        journal = tmp_path / "figures.jsonl"
        first = report.all_results(checkpoint=journal)
        second = report.all_results(checkpoint=journal, resume=True)
        assert calls["n"] == 1
        assert [r.to_jsonable() for r in first] == [
            r.to_jsonable() for r in second
        ]

    def test_serial_checkpoint_with_recorder_enabled(
        self, monkeypatch, tmp_path
    ):
        """Serial runs return bare FigureResults even when observed.

        Regression: the checkpoint hook used to unwrap ``value[0]``
        whenever the recorder was on, which crashed ``repro figures
        --manifest DIR --checkpoint PATH`` at the default ``--jobs 1``.
        """
        from repro.analysis.base import FigureResult

        def fig_one():
            return FigureResult(figure_id="F1", title="t", rows=[{"x": 1}])

        report = self._patch_experiments(monkeypatch, [fig_one])
        journal = tmp_path / "figures.jsonl"
        with recording() as rec:
            first = report.all_results(checkpoint=journal)
        assert first[0].figure_id == "F1"
        assert rec.counters.get("core.resilience.checkpoint.writes") == 1
        with recording() as rec:
            second = report.all_results(checkpoint=journal, resume=True)
        assert rec.counters.get("core.resilience.resumed") == 1
        assert [r.to_jsonable() for r in first] == [
            r.to_jsonable() for r in second
        ]


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
        # Compaction quarantines the tampered blob for inspection.
        stats = cache.compact()
        assert stats.quarantined == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_truncated_entry_is_dropped_as_torn(self, tmp_path):
        cache = MemoCache(tmp_path, version="v1", flush_every=2)
        cache.put("entry", {"rows": list(range(100))})
        path = cache.put("other", {"rows": [2]})
        cache.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])  # cut into the committing index frame
        fresh = MemoCache(tmp_path, version="v1")
        with recording() as rec:
            assert fresh.get("entry") is None
            assert fresh.get("other") is None
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

    def test_memo_and_checkpoint_writers_share_a_directory(self, tmp_path):
        """Segment blobs and a checkpoint journal coexist in one
        directory: per-process memo blobs and the journal never collide,
        and nothing is lost, duplicated, or corrupted."""
        value_a = {"who": "a", "rows": list(range(100))}
        value_b = {"who": "b", "rows": list(range(100, 200))}
        writers = [
            multiprocessing.Process(
                target=_hammer_puts, args=(str(tmp_path), "v1", value, 25)
            )
            for value in (value_a, value_b)
        ] + [
            multiprocessing.Process(
                target=_hammer_checkpoint, args=(str(tmp_path), 25)
            )
        ]
        for w in writers:
            w.start()
        for w in writers:
            w.join()
        assert all(w.exitcode == 0 for w in writers)
        with recording() as rec:
            cache = MemoCache(tmp_path, version="v1")
            assert cache.get("shared", config={"k": 1}) in (value_a, value_b)
            journal = SweepCheckpoint(tmp_path / "sweep.jsonl", key="ck")
            entries = journal.entries()
        assert sorted(entries) == ["t%03d" % i for i in range(25)]
        assert all(entries["t%03d" % i] == {"i": i} for i in range(25))
        assert rec.counters.get("core.memo.corrupt") == 0
        assert rec.counters.get("core.store.corrupt") == 0
        assert not list(tmp_path.glob("*.corrupt"))


def _hammer_checkpoint(directory, count):
    journal = SweepCheckpoint(Path(directory) / "sweep.jsonl", key="ck")
    for i in range(count):
        journal.append("t%03d" % i, {"i": i})
    journal.close()


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------

class TestCliResilience:
    def test_resume_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["evaluate", "--workload", "chrome", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_evaluate_retries_through_cli(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        install_plan(tmp_path, monkeypatch, {"texture_tiling": ["raise"]})
        assert main([
            "evaluate", "--workload", "chrome", "--max-retries", "3",
        ]) == 0
        assert "texture_tiling" in capsys.readouterr().out

    def test_evaluate_reports_quarantine_degraded(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        # --max-retries N is N *retries*: N + 1 attempts must all fail.
        install_plan(
            tmp_path, monkeypatch, {"texture_tiling": ["raise:dead"] * 4}
        )
        with strict_mode(False):
            assert main([
                "evaluate", "--workload", "chrome", "--max-retries", "3",
            ]) == 0
        captured = capsys.readouterr()
        assert "FAILED after 4 attempt(s)" in captured.out
        assert "DEGRADED" in captured.err

    def test_max_retries_zero_quarantines_on_first_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        install_plan(
            tmp_path, monkeypatch, {"texture_tiling": ["raise:dead"]}
        )
        with strict_mode(False):
            assert main([
                "evaluate", "--workload", "chrome", "--max-retries", "0",
            ]) == 0
        assert "FAILED after 1 attempt(s)" in capsys.readouterr().out

    def test_negative_max_retries_rejected_by_flag_name(self, capsys):
        from repro.cli import main

        assert main([
            "evaluate", "--workload", "chrome", "--max-retries", "-1",
        ]) == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_evaluate_checkpoint_resume_round_trip(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        journal = tmp_path / "sweep.jsonl"
        assert main([
            "evaluate", "--workload", "chrome",
            "--checkpoint", str(journal),
        ]) == 0
        first = capsys.readouterr().out
        # Any recompute on resume would die immediately.
        install_plan(
            tmp_path, monkeypatch,
            {"texture_tiling": ["raise"], "color_blitting": ["raise"],
             "compression": ["raise"], "decompression": ["raise"]},
        )
        assert main([
            "evaluate", "--workload", "chrome",
            "--checkpoint", str(journal), "--resume",
        ]) == 0
        assert capsys.readouterr().out == first
