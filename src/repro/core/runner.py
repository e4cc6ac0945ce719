"""Experiment runner: batch evaluation of PIM targets.

Produces the paper's Figures 18-20 data (normalized energy and runtime per
kernel for CPU-Only / PIM-Core / PIM-Acc) and the headline cross-workload
averages (PIM-Core: -49.1% energy / +44.6% performance; PIM-Acc: -55.4% /
+54.2%).

Sweeps are fault-tolerant: pass a
:class:`~repro.core.resilience.RetryPolicy` and a crashed or hung pool
worker costs one retry instead of the sweep; targets that exhaust their
retries are quarantined into :attr:`SweepResult.failures` (strict mode
upgrades quarantine to a raise).  A :class:`~repro.core.resilience.SweepCheckpoint`
journal makes long sweeps resumable: completed comparisons are appended
as they finish and ``resume=True`` reloads them bit-identically instead
of recomputing.  Without a policy or checkpoint, behaviour (and the
published counter surface) is exactly the legacy fail-fast one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import SystemConfig
from repro.core.offload import OffloadEngine, TargetComparison
from repro.core.resilience import (
    ResilientMap,
    RetryPolicy,
    SweepCheckpoint,
    TargetFailure,
    comparison_from_jsonable,
    comparison_to_jsonable,
    maybe_inject_fault,
    sweep_key,
)
from repro.core.target import PimTarget
from repro.energy.components import EnergyParameters
from repro.obs.recorder import get_recorder


@dataclass
class SweepResult:
    """Results for a set of PIM targets evaluated on all machines.

    ``failures`` lists the targets a fault-tolerant sweep quarantined
    after exhausting their retries; when it is non-empty the sweep is
    ``degraded`` and every aggregate is computed over the survivors in
    ``comparisons`` only.
    """

    comparisons: list[TargetComparison] = field(default_factory=list)
    failures: list[TargetFailure] = field(default_factory=list)
    _index: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def by_name(self, name: str) -> TargetComparison:
        if self._index is None or len(self._index) != len(self.comparisons):
            self._index = {c.target.name: c for c in self.comparisons}
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                "no target named %r; available: %s"
                % (name, ", ".join(sorted(self._index)) or "(none)")
            ) from None

    @property
    def names(self) -> list[str]:
        return [c.target.name for c in self.comparisons]

    @property
    def degraded(self) -> bool:
        """Whether any target was quarantined instead of evaluated."""
        return bool(self.failures)

    # ------------------------------------------------------------------
    # Paper-style aggregates (arithmetic means across kernels, as the
    # paper averages "across all of the consumer workloads").
    # ------------------------------------------------------------------
    @property
    def mean_pim_core_energy_reduction(self) -> float:
        return _mean([c.pim_core_energy_reduction for c in self.comparisons])

    @property
    def mean_pim_acc_energy_reduction(self) -> float:
        return _mean([c.pim_acc_energy_reduction for c in self.comparisons])

    @property
    def mean_pim_core_speedup(self) -> float:
        return _mean([c.pim_core_speedup for c in self.comparisons])

    @property
    def mean_pim_acc_speedup(self) -> float:
        return _mean([c.pim_acc_speedup for c in self.comparisons])

    def _survivors(self) -> list[TargetComparison]:
        if not self.comparisons:
            raise ValueError(
                "empty sweep: no surviving comparisons to aggregate over"
                + (
                    " (%d target(s) quarantined)" % len(self.failures)
                    if self.failures
                    else ""
                )
            )
        return self.comparisons

    @property
    def max_pim_core_energy_reduction(self) -> float:
        return max(c.pim_core_energy_reduction for c in self._survivors())

    @property
    def max_pim_acc_energy_reduction(self) -> float:
        return max(c.pim_acc_energy_reduction for c in self._survivors())

    @property
    def max_pim_core_speedup(self) -> float:
        return max(c.pim_core_speedup for c in self._survivors())

    @property
    def max_pim_acc_speedup(self) -> float:
        return max(c.pim_acc_speedup for c in self._survivors())

    def rows(self) -> list[dict]:
        """Flat result rows for the figure/report harnesses.

        Quarantined targets contribute a trailing stub row with
        ``failed=True`` (and no metric keys), so report consumers can
        annotate degraded sweeps instead of silently dropping targets.
        """
        out = []
        for c in self.comparisons:
            energy = c.normalized_energy()
            runtime = c.normalized_runtime()
            out.append(
                {
                    "target": c.target.name,
                    "workload": c.target.workload,
                    "energy_cpu": energy["CPU-Only"],
                    "energy_pim_core": energy["PIM-Core"],
                    "energy_pim_acc": energy["PIM-Acc"],
                    "runtime_cpu": runtime["CPU-Only"],
                    "runtime_pim_core": runtime["PIM-Core"],
                    "runtime_pim_acc": runtime["PIM-Acc"],
                    "speedup_pim_core": c.pim_core_speedup,
                    "speedup_pim_acc": c.pim_acc_speedup,
                }
            )
        for failure in self.failures:
            out.append(
                {
                    "target": failure.target,
                    "workload": "",
                    "failed": True,
                    "attempts": failure.attempts,
                    "error": failure.error,
                }
            )
        return out


#: Per-process engine for parallel sweeps (set by the pool initializer).
_WORKER_ENGINE: OffloadEngine | None = None


def _install_worker_fault_handlers() -> None:
    """Make worker deaths diagnosable.

    ``faulthandler`` turns hard crashes (segfaults, aborts) into stderr
    tracebacks, and a SIGTERM handler does the same for workers the
    resilience layer kills after a timeout — so a killed/hung worker
    leaves evidence of *where* it was instead of dying silently.
    """
    import faulthandler
    import os
    import signal

    try:
        faulthandler.enable()
    except (RuntimeError, OSError):
        pass

    def _dump_and_exit(signum, frame):
        faulthandler.dump_traceback()
        os._exit(128 + signum)

    try:
        signal.signal(signal.SIGTERM, _dump_and_exit)
    except (ValueError, OSError):
        # Not the main thread of the worker, or an exotic platform.
        pass


def _init_worker(system, energy_params, observe: bool = False) -> None:
    global _WORKER_ENGINE
    _install_worker_fault_handlers()
    try:
        _WORKER_ENGINE = OffloadEngine(system, energy_params)
    except BaseException as exc:
        # An initializer failure normally surfaces in the parent as an
        # opaque BrokenProcessPool; leave a one-line cause on stderr.
        print(
            "repro: pool worker initializer failed: %r" % exc,
            file=sys.stderr,
            flush=True,
        )
        raise
    if observe:
        # A recorder cannot cross the process boundary (it holds locks),
        # so each worker records into its own and ships snapshots back.
        from repro.obs.recorder import Recorder, set_recorder

        set_recorder(Recorder())


def _compare_in_worker(target: PimTarget) -> "TargetComparison":
    maybe_inject_fault(target.name)
    return _WORKER_ENGINE.compare(target)


def _compare_in_worker_observed(target: PimTarget):
    """Worker task when observability is on: (comparison, obs snapshot)."""
    recorder = get_recorder()
    recorder.reset()
    with recorder.span("core.runner.target.%s" % target.name):
        maybe_inject_fault(target.name)
        comparison = _WORKER_ENGINE.compare(target)
    _publish_comparison(recorder, comparison)
    return comparison, recorder.snapshot()


def _publish_comparison(recorder, comparison: TargetComparison) -> None:
    """Export one target's results as per-target gauges.

    These six gauges per target are the substrate from which
    :func:`repro.obs.manifest.headline_from_counters` re-derives the
    paper's headline averages out of a manifest alone.
    """
    counters = recorder.counters
    base = "core.runner.target.%s." % comparison.target.name
    for machine, execution in (
        ("cpu", comparison.cpu),
        ("pim_core", comparison.pim_core),
        ("pim_acc", comparison.pim_acc),
    ):
        counters.set(base + "energy_j." + machine, execution.energy_j)
        counters.set(base + "time_s." + machine, execution.time_s)
    counters.add("core.runner.targets", 1)


class ExperimentRunner:
    """Evaluates lists of PIM targets against all three machine models."""

    def __init__(
        self,
        system: SystemConfig | None = None,
        energy_params: EnergyParameters | None = None,
    ):
        self.system = system
        self.energy_params = energy_params
        self.engine = OffloadEngine(system, energy_params)

    def evaluate(
        self,
        targets: list[PimTarget],
        jobs: int = 1,
        retry_policy: RetryPolicy | None = None,
        checkpoint=None,
        resume: bool = False,
    ) -> SweepResult:
        """Compare every target on all machines.

        Args:
            targets: the PIM targets to evaluate.
            jobs: worker processes; ``1`` evaluates in-process.  Each
                worker builds one engine (via the pool initializer) and
                streams targets through it, so results are identical to
                the serial path, in input order.
            retry_policy: per-target fault containment; ``None`` keeps
                the legacy fail-fast contract (a failure raises).  With
                a policy, failed targets retry with backoff and
                exhausted ones are quarantined into
                :attr:`SweepResult.failures` (strict mode raises
                instead).
            checkpoint: path (or :class:`SweepCheckpoint`) of an
                append-only journal; completed comparisons are recorded
                as they finish.
            resume: reload matching journal entries instead of
                recomputing them; the resumed result is bit-identical
                to an uninterrupted run.
        """
        recorder = get_recorder()
        with recorder.span("core.runner.evaluate"):
            journal = self._journal(checkpoint)
            try:
                resumed: dict[str, TargetComparison] = {}
                if journal is not None and resume:
                    for name, payload in journal.entries().items():
                        resumed[name] = comparison_from_jsonable(payload)
                resumed = {
                    t.name: resumed[t.name] for t in targets if t.name in resumed
                }
                if recorder.enabled and resumed:
                    recorder.counters.add("core.resilience.resumed", len(resumed))
                    for comparison in resumed.values():
                        _publish_comparison(recorder, comparison)
                pending = [t for t in targets if t.name not in resumed]

                fresh: dict[str, TargetComparison] = {}
                failures: list[TargetFailure] = []
                if pending:
                    def journal_success(index, name, value):
                        if journal is None:
                            return
                        comparison = value[0] if isinstance(value, tuple) else value
                        journal.append(name, comparison_to_jsonable(comparison))

                    if jobs > 1 and len(pending) > 1:
                        values, failures = self._evaluate_parallel(
                            pending, jobs, retry_policy, recorder,
                            journal_success,
                        )
                    else:
                        values, failures = self._evaluate_serial(
                            pending, retry_policy, recorder, journal_success
                        )
                    fresh = {
                        t.name: v for t, v in zip(pending, values) if v is not None
                    }
                comparisons = [
                    resumed.get(t.name) or fresh.get(t.name)
                    for t in targets
                    if t.name in resumed or t.name in fresh
                ]
            finally:
                # A journal built here from a path owns an fd; callers
                # who passed a SweepCheckpoint keep control of theirs.
                if journal is not None and journal is not checkpoint:
                    journal.close()
        return SweepResult(comparisons=comparisons, failures=failures)

    # ------------------------------------------------------------------
    def _evaluate_serial(self, targets, retry_policy, recorder, on_success):
        def compare(target):
            with recorder.span("core.runner.target.%s" % target.name):
                maybe_inject_fault(target.name)
                comparison = self.engine.compare(target)
            if recorder.enabled:
                _publish_comparison(recorder, comparison)
            return comparison

        return ResilientMap(
            compare,
            targets,
            names=[t.name for t in targets],
            policy=retry_policy,
            jobs=1,
            on_success=on_success,
            raise_failures=retry_policy is None,
        ).run()

    def _evaluate_parallel(
        self, targets, jobs, retry_policy, recorder, on_success
    ):
        self._check_config_ships(recorder)
        mapper = ResilientMap(
            _compare_in_worker_observed if recorder.enabled else _compare_in_worker,
            targets,
            names=[t.name for t in targets],
            policy=retry_policy,
            jobs=min(jobs, len(targets)),
            initializer=_init_worker,
            initargs=(self.system, self.energy_params, recorder.enabled),
            on_success=on_success,
            raise_failures=retry_policy is None,
        )
        values, failures = mapper.run()
        if recorder.enabled:
            # Merge worker snapshots in input order, as the legacy
            # pool.map path did, so additive sums stay deterministic.
            unwrapped = []
            for value in values:
                if value is None:
                    unwrapped.append(None)
                    continue
                comparison, snapshot = value
                recorder.merge_snapshot(snapshot)
                unwrapped.append(comparison)
            values = unwrapped
        return values, failures

    def _check_config_ships(self, recorder) -> None:
        """Fail fast, with a cause, when the config cannot reach workers.

        Without this, a config that does not pickle cleanly dies inside
        the pool initializer and surfaces only as an opaque
        ``BrokenProcessPool``.
        """
        import pickle

        try:
            pickle.dumps((self.system, self.energy_params, recorder.enabled))
        except Exception as exc:
            raise ValueError(
                "configuration cannot be shipped to pool workers "
                "(must pickle cleanly): %r" % exc
            ) from exc

    def _journal(self, checkpoint) -> SweepCheckpoint | None:
        if checkpoint is None:
            return None
        if isinstance(checkpoint, SweepCheckpoint):
            return checkpoint
        return SweepCheckpoint(
            checkpoint, key=sweep_key((self.system, self.energy_params))
        )


def _mean(values: list[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)


# ----------------------------------------------------------------------
# Cache-geometry config sweeps over one shared trace artifact
# ----------------------------------------------------------------------

#: Per-process replay state for parallel config sweeps: (trace, params,
#: instructions_per_access), set by the pool initializer from the
#: memory-mapped artifact so workers never re-trace the kernel.
_SWEEP_TRACE_STATE = None


def _init_sweep_worker(
    artifact_path, content_hash, timing_params, instructions_per_access
):
    global _SWEEP_TRACE_STATE
    _install_worker_fault_handlers()
    from repro.sim.artifact import TraceArtifact

    try:
        artifact = TraceArtifact.load(
            artifact_path, mmap=True, expected_hash=content_hash
        )
        _SWEEP_TRACE_STATE = (
            artifact.trace(), timing_params, instructions_per_access
        )
    except BaseException as exc:
        print(
            "repro: sweep worker initializer failed: %r" % exc,
            file=sys.stderr,
            flush=True,
        )
        raise


def _sweep_config_in_worker(job):
    label, soc = job
    maybe_inject_fault(label)
    trace, params, ipa = _SWEEP_TRACE_STATE
    return _evaluate_sweep_config(trace, soc, params, ipa)


#: Per-process batch engine for sharded sweeps (set by the shard pool
#: initializer from the memory-mapped artifact; reused across shards).
_SHARD_EVALUATOR = None


def _init_shard_worker(
    artifact_path,
    content_hash,
    timing_params,
    instructions_per_access,
    observe: bool = False,
):
    global _SHARD_EVALUATOR
    _install_worker_fault_handlers()
    from repro.sim.artifact import TraceArtifact
    from repro.sim.batch import ShardEvaluator

    try:
        # Zero-copy trace sharing: the worker opens the artifact by path
        # *and* content hash — no trace bytes cross the pool boundary,
        # and a file swapped under the path is rejected at open.
        artifact = TraceArtifact.load(
            artifact_path, mmap=True, expected_hash=content_hash
        )
        _SHARD_EVALUATOR = ShardEvaluator(
            artifact.trace(),
            params=timing_params,
            instructions_per_access=instructions_per_access,
        )
    except BaseException as exc:
        print(
            "repro: shard worker initializer failed: %r" % exc,
            file=sys.stderr,
            flush=True,
        )
        raise
    if observe:
        from repro.obs.recorder import Recorder, set_recorder

        set_recorder(Recorder())


def _sweep_shard_in_worker(job):
    """One shard's rows: ``[(plan_index, label, row), ...]``.

    Fault hooks fire on the shard name and then on each config label,
    so fault plans can target either a whole shard (worker-level
    crash/hang) or a single geometry within it.
    """
    shard_name, items = job
    maybe_inject_fault(shard_name)
    for _, label, _ in items:
        maybe_inject_fault(label)
    stats, timings = _SHARD_EVALUATOR.evaluate([soc for _, _, soc in items])
    ipa = _SHARD_EVALUATOR.instructions_per_access
    return [
        (index, label, _sweep_row(soc, s, t, ipa))
        for (index, label, soc), s, t in zip(items, stats, timings)
    ]


def _sweep_shard_in_worker_observed(job):
    """Shard task when observability is on: (rows, obs snapshot)."""
    recorder = get_recorder()
    recorder.reset()
    with recorder.span("core.runner.shard.%s" % job[0]):
        rows = _sweep_shard_in_worker(job)
    return rows, recorder.snapshot()


def _evaluate_sweep_config(trace, soc, timing_params, instructions_per_access):
    """One geometry's row: serial cache replay + serial timing replay."""
    from repro.sim.cache import CacheHierarchy
    from repro.sim.timing import TimingSimulator

    stats = CacheHierarchy(soc).replay_fast(trace)
    timing = TimingSimulator(soc, timing_params).replay_fast(
        trace, instructions_per_access
    )
    return _sweep_row(soc, stats, timing, instructions_per_access)


def _sweep_row(soc, stats, timing, instructions_per_access) -> dict:
    """A JSON-able sweep-point row (also the checkpoint payload).

    ``pim_candidate`` applies the paper's Section 3.2 memory-intensity
    criterion (LLC MPKI > 10) at this geometry's *measured* miss count,
    with instructions estimated from the replayed access count.
    """
    from repro.config import soc_cache_label

    instructions = timing.accesses * instructions_per_access
    mpki = (
        stats.llc.misses / (instructions / 1000.0) if instructions > 0 else 0.0
    )
    return {
        "config": soc_cache_label(soc),
        "l1_bytes": soc.l1.size_bytes,
        "l1_assoc": soc.l1.associativity,
        "llc_bytes": soc.l2.size_bytes,
        "llc_assoc": soc.l2.associativity,
        "accesses": timing.accesses,
        "l1_misses": stats.l1.misses,
        "l1_miss_rate": (
            stats.l1.misses / stats.l1.accesses if stats.l1.accesses else 0.0
        ),
        "llc_misses": stats.llc.misses,
        "llc_mpki": mpki,
        "pim_candidate": mpki > 10.0,
        "dram_line_reads": stats.dram_line_reads,
        "dram_line_writes": stats.dram_line_writes,
        "dram_bytes": stats.dram_bytes,
        "cycles": timing.cycles,
        "timing_dram_misses": timing.dram_misses,
        "stall_fraction": timing.stall_fraction,
    }


@dataclass
class ConfigSweepResult:
    """Rows for every surviving geometry, in input order."""

    rows: list[dict] = field(default_factory=list)
    failures: list[TargetFailure] = field(default_factory=list)
    #: Whether the batched engine produced the fresh rows (False: serial
    #: path, by request or after a fault-containment fallback).
    batched: bool = False

    @property
    def degraded(self) -> bool:
        return bool(self.failures)

    def by_config(self, label: str) -> dict:
        for row in self.rows:
            if row["config"] == label:
                return row
        raise KeyError("no sweep row for config %r" % label)


class ConfigSweep:
    """Evaluates N cache geometries over one shared trace artifact.

    The artifact (:class:`repro.sim.artifact.TraceArtifact`) is
    materialized once per workload; every geometry replays the same
    memoized run stream.  ``batch=True`` evaluates all pending
    geometries in a single pass (:func:`repro.sim.batch.replay_batch` —
    bit-identical per config to the serial path, so the two modes can
    be mixed freely across resume boundaries).

    With ``jobs > 1`` the batch plan itself is sharded across pool
    workers (:func:`repro.sim.batch.plan_shards`): each worker opens the
    on-disk artifact by path + content hash (memory-mapped — the trace
    is never pickled) and evaluates its shard through the same
    per-config finish helpers, so parallel rows are bit-identical to
    the single-process batch and to serial replay.  An in-memory
    artifact is auto-saved to ``trace_dir`` first.

    Resilience composes as in :class:`ExperimentRunner`: a checkpoint
    journal keyed by the artifact's ``content_hash`` makes sweeps
    resumable, and a retry policy quarantines a faulty *config* without
    discarding the shared trace — a batched pass that fails falls back
    to the resilient serial path over the same in-memory artifact, so
    one bad geometry costs its own row, never the trace.  A shard whose
    worker keeps dying is contained the same way: its configs fall back
    to the in-process serial path after the retry budget is spent.
    """

    def __init__(
        self,
        artifact,
        timing_params=None,
        instructions_per_access: float = 2.0,
        trace_dir=None,
    ):
        from repro.sim.timing import TimingParameters

        self.artifact = artifact
        self.timing_params = timing_params or TimingParameters()
        self.instructions_per_access = instructions_per_access
        self.trace_dir = trace_dir

    def evaluate(
        self,
        socs,
        batch: bool = True,
        jobs: int = 1,
        retry_policy: RetryPolicy | None = None,
        checkpoint=None,
        resume: bool = False,
    ) -> ConfigSweepResult:
        from repro.config import soc_cache_label

        socs = list(socs)
        labels = [soc_cache_label(s) for s in socs]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate cache geometries in sweep: %r" % labels)
        recorder = get_recorder()
        with recorder.span("core.runner.config_sweep"):
            journal = self._journal(checkpoint)
            try:
                resumed: dict[str, dict] = {}
                if journal is not None and resume:
                    entries = journal.entries()
                    resumed = {
                        label: entries[label] for label in labels if label in entries
                    }
                    if recorder.enabled and resumed:
                        recorder.counters.add(
                            "core.resilience.resumed", len(resumed)
                        )
                pending = [
                    (label, soc)
                    for label, soc in zip(labels, socs)
                    if label not in resumed
                ]
                fresh: dict[str, dict] = {}
                failures: list[TargetFailure] = []
                batched = False
                if pending and batch and jobs > 1 and len(pending) > 1:
                    parallel = self._evaluate_batch_parallel(
                        pending, jobs, retry_policy, journal, recorder
                    )
                    if parallel is not None:
                        shard_fresh, failures, used_fallback = parallel
                        fresh.update(shard_fresh)
                        batched = not used_fallback
                        pending = []
                if pending and batch:
                    rows = self._evaluate_batch(pending, retry_policy, recorder)
                    if rows is not None:
                        batched = True
                        for (label, _), row in zip(pending, rows):
                            fresh[label] = row
                            if journal is not None:
                                journal.append(label, row)
                        pending = []
                if pending:
                    values, failures = self._evaluate_serial(
                        pending, jobs, retry_policy, journal, recorder
                    )
                    fresh.update(
                        (label, row)
                        for (label, _), row in zip(pending, values)
                        if row is not None
                    )
                if recorder.enabled:
                    recorder.counters.add("core.runner.config_sweeps", 1)
                    recorder.counters.add(
                        "core.runner.config_sweep_points", len(fresh) + len(resumed)
                    )
            finally:
                if journal is not None and journal is not checkpoint:
                    journal.close()
        rows = [
            (resumed.get(label) or fresh.get(label))
            for label in labels
            if label in resumed or label in fresh
        ]
        return ConfigSweepResult(rows=rows, failures=failures, batched=batched)

    # ------------------------------------------------------------------
    def _evaluate_batch(self, pending, retry_policy, recorder):
        """All pending geometries in one shared pass; None = fall back.

        Fault-injection hooks fire per config *before* the pass, so a
        planned fault degrades to the serial path (where it is retried
        and, if persistent, quarantined alone) instead of poisoning the
        batch.  Any batch-path failure is contained the same way when a
        retry policy is present; without one the legacy fail-fast
        contract applies.
        """
        from repro.sim.batch import sweep_batch

        trace = self.artifact.trace()
        try:
            for label, _ in pending:
                maybe_inject_fault(label)
            stats, timings = sweep_batch(
                trace,
                [soc for _, soc in pending],
                params=self.timing_params,
                instructions_per_access=self.instructions_per_access,
            )
        except Exception:
            if retry_policy is None:
                raise
            if recorder.enabled:
                recorder.counters.add("core.runner.batch_fallbacks", 1)
            return None
        return [
            _sweep_row(soc, s, t, self.instructions_per_access)
            for (_, soc), s, t in zip(pending, stats, timings)
        ]

    def _evaluate_batch_parallel(
        self, pending, jobs, retry_policy, journal, recorder
    ):
        """Shards of one batch plan across pool workers; None = not sharded.

        Returns ``(fresh, failures, used_fallback)``.  The plan is
        partitioned by L1 geometry (:func:`repro.sim.batch.plan_shards`)
        and each shard runs in a pool worker that memory-maps the
        artifact — only geometry specs travel out and compact row dicts
        travel back.  Shard workers publish per-config ``sim.*``
        counters into their own recorders (merged here); the plan-level
        ``sim.replay_batch.*`` records are published exactly once by
        this parent, so the merged registry matches a single-process
        batched sweep.  A shard that exhausts its retries is contained:
        its configs fall back to the in-process serial path
        (``core.runner.shard_fallbacks``).
        """
        from repro.sim.batch import plan_shards, publish_sweep_plan

        try:
            path = self._ensure_artifact_path()
        except Exception:
            if retry_policy is None:
                raise
            if recorder.enabled:
                recorder.counters.add("core.runner.batch_fallbacks", 1)
            return None  # the in-memory single-process batch still works
        items = [(i, label, soc) for i, (label, soc) in enumerate(pending)]
        shards = plan_shards(items, jobs)
        if len(shards) < 2:
            return None
        shard_names = ["shard-%d" % k for k in range(len(shards))]
        observe = recorder.enabled

        def journal_success(index, name, value):
            if journal is None:
                return
            rows = value[0] if isinstance(value, tuple) else value
            for _, label, row in rows:
                journal.append(label, row)

        jobs_used = min(jobs, len(shards))
        values, shard_failures = ResilientMap(
            _sweep_shard_in_worker_observed if observe else _sweep_shard_in_worker,
            list(zip(shard_names, shards)),
            names=shard_names,
            policy=retry_policy,
            jobs=jobs_used,
            initializer=_init_shard_worker,
            initargs=(
                str(path),
                self.artifact.content_hash,
                self.timing_params,
                self.instructions_per_access,
                observe,
            ),
            on_success=journal_success,
            raise_failures=retry_policy is None,
        ).run()
        fresh: dict[str, dict] = {}
        for value in values:
            if value is None:
                continue
            if observe:
                rows, snapshot = value
                recorder.merge_snapshot(snapshot)
            else:
                rows = value
            for _, label, row in rows:
                fresh[label] = row
        failures: list[TargetFailure] = []
        fb_pending = []
        if shard_failures:
            by_name = dict(zip(shard_names, shards))
            fb_items = sorted(
                (item for f in shard_failures for item in by_name[f.target]),
                key=lambda item: item[0],
            )
            fb_pending = [(label, soc) for _, label, soc in fb_items]
            if recorder.enabled:
                recorder.counters.add(
                    "core.runner.shard_fallbacks", len(shard_failures)
                )
            fb_values, failures = self._evaluate_serial(
                fb_pending, 1, retry_policy, journal, recorder
            )
            fresh.update(
                (label, row)
                for (label, _), row in zip(fb_pending, fb_values)
                if row is not None
            )
        if recorder.enabled:
            n_sharded = len(pending) - len(fb_pending)
            if n_sharded:
                publish_sweep_plan(
                    recorder, n_sharded, self.artifact.num_runs
                )
            recorder.counters.add("core.runner.parallel_batches", 1)
            recorder.counters.add("core.runner.shards", len(shards))
            recorder.counters.max("core.runner.pool_workers", jobs_used)
        return fresh, failures, bool(shard_failures)

    def _ensure_artifact_path(self) -> Path:
        """The artifact's on-disk path, auto-saving an in-memory one.

        Pool workers open the trace by path + content hash instead of
        pickling columns, so a sharded sweep needs a file.  An artifact
        built in memory is saved once into ``trace_dir`` (default: the
        cache's trace directory), counted as ``sim.artifact.autosaves``
        — parallel sweeps never silently degrade to single-process.
        """
        if self.artifact.path is not None:
            return self.artifact.path
        from repro.core.memo import default_cache_dir

        directory = (
            Path(self.trace_dir)
            if self.trace_dir is not None
            else default_cache_dir() / "traces"
        )
        safe = "".join(
            c if (c.isalnum() or c in "-_.") else "_"
            for c in (self.artifact.workload or "trace")
        )
        path = directory / (
            "auto-%s-%s.trace" % (safe, self.artifact.content_hash[:16])
        )
        self.artifact.save(path)
        get_recorder().counters.add("sim.artifact.autosaves", 1)
        return path

    def _evaluate_serial(self, pending, jobs, retry_policy, journal, recorder):
        def journal_success(index, name, value):
            if journal is not None:
                journal.append(name, value)

        names = [label for label, _ in pending]
        if jobs > 1 and len(pending) > 1:
            path = self._ensure_artifact_path()
            mapper = ResilientMap(
                _sweep_config_in_worker,
                pending,
                names=names,
                policy=retry_policy,
                jobs=min(jobs, len(pending)),
                initializer=_init_sweep_worker,
                initargs=(
                    str(path),
                    self.artifact.content_hash,
                    self.timing_params,
                    self.instructions_per_access,
                ),
                on_success=journal_success,
                raise_failures=retry_policy is None,
            )
            return mapper.run()
        trace = self.artifact.trace()

        def evaluate_one(job):
            label, soc = job
            with recorder.span("core.runner.config.%s" % label):
                maybe_inject_fault(label)
                return _evaluate_sweep_config(
                    trace, soc, self.timing_params, self.instructions_per_access
                )

        return ResilientMap(
            evaluate_one,
            pending,
            names=names,
            policy=retry_policy,
            jobs=1,
            on_success=journal_success,
            raise_failures=retry_policy is None,
        ).run()

    def _journal(self, checkpoint) -> SweepCheckpoint | None:
        """Journal keyed by artifact content + sweep parameters.

        Embedding ``content_hash`` means a journal written against one
        trace can never resume a sweep over a different one — the
        mismatched key rotates the file aside, exactly like a code edit.
        """
        if checkpoint is None:
            return None
        if isinstance(checkpoint, SweepCheckpoint):
            return checkpoint
        key = "%s:%s" % (
            self.artifact.content_hash,
            sweep_key((self.timing_params, self.instructions_per_access)),
        )
        return SweepCheckpoint(checkpoint, key=key)
