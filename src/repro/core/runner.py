"""Experiment runner: batch evaluation of PIM targets.

Produces the paper's Figures 18-20 data (normalized energy and runtime per
kernel for CPU-Only / PIM-Core / PIM-Acc) and the headline cross-workload
averages (PIM-Core: -49.1% energy / +44.6% performance; PIM-Acc: -55.4% /
+54.2%).

A target that raises fails the whole sweep with its own exception, so
every aggregate is always over the full target list.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import SystemConfig
from repro.core.offload import OffloadEngine, TargetComparison
from repro.core.resilience import ResilientMap
from repro.core.target import PimTarget
from repro.energy.components import EnergyParameters
from repro.obs.recorder import get_recorder


@dataclass
class SweepResult:
    """Results for a set of PIM targets evaluated on all machines."""

    comparisons: list[TargetComparison] = field(default_factory=list)
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

    @property
    def max_pim_core_energy_reduction(self) -> float:
        return max(c.pim_core_energy_reduction for c in self.comparisons)

    @property
    def max_pim_acc_energy_reduction(self) -> float:
        return max(c.pim_acc_energy_reduction for c in self.comparisons)

    @property
    def max_pim_core_speedup(self) -> float:
        return max(c.pim_core_speedup for c in self.comparisons)

    @property
    def max_pim_acc_speedup(self) -> float:
        return max(c.pim_acc_speedup for c in self.comparisons)

    def rows(self) -> list[dict]:
        """Flat result rows for the figure/report harnesses."""
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
        return out


#: Per-process engine for parallel sweeps (set by the pool initializer).
_WORKER_ENGINE: OffloadEngine | None = None


def _install_worker_fault_handlers() -> None:
    """Turn hard crashes in a pool worker (segfaults, aborts) into
    stderr tracebacks, so a dead worker leaves evidence of where it was."""
    import faulthandler

    try:
        faulthandler.enable()
    except (RuntimeError, OSError):
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
    return _WORKER_ENGINE.compare(target)


def _compare_in_worker_observed(target: PimTarget):
    """Worker task when observability is on: (comparison, obs snapshot)."""
    recorder = get_recorder()
    recorder.reset()
    with recorder.span("core.runner.target.%s" % target.name):
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

    def evaluate(self, targets: list[PimTarget], jobs: int = 1) -> SweepResult:
        """Compare every target on all machines.

        Args:
            targets: the PIM targets to evaluate.
            jobs: worker processes; ``1`` evaluates in-process.  Each
                worker builds one engine (via the pool initializer) and
                streams targets through it, so results are identical to
                the serial path, in input order.

        A target that raises fails the sweep with its own exception.
        """
        recorder = get_recorder()
        with recorder.span("core.runner.evaluate"):
            if jobs > 1 and len(targets) > 1:
                comparisons = self._evaluate_parallel(targets, jobs, recorder)
            else:
                comparisons = self._evaluate_in_process(targets, recorder)
        return SweepResult(comparisons=comparisons)

    # ------------------------------------------------------------------
    def _evaluate_in_process(self, targets, recorder) -> list[TargetComparison]:
        comparisons = []
        for target in targets:
            with recorder.span("core.runner.target.%s" % target.name):
                comparison = self.engine.compare(target)
            if recorder.enabled:
                _publish_comparison(recorder, comparison)
            comparisons.append(comparison)
        return comparisons

    def _evaluate_parallel(self, targets, jobs, recorder) -> list[TargetComparison]:
        self._check_config_ships(recorder)
        values = ResilientMap(
            _compare_in_worker_observed if recorder.enabled else _compare_in_worker,
            targets,
            jobs=jobs,
            initializer=_init_worker,
            initargs=(self.system, self.energy_params, recorder.enabled),
        ).run()
        if not recorder.enabled:
            return values
        # Merge worker snapshots in input order, so additive sums stay
        # deterministic.
        comparisons = []
        for comparison, snapshot in values:
            recorder.merge_snapshot(snapshot)
            comparisons.append(comparison)
        return comparisons

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


def _mean(values: list[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)


# ----------------------------------------------------------------------
# Cache-geometry config sweeps over one shared trace artifact
# ----------------------------------------------------------------------

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
    """One shard's rows: ``[(plan_index, label, row), ...]``."""
    _, items = job
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


def _sweep_row(soc, stats, timing, instructions_per_access) -> dict:
    """A JSON-able sweep-point row.

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


class ConfigSweep:
    """Evaluates N cache geometries over one shared trace artifact.

    The artifact (:class:`repro.sim.artifact.TraceArtifact`) is
    materialized once per workload; every geometry replays the same
    memoized run stream, all of them in one batched pass
    (:func:`repro.sim.batch.sweep_batch`, cache and timing together —
    bit-identical per config to the serial replays the tests keep as
    oracles).

    With ``jobs > 1`` the batch plan itself is sharded across pool
    workers (:func:`repro.sim.batch.plan_shards`): each worker opens the
    on-disk artifact by path + content hash (memory-mapped — the trace
    is never pickled) and evaluates its shard through the same
    per-config finish helpers, so parallel rows are bit-identical to
    the single-process batch.  An in-memory artifact is auto-saved to
    ``trace_dir`` first.  A geometry, shard or worker that fails fails
    the sweep.
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

    def evaluate(self, socs, jobs: int = 1) -> list[dict]:
        """Rows for every geometry, in input order."""
        from repro.config import soc_cache_label

        socs = list(socs)
        labels = [soc_cache_label(s) for s in socs]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate cache geometries in sweep: %r" % labels)
        pending = list(zip(labels, socs))
        recorder = get_recorder()
        with recorder.span("core.runner.config_sweep"):
            if not pending:
                rows = []
            elif jobs > 1 and len(pending) > 1:
                rows = self._evaluate_batch_parallel(pending, jobs, recorder)
            else:
                rows = self._evaluate_batch(pending)
            if recorder.enabled:
                recorder.counters.add("core.runner.config_sweeps", 1)
                recorder.counters.add("core.runner.config_sweep_points", len(rows))
        return rows

    # ------------------------------------------------------------------
    def _evaluate_batch(self, pending) -> list[dict]:
        """All pending geometries in one shared pass."""
        from repro.sim.batch import sweep_batch

        stats, timings = sweep_batch(
            self.artifact.trace(),
            [soc for _, soc in pending],
            params=self.timing_params,
            instructions_per_access=self.instructions_per_access,
        )
        return [
            _sweep_row(soc, s, t, self.instructions_per_access)
            for (_, soc), s, t in zip(pending, stats, timings)
        ]

    def _evaluate_batch_parallel(self, pending, jobs, recorder) -> list[dict]:
        """Shards of one batch plan across pool workers.

        The plan is partitioned by L1 geometry
        (:func:`repro.sim.batch.plan_shards`) and each shard runs in a
        pool worker that memory-maps the artifact — only geometry specs
        travel out and compact row dicts travel back.  Shard workers
        publish per-config ``sim.*`` counters into their own recorders
        (merged here); the plan-level ``sim.replay_batch.*`` records are
        published exactly once by this parent, so the merged registry
        matches a single-process batched sweep.
        """
        from repro.sim.batch import plan_shards, publish_sweep_plan

        path = self._ensure_artifact_path()
        items = [(i, label, soc) for i, (label, soc) in enumerate(pending)]
        shards = plan_shards(items, jobs)
        observe = recorder.enabled
        jobs_used = min(jobs, len(shards))
        values = ResilientMap(
            _sweep_shard_in_worker_observed if observe else _sweep_shard_in_worker,
            [("shard-%d" % k, shard) for k, shard in enumerate(shards)],
            jobs=jobs_used,
            initializer=_init_shard_worker,
            initargs=(
                str(path),
                self.artifact.content_hash,
                self.timing_params,
                self.instructions_per_access,
                observe,
            ),
        ).run()
        rows = [None] * len(pending)
        for value in values:
            if observe:
                value, snapshot = value
                recorder.merge_snapshot(snapshot)
            for index, _, row in value:
                rows[index] = row
        if observe:
            publish_sweep_plan(recorder, len(pending), self.artifact.num_runs)
            recorder.counters.add("core.runner.parallel_batches", 1)
            recorder.counters.add("core.runner.shards", len(shards))
            recorder.counters.max("core.runner.pool_workers", jobs_used)
        return rows

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
