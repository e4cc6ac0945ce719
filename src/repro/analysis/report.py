"""EXPERIMENTS.md generator.

Run ``python -m repro.analysis.report`` to regenerate every experiment
and rewrite EXPERIMENTS.md with paper-vs-measured values.

Figure regeneration is deterministic, so :func:`all_results` optionally
(a) farms the experiments out to a ``ProcessPoolExecutor`` and (b)
memoizes each figure's rows in a content-keyed on-disk cache
(:mod:`repro.core.memo`), keyed by the figure name and a hash of the
package source.  ``python -m repro figures`` enables the cache by
default, so repeated report runs with an unchanged tree skip all model
work.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.base import FigureResult
from repro.core.memo import MemoCache


def _deferred(name: str):
    """The figure function ``repro.analysis.<name>``, imported when called.

    The stand-in keeps the figure's ``__name__`` (its memo key and span
    name), so a warm run that answers every figure from the cache never
    imports a figure harness, workload model or NumPy.  The package's
    lazy export table names the module that defines each figure.
    """

    def experiment() -> FigureResult:
        from repro import analysis

        return getattr(analysis, name)()

    experiment.__name__ = experiment.__qualname__ = name
    return experiment


#: Every experiment, in paper order.
EXPERIMENTS = tuple(
    _deferred(name)
    for name in (
        "table1_configuration",
        "fig01_scrolling_energy",
        "fig02_docs_breakdown",
        "fig04_zram_traffic",
        "fig06_tf_energy",
        "fig07_tf_time",
        "fig10_sw_decoder_energy",
        "fig11_sw_decoder_components",
        "fig12_hw_decoder_traffic",
        "fig15_sw_encoder_energy",
        "fig16_hw_encoder_traffic",
        "fig18_browser_pim",
        "fig19_tf_pim",
        "fig20_video_pim",
        "fig21_hw_codec_pim",
        "headline_summary",
    )
)


def _run_experiment(index: int) -> FigureResult:
    """Run one experiment by index (module-level, so it pickles)."""
    return EXPERIMENTS[index]()


def _run_experiment_observed(index: int):
    """Worker task when observability is on: (result, obs snapshot)."""
    from repro.obs.recorder import Recorder, set_recorder

    recorder = Recorder()
    set_recorder(recorder)
    with recorder.span("analysis.figure.%s" % EXPERIMENTS[index].__name__):
        result = EXPERIMENTS[index]()
    return result, recorder.snapshot()


def all_results(
    jobs: int = 1, cache: MemoCache | None = None
) -> list[FigureResult]:
    """Regenerate every experiment.

    Args:
        jobs: worker processes; ``1`` runs everything in-process.
        cache: optional :class:`MemoCache`; hits skip regeneration, and
            fresh results are stored for the next run.

    An experiment that raises fails the whole run with its own exception.
    """
    from repro.core.resilience import ResilientMap
    from repro.obs.recorder import get_recorder

    recorder = get_recorder()
    results: dict[int, FigureResult] = {}
    pending: list[int] = []
    try:
        with recorder.span("analysis.all_results"):
            for index, fn in enumerate(EXPERIMENTS):
                hit = cache.get(fn.__name__) if cache is not None else None
                if hit is not None:
                    results[index] = FigureResult.from_jsonable(hit)
                else:
                    pending.append(index)
            if jobs > 1 and len(pending) > 1:
                observed = recorder.enabled
                values = ResilientMap(
                    _run_experiment_observed if observed else _run_experiment,
                    pending,
                    jobs=jobs,
                ).run()
                if observed:
                    unwrapped = []
                    for result, snapshot in values:
                        recorder.merge_snapshot(snapshot)
                        unwrapped.append(result)
                    values = unwrapped
            else:
                values = []
                for index in pending:
                    with recorder.span(
                        "analysis.figure.%s" % EXPERIMENTS[index].__name__
                    ):
                        values.append(_run_experiment(index))
            for index, result in zip(pending, values):
                results[index] = result
                if cache is not None:
                    cache.put(EXPERIMENTS[index].__name__, result.to_jsonable())
    finally:
        if cache is not None:
            cache.flush()
    return [results[i] for i in range(len(EXPERIMENTS))]


_PREAMBLE = """# EXPERIMENTS — paper vs. measured

Generated by `python -m repro.analysis.report`.  Every table and figure
of the paper's evaluation is regenerated by the models in this
repository; for each, the paper's reported anchor values are compared
against our measured values.  Absolute joules/seconds are model outputs
(see DESIGN.md, "Fidelity notes"); the reproduction targets *shapes*:
who wins, approximate factors, and crossovers.

Schematic-only figures (3, 5, 8, 9, 13, 14, 17) have no data series;
their data-flow structure is implemented by the corresponding modules
(`repro.core.offload`, `repro.workloads.vp9.hardware`) and exercised by
the test suite.
"""


def render_markdown(
    results: list[FigureResult],
    perf: dict | None = None,
    kernels: dict | None = None,
    batched: dict | None = None,
    store: dict | None = None,
    parallel: dict | None = None,
) -> str:
    from repro.analysis.scorecard import score_figures

    card = score_figures(results)
    lines = [_PREAMBLE]
    lines.append(
        "**Scorecard: %d of %d paper anchors reproduce within tolerance "
        "(%.0f%%).**  The known misses are structural and documented in "
        "the per-figure notes below (chiefly: our conservative internal-"
        "DRAM energy caps the Figure 21 PIM-Acc magnitude, and our PIM "
        "models are somewhat more favourable to PIM than the paper's "
        "gem5 results on the video kernels).\n"
        % (card.passed, card.total, 100 * card.pass_rate)
    )
    for result in results:
        lines.append("## %s — %s\n" % (result.figure_id, result.title))
        if result.anchors:
            lines.append("| anchor | paper | measured |")
            lines.append("|---|---|---|")
            for name, (paper, measured) in result.anchors.items():
                lines.append(
                    "| %s | %s | %s |"
                    % (name, _fmt(paper), _fmt(measured))
                )
            lines.append("")
        # One table per distinct column tuple, in order of first appearance.
        tables: dict[tuple, list[dict]] = {}
        for row in result.rows:
            tables.setdefault(tuple(row), []).append(row)
        for keys, rows in tables.items():
            lines.append("| " + " | ".join(keys) + " |")
            lines.append("|" + "---|" * len(keys))
            for row in rows:
                lines.append("| " + " | ".join(_fmt(row[k]) for k in keys) + " |")
            lines.append("")
        if result.notes:
            lines.append("*Note: %s*\n" % result.notes)
    perf = perf if perf is not None else load_perf_baseline()
    if perf:
        lines.append(_render_perf_section(perf))
    kernels = kernels if kernels is not None else load_kernel_baseline()
    if kernels:
        lines.append(_render_kernel_perf_section(kernels))
    batched = batched if batched is not None else load_batched_baseline()
    if batched:
        lines.append(_render_batched_perf_section(batched))
    parallel = parallel if parallel is not None else load_parallel_baseline()
    if parallel:
        lines.append(_render_parallel_perf_section(parallel))
    store = store if store is not None else load_store_baseline()
    if store:
        lines.append(_render_store_perf_section(store))
    return "\n".join(lines) + "\n"


#: Where the trace-engine benchmark records its headline numbers.
PERF_BASELINE_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_trace_engine.json"
)

#: Where the vectorized-kernel benchmark records scalar-vs-fast timings.
KERNEL_BASELINE_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_kernels.json"
)

#: Where the config-batched sweep benchmark records its headline numbers.
BATCHED_BASELINE_PATH = (
    Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "BENCH_batched_replay.json"
)


def load_batched_baseline(path: str | Path | None = None) -> dict | None:
    """The committed batched-sweep benchmark record, if present."""
    target = Path(path) if path is not None else BATCHED_BASELINE_PATH
    try:
        with open(target) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _render_batched_perf_section(record: dict) -> str:
    lines = ["## Performance — config-batched sweeps\n"]
    lines.append(
        "Recorded by `benchmarks/bench_batched_replay.py` (re-run it to "
        "refresh `benchmarks/BENCH_batched_replay.json`).  Baseline is "
        "the trace-per-config path (every geometry re-traces the kernel "
        "and replays serially); the batched path traces once into a "
        "columnar `TraceArtifact` and evaluates the whole geometry grid "
        "in one `sweep_batch` pass.  Both paths are verified "
        "bit-identical on every benchmark run before timing.\n"
    )
    lines.append(
        "| sweep | configs | accesses | trace-per-config (s) | "
        "trace-once batched (s) | speedup |"
    )
    lines.append("|---|---|---|---|---|---|")
    for row in record.get("sweeps", []):
        lines.append(
            "| %s | %d | %d | %.3f | %.3f | %.1fx |"
            % (
                row["name"],
                row["configs"],
                row["accesses"],
                row["baseline_s"],
                row["batched_s"],
                row["speedup"],
            )
        )
    lines.append("")
    lines.append(
        "Geomean end-to-end sweep speedup: **%.1fx**.\n"
        % record.get("headline_speedup", 0.0)
    )
    return "\n".join(lines)


#: Where the parallel shard benchmark records its multicore numbers.
PARALLEL_BASELINE_PATH = (
    Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "BENCH_parallel_batch.json"
)


def load_parallel_baseline(path: str | Path | None = None) -> dict | None:
    """The committed parallel-shard benchmark record, if present."""
    target = Path(path) if path is not None else PARALLEL_BASELINE_PATH
    try:
        with open(target) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _render_parallel_perf_section(record: dict) -> str:
    lines = ["## Performance — multicore sharded sweeps\n"]
    lines.append(
        "Recorded by `benchmarks/bench_parallel_batch.py` (re-run it to "
        "refresh `benchmarks/BENCH_parallel_batch.json`).  Baseline is "
        "the single-process config-batched sweep above; the parallel "
        "path shards the geometry grid across `jobs=%d` worker "
        "processes that each memory-map the same on-disk trace artifact "
        "(nothing is pickled).  Both paths are verified bit-identical "
        "on every benchmark run before timing.  Speedup scales with "
        "cores: this record was measured on a %d-core host, so treat "
        "it as the floor, not the ceiling — the pytest gate asserts "
        ">=3x geomean on 4+-core machines.\n"
        % (record.get("jobs", 0), record.get("cpu_count", 0))
    )
    lines.append(
        "| sweep | configs | accesses | 1-process (s) | "
        "jobs=%d (s) | speedup |" % record.get("jobs", 0)
    )
    lines.append("|---|---|---|---|---|---|")
    for row in record.get("sweeps", []):
        lines.append(
            "| %s | %d | %d | %.3f | %.3f | %.1fx |"
            % (
                row["name"],
                row["configs"],
                row["accesses"],
                row["baseline_s"],
                row["parallel_s"],
                row["speedup"],
            )
        )
    lines.append("")
    lines.append(
        "Geomean multicore sweep speedup on this host: **%.1fx**.\n"
        % record.get("headline_speedup", 0.0)
    )
    return "\n".join(lines)


#: Where the segment-store benchmark records write/hit numbers.
STORE_BASELINE_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_store.json"
)


def load_store_baseline(path: str | Path | None = None) -> dict | None:
    """The committed segment-store benchmark record, if present."""
    target = Path(path) if path is not None else STORE_BASELINE_PATH
    try:
        with open(target) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _render_store_perf_section(record: dict) -> str:
    lines = ["## Performance — segment-merged result store\n"]
    lines.append(
        "Recorded by `benchmarks/bench_store.py` (re-run it to refresh "
        "`benchmarks/BENCH_store.json`).  Baseline is the pre-segment "
        "memo cache's one-JSON-document-per-entry two-phase commit, "
        "whose cost is dominated by per-entry file opens and renames.  "
        "The segment store batches entries "
        "into single append-only blob writes with per-entry BLAKE2 "
        "checksums and an in-blob offset index (DESIGN.md section 11); "
        "every benchmark run verifies both layouts read back identical "
        "values before timing.\n"
    )
    lines.append("| payload shape | entries | write speedup | cold-read speedup |")
    lines.append("|---|---|---|---|")
    for row in record.get("sweeps", []):
        lines.append(
            "| %s | %d | %.1fx | %.1fx |"
            % (
                row["name"],
                row["entries"],
                row["write"]["speedup"],
                row["hit"]["speedup"],
            )
        )
    lines.append("")
    lines.append(
        "Geomean write-path speedup: **%.1fx** entries/sec over "
        "file-per-entry, with cold cache re-reads no worse than the "
        "legacy layout (floor enforced by CI's perf-smoke "
        "`bench_store.py --quick` gate).\n"
        % record.get("headline_write_speedup", 0.0)
    )
    return "\n".join(lines)


def load_kernel_baseline(path: str | Path | None = None) -> dict | None:
    """The committed vectorized-kernel benchmark record, if present."""
    target = Path(path) if path is not None else KERNEL_BASELINE_PATH
    try:
        with open(target) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _render_kernel_perf_section(record: dict) -> str:
    lines = ["## Performance — vectorized kernel engine\n"]
    lines.append(
        "Recorded by `benchmarks/bench_perf_kernels.py` (scalar oracle vs "
        "NumPy fast path, full sizes; re-run it to refresh "
        "`benchmarks/BENCH_kernels.json`).  Both engines are bit-identical "
        "on output — `tests/perf/test_vectorized_equivalence.py` is the "
        "correctness gate; these numbers are the speed side.  Diamond "
        "search and LZO compression are control-flow-bound (mid-ring "
        "re-centering, greedy parse), so their smaller gains are recorded "
        "rather than held to the 5x bar.\n"
    )
    lines.append("| kernel | scalar oracle (s) | fast path (s) | speedup |")
    lines.append("|---|---|---|---|")
    for row in record.get("kernels", []):
        lines.append(
            "| %s | %.4f | %.4f | %.1fx |"
            % (row["name"], row["scalar_s"], row["fast_s"], row["speedup"])
        )
    lines.append("")
    lines.append(
        "Geomean speedup: **%.1fx**.\n" % record.get("headline_speedup", 0.0)
    )
    return "\n".join(lines)


def load_perf_baseline(path: str | Path | None = None) -> dict | None:
    """The committed trace-engine benchmark record, if present."""
    target = Path(path) if path is not None else PERF_BASELINE_PATH
    try:
        with open(target) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _render_perf_section(perf: dict) -> str:
    lines = ["## Performance — trace-engine replay throughput\n"]
    lines.append(
        "Recorded by `benchmarks/bench_perf_trace_engine.py` "
        "(re-run it to refresh these numbers).\n"
    )
    lines.append("| trace | accesses | per-access (lines/s) | line-run fast path (lines/s) | speedup |")
    lines.append("|---|---|---|---|---|")
    for row in perf.get("traces", []):
        lines.append(
            "| %s | %d | %s | %s | %.1fx |"
            % (
                row["name"],
                row["accesses"],
                _si(row["baseline_lines_per_s"]),
                _si(row["fast_lines_per_s"]),
                row["speedup"],
            )
        )
    lines.append("")
    return "\n".join(lines)


def _si(value: float) -> str:
    if value >= 1e6:
        return "%.2fM" % (value / 1e6)
    if value >= 1e3:
        return "%.1fk" % (value / 1e3)
    return "%.0f" % value


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)


def write_experiments_md(
    path: str = "EXPERIMENTS.md",
    jobs: int = 1,
    cache: MemoCache | None = None,
) -> str:
    content = render_markdown(all_results(jobs=jobs, cache=cache))
    with open(path, "w") as f:
        f.write(content)
    return path


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    path = argv[0] if argv else "EXPERIMENTS.md"
    written = write_experiments_md(path)
    print("wrote %s" % written)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
