"""The repository benchmark: user-command workloads timed end to end.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One closed-loop client repeats
the workload's operation for ``--seconds`` and checks every output
against ``perfbench/reference.json``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference host speed (:class:`workloads.HostSpeed`).  ``--trace 1`` spends
half the time untraced and half traced, and reports the per-layer
metrics: self time per layer, counts, the time no span covers, and the
tracing overhead.  It also prints the self-time table and writes a
Chrome trace of the last traced operation to ``.perfbench_out/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import SWEEP_WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

FIGURES = (
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

#: Layer metrics whose value is a layer's self time per operation.
SELF_TIME_LAYERS = (
    ["workloads.tensorflow.network_functions", "sim.profile.kernel_profile",
     "energy.model", "core.offload.compare"]
    + ["analysis.figure." + name for name in FIGURES]
    + ["analysis.render", "core.memo.put", "core.memo.get",
       "sim.cache.replay", "sim.timing.replay"]
    + ["analysis.cachesweep." + name for name in SWEEP_WORKLOADS]
    + ["sim.artifact.open"]
)

PER_LAYER = {
    "import.repro_cli_s": "s",
    "import.repro_modules_loaded": "count",
    "cli.figures_s": "s",
    "cli.evaluate_s": "s",
    "cli.cachesweep_s": "s",
    "workloads.trace_build_s": "s",
    "workloads.tensorflow.network_functions_calls": "count",
    "sim.profile.kernel_profiles": "count",
    "core.store.flushes": "count",
    "core.store.bytes_written": "bytes",
    "core.memo.hit_ratio": "ratio",
    "sim.replay.maccess_per_s": "Maccess/s",
    "sim.artifact.hit_ratio": "ratio",
    "core.resilience.map_self_s": "s",
    "core.pool.parallel_efficiency": "ratio",
    "core.pool.wall_s": "s",
    "obs.tracing_overhead_ratio": "ratio",
    "unattributed_s": "s",
}
PER_LAYER.update({layer + "_s": "s" for layer in SELF_TIME_LAYERS})

#: The workload whose operations exercise each layer metric; metrics
#: not listed (imports, overhead, unattributed time) belong to every one.
HOME_METRICS = {
    "figures": [
        "workloads.tensorflow.network_functions_calls",
        "workloads.tensorflow.network_functions_s",
        "sim.profile.kernel_profiles", "sim.profile.kernel_profile_s",
        "energy.model_s", "core.offload.compare_s", "analysis.render_s",
        "core.memo.put_s", "core.store.flushes", "core.store.bytes_written",
        "core.resilience.map_self_s",
    ] + ["analysis.figure.%s_s" % name for name in FIGURES],
    "sweep": [
        "workloads.trace_build_s", "sim.cache.replay_s", "sim.timing.replay_s",
        "sim.replay.maccess_per_s", "sim.artifact.open_s", "sim.artifact.hit_ratio",
    ] + ["analysis.cachesweep.%s_s" % name for name in SWEEP_WORKLOADS],
    "cli": [
        "cli.figures_s", "cli.evaluate_s", "cli.cachesweep_s",
        "core.memo.get_s", "core.memo.hit_ratio",
    ],
    "sweep-jobs2": ["core.pool.wall_s", "core.pool.parallel_efficiency"],
}
HOME = {name: home for home, names in HOME_METRICS.items() for name in names}

#: Fewest operations per measured phase; the tail percentile needs ten
#: samples beyond it.
MIN_OPS = 11


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-test sizes: one set-up and two operations per phase",
    )
    parser.add_argument(
        "--reference", type=Path, default=HERE / "reference.json",
        help="expected output digests (default: perfbench/reference.json)",
    )
    parser.add_argument(
        "--record-reference", action="store_true",
        help="write this workload's output digests into --reference and exit",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no repro sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print("error: imported repro from %s" % repro.__file__, file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Context, probe_import

    if args.workload not in WORKLOADS:
        print(
            "error: unknown workload %r; choose from %s"
            % (args.workload, ", ".join(WORKLOADS)),
            file=sys.stderr,
        )
        return 2
    reference = json.loads(args.reference.read_text()) if args.reference.exists() else {}
    ctx = Context(ROOT, work, args.seed, reference)
    workload = WORKLOADS[args.workload](ctx)
    reps = 1 if args.quick or args.record_reference else workload.setup_reps
    min_ops = 2 if args.quick else MIN_OPS

    speed = ctx.speed
    setups = [speed.scale(workload.setup()) for _ in range(reps)]
    if args.record_reference:
        return record_reference(args, workload)
    warm = measure(workload, 0, 1)  # lazy imports and first-touch costs
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = measure(workload, seconds, min_ops)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "commit": commit(ROOT),
    }
    if args.trace:
        traced = measure_traced(workload, seconds, min_ops)
        report_layers(args, traced)
        metrics, extra_ops = layer_metrics(args, ctx, workload, plain, traced)
        ops = warm + plain + traced + extra_ops
    else:
        imports = []
        if workload.in_process:
            modules = sorted(
                m for m in sys.modules if m == "repro" or m.startswith("repro.")
            )
            # The first import compiles bytecode and is not counted.
            imports = [
                speed.scale(probe_import(ctx, modules)) for _ in range(reps + 1)
            ][1:]
        scaled = [op.scaled for op in plain if op.wall is not None]
        tail, percentile = tail_of(scaled) if scaled else (0.0, 100)
        metrics = {
            "setup_s": median(setups) + median(imports),
            "op_p50_s": median(scaled),
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(workload.rusage).ru_maxrss / 1024.0,
        }
        meta.update(
            setup_samples=reps, op_samples=len(scaled), tail_percentile=percentile,
            wall_op_p50_s=median(op.wall for op in plain if op.wall is not None),
            host_unit_p50_s=median(speed.units),
        )
        ops = warm + plain
    failed = sum(1 for op in ops if not op.ok)
    for op in ops:
        if not op.ok:
            print("# failed: %s" % op.detail, file=sys.stderr)
    meta.update(attempted=len(ops), error_rate=failed / len(ops))
    print("# meta %s" % json.dumps(meta, sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print("# %-48s %14.6g %s" % (name, metrics[name], unit))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def measure(workload, seconds: float, min_ops: int) -> list:
    """Closed loop: repeat the operation for ``seconds`` (at least ``min_ops``).

    An operation that did not scale its own time to the reference host
    speed (``op.scaled``) is scaled here as a whole.
    """
    from workloads import Op

    speed = workload.ctx.speed
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        try:
            op = workload.operation()
        except Exception:
            traceback.print_exc()
            if workload.ctx.tracer is not None:
                workload.ctx.tracer.events.clear()  # not the next op's
            op = Op(None, False, "raised")
        if op.scaled is None:
            op.scaled = speed.scale(op.wall or 0.0)
        ops.append(op)
    return ops


def measure_traced(workload, seconds: float, min_ops: int) -> list:
    from layers import Tracer, instrumented

    tracer = workload.ctx.tracer = Tracer()
    try:
        if workload.in_process:
            with instrumented(tracer):
                return measure(workload, seconds, min_ops)
        return measure(workload, seconds, min_ops)
    finally:
        workload.ctx.tracer = None


def tail_of(walls: list) -> tuple[float, int]:
    """The highest percentile with ten samples beyond it, and its rank.

    With fewer than eleven samples there is none; the maximum stands in
    and the percentile reads 100.
    """
    ordered = sorted(walls)
    keep = len(ordered) - 10
    if keep < 1:
        return ordered[-1], 100
    return ordered[keep - 1], (100 * keep) // len(ordered)


def layer_metrics(args, ctx, workload, plain: list, traced: list):
    """Per-layer metrics, plus the operations run to fill them in.

    A metric the workload's own operations leave at 0 is measured on
    its :data:`HOME` workload: one set-up, a warm-up, then three (one
    with ``--quick``) untraced and three traced operations there.
    """
    from workloads import WORKLOADS, probe_import_cli

    metrics = layer_values(workload, plain, traced)
    extra_ops = []
    missing = [
        name for name in PER_LAYER
        if not metrics.get(name) and HOME.get(name, args.workload) != args.workload
    ]
    for home in dict.fromkeys(HOME[name] for name in missing):
        other = WORKLOADS[home](ctx)
        other.setup()
        count = 1 if args.quick else 3
        warm = measure(other, 0, 1)
        other_plain = measure(other, 0, count)
        other_traced = measure_traced(other, 0, count)
        values = layer_values(other, other_plain, other_traced)
        filled = [name for name in missing if HOME[name] == home]
        metrics.update((name, values.get(name, 0.0)) for name in filled)
        extra_ops += warm + other_plain + other_traced
        print("# measured on %s: %s" % (home, ", ".join(filled)))
    probes = [probe_import_cli(ctx) for _ in range(3)]
    metrics["import.repro_cli_s"] = median(p["seconds"] for p in probes)
    metrics["import.repro_modules_loaded"] = median(p["modules"] for p in probes)
    plain_p50 = median(op.scaled for op in plain if op.wall is not None)
    traced_p50 = median(op.scaled for op in traced if op.wall is not None)
    metrics["obs.tracing_overhead_ratio"] = (
        traced_p50 / plain_p50 if plain_p50 and traced_p50 else 0.0
    )
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}, extra_ops


def layer_values(workload, plain: list, traced: list) -> dict:
    """One workload's layer values: medians over its traced operations."""
    from layers import self_times

    per_op = [
        op_layers(op, *self_times(op.events)) for op in traced if op.wall is not None
    ]
    values = {
        name: median(op[name] for op in per_op) for name in per_op[0]
    } if per_op else {}
    for command in ("figures", "evaluate", "cachesweep"):
        values["cli.%s_s" % command] = median(
            op.commands[command] for op in plain if command in op.commands
        )
    values["workloads.trace_build_s"] = median(workload.trace_builds)
    return values


def median(values) -> float:
    """The median, or 0.0 when there is no value (every operation failed)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def op_layers(op, selfs: dict, counts: dict) -> dict:
    """One traced operation's per-layer values."""
    from layers import WORKER_ROOTS

    c = op.counters
    values = {layer + "_s": selfs.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    values["unattributed_s"] = selfs.get("op", 0.0)
    values["core.resilience.map_self_s"] = selfs.get("core.resilience.map", 0.0)
    values["workloads.tensorflow.network_functions_calls"] = counts.get(
        "workloads.tensorflow.network_functions", 0
    )
    values["sim.profile.kernel_profiles"] = counts.get("sim.profile.kernel_profile", 0)
    values["core.store.flushes"] = c.get("core.store.flushes", 0)
    values["core.store.bytes_written"] = op.extra.get("bytes_written", 0)
    values["core.memo.hit_ratio"] = ratio(
        c.get("core.memo.hits", 0), c.get("core.memo.misses", 0)
    )
    values["sim.artifact.hit_ratio"] = ratio(
        c.get("sim.artifact.hits", 0), c.get("sim.artifact.misses", 0)
    )
    replay = values["sim.cache.replay_s"] + values["sim.timing.replay_s"]
    batches = c.get("sim.replay_batch.batches", 0)
    per_batch = c.get("sim.replay_batch.configs", 0) / batches if batches else 0.0
    accesses = c.get("sim.replay_batch.runs", 0) * per_batch
    values["sim.replay.maccess_per_s"] = accesses / replay / 1e6 if replay else 0.0
    here = os.getpid()
    pool_wall = sum(
        end - start
        for name, start, end, pid in op.events
        if pid == here and name == "core.resilience.map"
    )
    busy = sum(
        end - start
        for name, start, end, pid in op.events
        if pid != here and name.startswith(WORKER_ROOTS)
    )
    parallel = busy > 0 and pool_wall > 0
    values["core.pool.wall_s"] = pool_wall if parallel else 0.0
    values["core.pool.parallel_efficiency"] = busy / (2 * pool_wall) if parallel else 0.0
    return values


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def report_layers(args, traced: list) -> None:
    """Print the self-time table and write the Chrome trace."""
    from layers import chrome_records, self_times
    from repro.obs.spans import write_chrome_trace

    totals: dict = {}
    walls = 0.0
    for op in traced:
        if op.wall is None:
            continue
        selfs, _ = self_times(op.events)
        walls += op.wall
        for layer, seconds in selfs.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    n = sum(1 for op in traced if op.wall is not None)
    if not n:
        print("# no traced operation succeeded; no self-time table")
        return
    print("# self time per traced operation (%d operations, %.4f s mean wall)"
          % (n, walls / n))
    print("# %-48s %12s %8s" % ("layer", "self (ms)", "share"))
    for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        label = "(unattributed)" if layer == "op" else layer
        print("# %-48s %12.3f %7.1f%%" % (label, 1e3 * seconds / n, 100 * seconds / walls))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / ("%s-seed%d.trace.json" % (args.workload, args.seed))
    events = [op for op in traced if op.wall is not None][-1].events
    write_chrome_trace(path, chrome_records(events))
    print("# chrome trace of the last traced operation: %s" % path)


def commit(root: Path) -> str:
    """The checkout's commit, or 'unknown' outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record_reference(args, workload) -> int:
    """Store one operation's output digests as the workload's reference."""
    op = workload.operation()
    reference = (
        json.loads(args.reference.read_text()) if args.reference.exists() else {}
    )
    key = "sweep" if args.workload.startswith("sweep") else args.workload
    reference[key] = op.extra["digest"]
    args.reference.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print("recorded %s reference: %s" % (key, op.extra["digest"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
