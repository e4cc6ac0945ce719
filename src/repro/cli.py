"""Command-line interface.

    python -m repro figures [--figure "Figure 18"] [--write PATH] [--chart]
                            [--jobs N] [--no-cache]
                            [--manifest DIR] [--trace-out PATH] [--strict]
    python -m repro export [--dir figures_data]
    python -m repro evaluate [--workload chrome|tensorflow|vp9|all] [--jobs N]
                             [--manifest DIR] [--trace-out PATH] [--strict]
    python -m repro cachesweep [--workload NAME|all] [--trace-dir DIR]
                               [--jobs N] [--no-cache]
                               [--manifest DIR] [--trace-out PATH] [--strict]
    python -m repro cache {clear|prune} [--dir PATH] [--max-age-days DAYS]
    python -m repro trace {list|prune|clear} [--dir PATH]
                          [--max-age-days DAYS]
    python -m repro characterize
    python -m repro codec [--width W --height H --frames N --qstep Q]
    python -m repro scorecard
    python -m repro areas
"""

from __future__ import annotations

import argparse
import contextlib
import sys


@contextlib.contextmanager
def _obs_session(args):
    """An active recorder while ``--manifest``/``--trace-out`` ask for one.

    Yields the recorder (or None when observability stays off); the
    previous recorder is restored on exit, so in-process callers (tests,
    notebooks) are unaffected by a CLI run.
    """
    if not (getattr(args, "manifest", None) or getattr(args, "trace_out", None)):
        yield None
        return
    from repro.obs.recorder import recording

    with recording() as recorder:
        yield recorder


def _write_obs_outputs(args, recorder, command: str, config=None, results=None):
    """Write the manifest and/or Chrome trace a run asked for."""
    if recorder is None:
        return
    if args.trace_out:
        from repro.obs.spans import write_chrome_trace

        print("wrote trace %s" % write_chrome_trace(args.trace_out, recorder.spans))
    if args.manifest:
        from repro.obs.manifest import build_manifest, write_manifest

        manifest = build_manifest(
            command=command, config=config, results=results, recorder=recorder
        )
        print("wrote manifest %s" % write_manifest(args.manifest, manifest))


def _add_obs_flags(parser) -> None:
    parser.add_argument(
        "--manifest", metavar="DIR",
        help="write a run manifest (manifest.json) into DIR",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write the run's spans as Chrome chrome://tracing JSON",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="check runtime conservation invariants during the run "
        "(equivalent to REPRO_STRICT=1)",
    )


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1, got %d" % args.jobs)


@contextlib.contextmanager
def _memo_cache(args):
    """The memo cache the cache flags ask for (or None with --no-cache),
    closed on exit so an in-process run leaves no segment blob open."""
    if args.no_cache:
        yield None
        return
    from repro.core.memo import MemoCache

    cache = MemoCache()
    try:
        yield cache
    finally:
        cache.close()


def _cmd_figures(args) -> int:
    from repro.analysis.report import all_results, render_markdown

    _check_jobs(args)
    with _memo_cache(args) as cache, _obs_session(args) as recorder:
        results = all_results(jobs=args.jobs, cache=cache)
        if args.write:
            with open(args.write, "w") as f:
                f.write(render_markdown(results))
            print("wrote %s" % args.write)
        else:
            selected = [
                result
                for result in results
                if not args.figure
                or args.figure.lower() in result.figure_id.lower()
            ]
            if not selected:
                raise ValueError(
                    "no figure matches %r; figure ids: %s"
                    % (args.figure, ", ".join(r.figure_id for r in results))
                )
            for result in selected:
                if args.chart:
                    from repro.analysis.ascii import render_chart

                    print(render_chart(result))
                else:
                    print(result.render_text())
                print()
        if recorder is not None:
            from repro.config import default_system

            _write_obs_outputs(
                args,
                recorder,
                command="figures",
                config=default_system(),
                results={"figures": [r.figure_id for r in results]},
            )
    return 0


def _cmd_export(args) -> int:
    from repro.analysis.export import export_all

    written = export_all(args.dir)
    print("wrote %d files to %s" % (len(written), args.dir))
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core.runner import ExperimentRunner

    _check_jobs(args)
    targets = []
    if args.workload in ("chrome", "all"):
        from repro.workloads.chrome.targets import browser_pim_targets

        targets += browser_pim_targets()
    if args.workload in ("tensorflow", "all"):
        from repro.workloads.tensorflow.targets import tensorflow_pim_targets

        targets += tensorflow_pim_targets()
    if args.workload in ("vp9", "all"):
        from repro.workloads.vp9.targets import video_pim_targets

        targets += video_pim_targets()
    with _obs_session(args) as recorder:
        result = ExperimentRunner().evaluate(targets, jobs=args.jobs)
        print(
            "%-26s %8s %8s %9s %9s" % ("kernel", "E core", "E acc", "S core", "S acc")
        )
        for row in result.rows():
            print(
                "%-26s %8.2f %8.2f %8.2fx %8.2fx"
                % (
                    row["target"],
                    row["energy_pim_core"],
                    row["energy_pim_acc"],
                    row["speedup_pim_core"],
                    row["speedup_pim_acc"],
                )
            )
        print(
            "mean energy reduction: core %.1f%%, acc %.1f%%"
            % (
                100 * result.mean_pim_core_energy_reduction,
                100 * result.mean_pim_acc_energy_reduction,
            )
        )
        if recorder is not None:
            from repro.config import default_system

            results = {
                "mean_pim_core_energy_reduction":
                    result.mean_pim_core_energy_reduction,
                "mean_pim_acc_energy_reduction":
                    result.mean_pim_acc_energy_reduction,
                "mean_pim_core_speedup": result.mean_pim_core_speedup,
                "mean_pim_acc_speedup": result.mean_pim_acc_speedup,
                "targets": result.names,
            }
            _write_obs_outputs(
                args,
                recorder,
                command="evaluate --workload %s" % args.workload,
                config=default_system(),
                results=results,
            )
    return 0


def _cmd_cachesweep(args) -> int:
    from repro.analysis.cachesweep import sweep_all, workload_names
    from repro.sim.artifact import TraceStore

    _check_jobs(args)
    if args.workload == "all":
        names = workload_names()
    elif args.workload in workload_names():
        names = [args.workload]
    else:
        raise ValueError(
            "unknown workload %r; available: %s"
            % (args.workload, ", ".join(workload_names() + ["all"]))
        )
    store = TraceStore(args.trace_dir) if args.trace_dir else TraceStore()
    with _memo_cache(args) as cache, _obs_session(args) as recorder:
        # --jobs fans out across workloads (several names) or across
        # shards of one workload's batch plan (a single name).
        documents = sweep_all(names, store=store, cache=cache, jobs=args.jobs)
        for name, document in documents.items():
            print(
                "%s  (artifact %s, batched)" % (name, document["artifact"][:12])
            )
            print(
                "  %-22s %9s %9s %8s %12s %8s"
                % ("config", "L1 miss%", "LLC MPKI", "PIM?", "DRAM bytes", "Mcycles")
            )
            for row in document["rows"]:
                print(
                    "  %-22s %8.2f%% %9.1f %8s %12d %8.2f"
                    % (
                        row["config"],
                        100 * row["l1_miss_rate"],
                        row["llc_mpki"],
                        "yes" if row["pim_candidate"] else "no",
                        row["dram_bytes"],
                        row["cycles"] / 1e6,
                    )
                )
            print()
        if recorder is not None:
            from repro.config import default_system

            _write_obs_outputs(
                args,
                recorder,
                command="cachesweep --workload %s" % args.workload,
                config=default_system(),
                results={
                    name: {
                        "artifact": doc["artifact"],
                        "batched": doc["batched"],
                        "configs": [r["config"] for r in doc["rows"]],
                        # Always empty (a failure raises); kept so the
                        # manifest's shape is stable.
                        "failures": [],
                    }
                    for name, doc in documents.items()
                },
            )
    return 0


def _check_max_age(args) -> None:
    if args.max_age_days is not None and args.max_age_days < 0:
        raise ValueError(
            "--max-age-days must be >= 0, got %g" % args.max_age_days
        )


def _cmd_cache(args) -> int:
    from repro.core.memo import MemoCache

    _check_max_age(args)
    cache = MemoCache(args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print("cleared %d entries/files from %s" % (removed, cache.directory))
    else:
        days = args.max_age_days if args.max_age_days is not None else 30.0
        removed = cache.prune(max_age_days=days)
        print(
            "pruned %d file(s) from %s (older than %g day(s), or damaged)"
            % (removed, cache.directory, days)
        )
    return 0


def _cmd_trace(args) -> int:
    from repro.sim.artifact import TraceStore

    _check_max_age(args)
    store = TraceStore(args.dir) if args.dir else TraceStore()
    if args.action == "list":
        rows = store.artifacts()
        if not rows:
            print("no trace artifacts in %s" % store.directory)
            return 0
        print(
            "%-44s %-8s %10s %8s %12s"
            % ("artifact", "status", "size", "age", "accesses")
        )
        for row in rows:
            print(
                "%-44s %-8s %9.1fk %7.1fd %12s"
                % (
                    row["name"],
                    row["status"],
                    row["bytes"] / 1024.0,
                    row["age_days"],
                    row.get("accesses", "-"),
                )
            )
    elif args.action == "prune":
        days = args.max_age_days if args.max_age_days is not None else 30.0
        removed = store.prune(max_age_days=days)
        print(
            "pruned %d file(s) older than %g day(s) from %s"
            % (removed, days, store.directory)
        )
    else:
        removed = store.clear()
        print("cleared %d file(s) from %s" % (removed, store.directory))
    return 0


def _cmd_characterize(args) -> int:
    from repro._sum import left_sum
    from repro.analysis.headline import workload_characterizations

    print("%-20s %22s" % ("workload", "data-movement share"))
    total = []
    for ch in workload_characterizations():
        print("%-20s %21.1f%%" % (ch.workload, 100 * ch.data_movement_fraction))
        total.append(ch.data_movement_fraction)
    print("%-20s %21.1f%%  (paper: 62.7%%)" % ("AVERAGE", 100 * left_sum(total) / len(total)))
    return 0


def _cmd_codec(args) -> int:
    from repro._sum import left_sum
    from repro.workloads.vp9.decoder import decode_video
    from repro.workloads.vp9.encoder import encode_video
    from repro.workloads.vp9.video import synthetic_video

    clip = synthetic_video(args.width, args.height, args.frames, motion=2.5, seed=1)
    encoded, encoder = encode_video(clip, qstep=args.qstep)
    decoded, decoder = decode_video(encoded)
    raw = args.width * args.height * args.frames
    coded = sum(len(f.data) for f in encoded)
    psnr = left_sum(a.psnr(b) for a, b in zip(clip, decoded)) / len(clip)
    print(
        "%dx%d x%d: %.1f kB -> %.2f kB (%.1fx), PSNR %.1f dB"
        % (args.width, args.height, args.frames, raw / 1024, coded / 1024,
           raw / coded, psnr)
    )
    print(
        "inter MBs %d/%d, sub-pel blocks %d, ref pixels/pixel %.2f"
        % (
            decoder.stats.inter_macroblocks,
            decoder.stats.macroblocks,
            decoder.stats.subpel_blocks,
            decoder.stats.reference_pixels_per_pixel,
        )
    )
    return 0


def _cmd_scorecard(args) -> int:
    from repro.analysis.scorecard import full_scorecard

    print(full_scorecard().render_text())
    return 0


def _cmd_areas(args) -> int:
    from repro.energy.area import AreaModel

    model = AreaModel()
    print("per-vault budget: %.2f mm^2" % model.budget_per_vault_mm2)
    core = model.check_pim_core()
    print(
        "%-26s %6.2f mm^2  %5.1f%% of vault  %s"
        % ("pim_core", core.area_mm2, 100 * core.fraction_of_budget,
           "OK" if core.fits else "TOO BIG")
    )
    for check in model.check_all_accelerators():
        print(
            "%-26s %6.2f mm^2  %5.1f%% of vault  %s"
            % (check.target, check.area_mm2, 100 * check.fraction_of_budget,
               "OK" if check.fits else "TOO BIG")
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASPLOS'18 consumer-workloads PIM reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("--figure", help="substring filter, e.g. 'Figure 18'")
    figures.add_argument("--write", help="write EXPERIMENTS.md to this path")
    figures.add_argument(
        "--chart", action="store_true", help="render rows as ASCII bars"
    )
    figures.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="regenerate figures with N worker processes",
    )
    figures.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk figure memo cache",
    )
    _add_obs_flags(figures)
    figures.set_defaults(fn=_cmd_figures)

    export = sub.add_parser("export", help="export figure data as JSON")
    export.add_argument("--dir", default="figures_data")
    export.set_defaults(fn=_cmd_export)

    evaluate = sub.add_parser("evaluate", help="evaluate PIM targets")
    evaluate.add_argument(
        "--workload", default="all", choices=["chrome", "tensorflow", "vp9", "all"]
    )
    evaluate.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluate targets with N worker processes",
    )
    _add_obs_flags(evaluate)
    evaluate.set_defaults(fn=_cmd_evaluate)

    cachesweep = sub.add_parser(
        "cachesweep",
        help="cache design-space sweep over shared trace artifacts",
    )
    cachesweep.add_argument(
        "--workload", default="all",
        help="sweep workload name, or 'all' (default)",
    )
    cachesweep.add_argument(
        "--trace-dir", metavar="DIR",
        help="directory for the shared trace artifacts "
        "(default: the package cache directory)",
    )
    cachesweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes: shards of one workload's batched plan, "
        "or whole workloads (--workload all); each worker memory-maps "
        "the shared artifact — results are bit-identical to --jobs 1",
    )
    cachesweep.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk sweep memo cache",
    )
    _add_obs_flags(cachesweep)
    cachesweep.set_defaults(fn=_cmd_cachesweep)

    cache_cmd = sub.add_parser(
        "cache", help="manage the on-disk memo cache segments"
    )
    cache_cmd.add_argument(
        "action", choices=["clear", "prune"],
        help="clear: delete everything; prune: remove aged "
        "foreign-version files and debris, and move current-version "
        "blobs with a damaged entry line aside to *.corrupt",
    )
    cache_cmd.add_argument(
        "--dir", metavar="PATH", default=None,
        help="cache directory (default: the package cache directory)",
    )
    cache_cmd.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="age cutoff for pruning foreign-version files and debris "
        "(default 30)",
    )
    cache_cmd.set_defaults(fn=_cmd_cache)

    trace_cmd = sub.add_parser(
        "trace", help="manage the on-disk trace-artifact store"
    )
    trace_cmd.add_argument(
        "action", choices=["list", "prune", "clear"],
        help="list: describe every artifact (status, size, age); "
        "prune: remove aged stale-version artifacts, quarantine files "
        "and tmp debris (current-version artifacts are never pruned); "
        "clear: delete everything",
    )
    trace_cmd.add_argument(
        "--dir", metavar="PATH", default=None,
        help="trace-artifact directory (default: the package cache's "
        "traces directory, as used by cachesweep --trace-dir)",
    )
    trace_cmd.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="age cutoff for prune (default 30)",
    )
    trace_cmd.set_defaults(fn=_cmd_trace)

    characterize = sub.add_parser(
        "characterize", help="data-movement share per workload"
    )
    characterize.set_defaults(fn=_cmd_characterize)

    codec = sub.add_parser("codec", help="run the functional VP9-class codec")
    codec.add_argument("--width", type=int, default=96)
    codec.add_argument("--height", type=int, default=64)
    codec.add_argument("--frames", type=int, default=6)
    codec.add_argument("--qstep", type=float, default=16.0)
    codec.set_defaults(fn=_cmd_codec)

    scorecard = sub.add_parser(
        "scorecard", help="paper-anchor reproduction scorecard"
    )
    scorecard.set_defaults(fn=_cmd_scorecard)

    areas = sub.add_parser("areas", help="PIM logic area budget checks")
    areas.set_defaults(fn=_cmd_areas)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.validate import InvariantError, strict_mode

    scope = (
        strict_mode()
        if getattr(args, "strict", False)
        else contextlib.nullcontext()
    )
    try:
        with scope:
            return args.fn(args)
    except (ValueError, InvariantError) as exc:
        # ConfigError is a ValueError: bad configs, malformed bitstreams,
        # and strict-mode violations all surface as one actionable line.
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
