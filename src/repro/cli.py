"""Command-line interface.

    python -m repro figures [--figure "Figure 18"] [--write PATH] [--chart]
                            [--jobs N] [--no-cache] [--cache-flush-every N]
                            [--manifest DIR] [--trace-out PATH] [--strict]
                            [--max-retries N] [--target-timeout S]
                            [--checkpoint PATH] [--resume] [--fleet PATH]
    python -m repro export [--dir figures_data]
    python -m repro evaluate [--workload chrome|tensorflow|vp9|all] [--jobs N]
                             [--manifest DIR] [--trace-out PATH] [--strict]
                             [--max-retries N] [--target-timeout S]
                             [--checkpoint PATH] [--resume] [--fleet PATH]
    python -m repro cachesweep [--workload NAME|all] [--batch|--no-batch]
                               [--trace-dir DIR] [--jobs N] [--no-cache]
                               [--cache-flush-every N]
                               [--manifest DIR] [--trace-out PATH] [--strict]
                               [--max-retries N] [--target-timeout S]
                               [--checkpoint PATH] [--resume] [--fleet PATH]
    python -m repro cache {compact|clear|prune} [--dir PATH]
                          [--max-age-days DAYS]
    python -m repro trace {list|prune|clear} [--dir PATH]
                          [--max-age-days DAYS]
    python -m repro fleet {worker|serve|status|drain} [--fleet PATH]
                          [--host HOST] [--port N] [--port-file PATH]
                          [--cache-dir DIR] [--register URL]
                          [--advertise-host HOST] [--weight N]
                          [--secret-file PATH] [--url URL]
                          [--jobs-ttl S] [--drain-grace S]
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


def _add_cache_batch_flag(parser) -> None:
    parser.add_argument(
        "--cache-flush-every", type=int, default=None, metavar="N",
        help="buffer N memo entries per segment flush (default 1: each "
        "entry is written through immediately, like the legacy "
        "file-per-entry cache; larger values batch N entries per blob "
        "write)",
    )


def _add_resilience_flags(parser) -> None:
    parser.add_argument(
        "--max-retries", type=int, metavar="N",
        help="tolerate per-target faults: retry each failed/crashed/hung "
        "target up to N times (N + 1 total attempts; 0 quarantines on "
        "the first failure), then quarantine it (degraded result) "
        "instead of aborting the sweep",
    )
    parser.add_argument(
        "--target-timeout", type=float, metavar="SECONDS",
        help="declare a target hung after SECONDS, kill its worker, "
        "respawn the pool and retry (implies fault tolerance; "
        "needs --jobs > 1)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="journal completed targets to PATH (append-only JSONL, "
        "keyed by config+code version) as they finish",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reload completed targets from --checkpoint instead of "
        "recomputing them (bit-identical to an uninterrupted run)",
    )


def _retry_policy(args):
    """The :class:`RetryPolicy` the resilience flags ask for (or None)."""
    if args.resume and not args.checkpoint:
        raise ValueError("--resume requires --checkpoint PATH")
    if args.max_retries is not None and args.max_retries < 0:
        raise ValueError(
            "--max-retries must be >= 0, got %d" % args.max_retries
        )
    if args.max_retries is None and args.target_timeout is None:
        return None
    from repro.core.resilience import RetryPolicy

    # --max-retries N means N *retries*: N + 1 total attempts.  With
    # only --target-timeout, default to two retries per target.
    return RetryPolicy(
        max_attempts=args.max_retries + 1 if args.max_retries is not None else 3,
        timeout_s=args.target_timeout,
    )


def _add_fleet_flag(parser) -> None:
    parser.add_argument(
        "--fleet", metavar="PATH",
        help="dispatch parallel work to the worker fleet described by "
        "this JSON manifest (see 'python -m repro fleet') instead of "
        "local worker processes; --jobs left at 1 defaults to the "
        "fleet's worker count",
    )


def _fleet_setup(args):
    """(pool_factory, manifest) for ``--fleet``, or ``(None, None)``."""
    if not getattr(args, "fleet", None):
        return None, None
    from repro.fleet import FleetManifest, fleet_pool_factory

    manifest = FleetManifest.load(args.fleet)
    if getattr(args, "jobs", 1) == 1:
        workers = len(manifest.workers)
        if not workers and manifest.gateway is not None:
            # Elastic fleet: the gateway knows the live member count.
            from repro.fleet.wire import FleetTransportError, http_json

            try:
                status, doc = http_json(
                    "GET",
                    manifest.gateway.base_url + "/status",
                    timeout=5.0,
                    secret=manifest.load_secret(),
                )
                if status == 200:
                    workers = sum(
                        1 for w in doc.get("workers", []) if w.get("alive")
                    )
            except FleetTransportError:
                pass  # gateway down: run serial; retries still reach it
        args.jobs = max(workers, 1)
    return fleet_pool_factory(manifest), manifest


def _memo_cache(args, fleet_manifest=None):
    """The memo cache the cache flags ask for (or None with --no-cache).

    With a fleet manifest that names a gateway, the cache is the
    gateway's shared one (:class:`repro.fleet.cache.RemoteMemoCache`),
    so every fleet client sees every other client's finished sweeps.
    """
    if args.no_cache:
        return None
    if fleet_manifest is not None and fleet_manifest.gateway is not None:
        from repro.fleet.cache import RemoteMemoCache

        return RemoteMemoCache(
            fleet_manifest.gateway.base_url,
            secret=fleet_manifest.load_secret(),
        )
    from repro.core.memo import MemoCache

    if getattr(args, "cache_flush_every", None) is not None:
        if args.cache_flush_every < 1:
            raise ValueError(
                "--cache-flush-every must be >= 1, got %d"
                % args.cache_flush_every
            )
        return MemoCache(flush_every=args.cache_flush_every)
    return MemoCache()


def _cmd_figures(args) -> int:
    from repro.analysis.report import all_results, render_markdown

    pool_factory, fleet_manifest = _fleet_setup(args)
    cache = _memo_cache(args, fleet_manifest)
    with _obs_session(args) as recorder:
        results = all_results(
            jobs=args.jobs,
            cache=cache,
            retry_policy=_retry_policy(args),
            checkpoint=args.checkpoint,
            resume=args.resume,
            pool_factory=pool_factory,
        )
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
    if cache is not None:
        cache.flush()
        cache.maybe_compact()
    return 0


def _cmd_export(args) -> int:
    from repro.analysis.export import export_all

    written = export_all(args.dir)
    print("wrote %d files to %s" % (len(written), args.dir))
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core.runner import ExperimentRunner

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
    retry_policy = _retry_policy(args)
    pool_factory, _fleet_manifest = _fleet_setup(args)
    with _obs_session(args) as recorder:
        result = ExperimentRunner().evaluate(
            targets,
            jobs=args.jobs,
            retry_policy=retry_policy,
            checkpoint=args.checkpoint,
            resume=args.resume,
            pool_factory=pool_factory,
        )
        print(
            "%-26s %8s %8s %9s %9s" % ("kernel", "E core", "E acc", "S core", "S acc")
        )
        for row in result.rows():
            if row.get("failed"):
                print(
                    "%-26s FAILED after %d attempt(s): %s"
                    % (row["target"], row["attempts"], row["error"])
                )
                continue
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
        if result.degraded:
            print(
                "DEGRADED: %d of %d targets quarantined; means cover "
                "survivors only"
                % (len(result.failures), len(result.failures) + len(result.names)),
                file=sys.stderr,
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
            if retry_policy is not None or args.checkpoint:
                results["degraded"] = result.degraded
                results["failures"] = [
                    {
                        "target": f.target,
                        "attempts": f.attempts,
                        "error": f.error,
                    }
                    for f in result.failures
                ]
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

    if args.workload == "all":
        names = workload_names()
    elif args.workload in workload_names():
        names = [args.workload]
    else:
        print(
            "unknown workload %r; available: %s"
            % (args.workload, ", ".join(workload_names() + ["all"])),
            file=sys.stderr,
        )
        return 2
    pool_factory, fleet_manifest = _fleet_setup(args)
    cache = _memo_cache(args, fleet_manifest)
    store = TraceStore(args.trace_dir) if args.trace_dir else TraceStore()
    retry_policy = _retry_policy(args)
    with _obs_session(args) as recorder:
        # --jobs fans out across workloads (several names) or across
        # shards of one workload's batch plan (a single name); the
        # journal-per-workload suffixing lives in sweep_all.
        documents = sweep_all(
            names,
            batch=args.batch,
            store=store,
            cache=cache,
            jobs=args.jobs,
            retry_policy=retry_policy,
            checkpoint=args.checkpoint,
            resume=args.resume,
            pool_factory=pool_factory,
        )
        for name, document in documents.items():
            artifact = document["artifact"] or "(none)"
            print(
                "%s  (artifact %s, %s)"
                % (
                    name,
                    artifact[:12],
                    "batched" if document["batched"] else "serial/cached",
                )
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
            for failure in document["failures"]:
                print(
                    "  %-22s FAILED after %d attempt(s): %s"
                    % (failure["config"], failure["attempts"], failure["error"])
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
                        "failures": [f["config"] for f in doc["failures"]],
                    }
                    for name, doc in documents.items()
                },
            )
    if cache is not None:
        cache.flush()
        cache.maybe_compact()
    if any(doc["failures"] for doc in documents.values()):
        print("DEGRADED: some geometries were quarantined", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    from repro.core.memo import MemoCache

    cache = MemoCache(args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print("cleared %d entries/files from %s" % (removed, cache.directory))
    elif args.action == "prune":
        days = args.max_age_days if args.max_age_days is not None else 30.0
        removed = cache.prune(max_age_days=days)
        print(
            "pruned %d file(s) older than %g day(s) from %s"
            % (removed, days, cache.directory)
        )
    else:
        from repro.core.store import CompactionBusy

        try:
            stats = cache.compact(max_age_days=args.max_age_days)
        except CompactionBusy as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print(
            "compacted %s: %d live entries (%d segment(s) merged, "
            "%d legacy file(s) folded), %d file(s) removed, "
            "%d quarantined, %d aged file(s) pruned"
            % (
                cache.directory,
                stats.entries,
                stats.segments_merged,
                stats.legacy_folded,
                stats.files_removed,
                stats.quarantined,
                stats.pruned,
            )
        )
    return 0


def _cmd_trace(args) -> int:
    from repro.sim.artifact import TraceStore

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


def _drain_discover(manifest, secret) -> list:
    """Worker URLs to drain: the manifest's static list, or for an
    elastic fleet whatever the gateway currently reports alive."""
    urls = [spec.base_url for spec in manifest.workers]
    if urls or manifest.gateway is None:
        return urls
    from repro.fleet.wire import FleetTransportError, http_json

    try:
        status, doc = http_json(
            "GET",
            manifest.gateway.base_url + "/status",
            timeout=5.0,
            secret=secret,
        )
    except FleetTransportError as exc:
        print("gateway unreachable: %s" % exc, file=sys.stderr)
        return []
    if status != 200:
        return []
    return [w["url"] for w in doc.get("workers", []) if w.get("alive")]


def _drain_targets(urls, secret) -> int:
    """POST /drain to each worker URL; 0 = all acknowledged."""
    from repro.fleet.wire import FleetTransportError, http_json

    if not urls:
        print("no workers to drain", file=sys.stderr)
        return 2
    failures = 0
    for url in urls:
        try:
            status, doc = http_json(
                "POST", url.rstrip("/") + "/drain", {}, timeout=5.0, secret=secret
            )
        except FleetTransportError as exc:
            print("%s: unreachable (%s)" % (url, exc), file=sys.stderr)
            failures += 1
            continue
        if status == 200 and doc.get("ok"):
            print("%s: draining" % url)
        else:
            print("%s: refused (%d): %s" % (url, status, doc.get("error")), file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def _worker_secret(args):
    """The signing secret for a bare worker (no manifest in hand):
    ``REPRO_FLEET_SECRET`` wins, else ``--secret-file``."""
    import os
    from pathlib import Path

    from repro.fleet.wire import FLEET_SECRET_ENV

    env = os.environ.get(FLEET_SECRET_ENV)
    if env:
        return env
    if getattr(args, "secret_file", None):
        secret = Path(args.secret_file).read_text().strip()
        if not secret:
            raise ValueError("fleet secret_file %s is empty" % args.secret_file)
        return secret
    return None


def _cmd_fleet(args) -> int:
    if args.action == "worker":
        from repro.fleet.worker import serve_worker

        serve_worker(
            host=args.host or "127.0.0.1",
            port=args.port if args.port is not None else 0,
            port_file=args.port_file,
            register=args.register,
            advertise_host=args.advertise_host,
            weight=args.weight,
            secret=_worker_secret(args),
            jobs_ttl_s=args.jobs_ttl,
            drain_grace_s=args.drain_grace,
        )
        return 0
    if args.action == "drain" and args.url:
        return _drain_targets([args.url], _worker_secret(args))
    if not args.fleet:
        print("error: fleet %s requires --fleet PATH" % args.action, file=sys.stderr)
        return 2
    from repro.fleet.manifest import FleetManifest

    manifest = FleetManifest.load(args.fleet)
    if args.secret_file:
        manifest.secret_file = args.secret_file
    secret = manifest.load_secret()
    if args.action == "serve":
        from repro.fleet.gateway import serve_gateway

        gw = manifest.gateway
        serve_gateway(
            manifest,
            host=args.host or (gw.host if gw is not None else "127.0.0.1"),
            port=args.port
            if args.port is not None
            else (gw.port if gw is not None else 0),
            cache_dir=args.cache_dir,
            port_file=args.port_file,
            secret=secret,
        )
        return 0
    if args.action == "drain":
        return _drain_targets(_drain_discover(manifest, secret), secret)
    # status
    from repro.fleet.wire import FleetTransportError, http_json

    if manifest.gateway is not None:
        url = manifest.gateway.base_url
        try:
            status, doc = http_json("GET", url + "/status", timeout=5.0, secret=secret)
        except FleetTransportError as exc:
            print("gateway %s unreachable: %s" % (url, exc), file=sys.stderr)
            return 1
        if status != 200 or not doc.get("ok"):
            print("gateway %s unhealthy: %r" % (url, doc), file=sys.stderr)
            return 1
        cache = doc.get("cache", {})
        membership = doc.get("membership") or {}
        print(
            "gateway %s: pid %s, up %ss, cache entries %s, members %s (lease %ss)"
            % (
                url,
                doc.get("pid"),
                doc.get("uptime_s"),
                cache.get("entries"),
                membership.get("members", 0),
                membership.get("lease_s", "-"),
            )
        )
        workers = doc.get("workers", [])
    else:
        workers = []
        for spec in manifest.workers:
            entry = {"url": spec.base_url, "weight": spec.weight, "health": None}
            try:
                status, health = http_json(
                    "GET", spec.base_url + "/health", timeout=5.0, secret=secret
                )
                entry["alive"] = status == 200 and bool(health.get("ok"))
                entry["health"] = health if entry["alive"] else None
            except FleetTransportError:
                entry["alive"] = False
            workers.append(entry)
    print("%-28s %6s %6s %6s %8s %10s" % ("worker", "weight", "alive", "busy", "pid", "completed"))
    dead = 0
    for entry in workers:
        health = entry.get("health") or {}
        alive = bool(entry.get("alive"))
        dead += 0 if alive else 1
        print(
            "%-28s %6d %6s %6s %8s %10s"
            % (
                entry["url"],
                entry.get("weight", 1),
                "yes" if alive else "NO",
                {True: "yes", False: "no"}.get(health.get("busy"), "-"),
                health.get("pid", "-"),
                health.get("completed", "-"),
            )
        )
    return 1 if dead else 0


def _cmd_characterize(args) -> int:
    from repro.analysis.headline import workload_characterizations

    print("%-20s %22s" % ("workload", "data-movement share"))
    total = []
    for ch in workload_characterizations():
        print("%-20s %21.1f%%" % (ch.workload, 100 * ch.data_movement_fraction))
        total.append(ch.data_movement_fraction)
    print("%-20s %21.1f%%  (paper: 62.7%%)" % ("AVERAGE", 100 * sum(total) / len(total)))
    return 0


def _cmd_codec(args) -> int:
    from repro.workloads.vp9.decoder import decode_video
    from repro.workloads.vp9.encoder import encode_video
    from repro.workloads.vp9.video import synthetic_video

    clip = synthetic_video(args.width, args.height, args.frames, motion=2.5, seed=1)
    encoded, encoder = encode_video(clip, qstep=args.qstep)
    decoded, decoder = decode_video(encoded)
    raw = args.width * args.height * args.frames
    coded = sum(len(f.data) for f in encoded)
    psnr = sum(a.psnr(b) for a, b in zip(clip, decoded)) / len(clip)
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
    _add_cache_batch_flag(figures)
    _add_obs_flags(figures)
    _add_resilience_flags(figures)
    _add_fleet_flag(figures)
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
    _add_resilience_flags(evaluate)
    _add_fleet_flag(evaluate)
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
        "--batch", action=argparse.BooleanOptionalAction, default=True,
        help="evaluate all geometries in one batched replay pass "
        "(--no-batch replays each geometry serially; results are "
        "bit-identical either way)",
    )
    cachesweep.add_argument(
        "--trace-dir", metavar="DIR",
        help="directory for the shared trace artifacts "
        "(default: the package cache directory)",
    )
    cachesweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes, on every path: shards of the batched "
        "plan, per-config serial replays (--no-batch), and whole "
        "workloads (--workload all); each worker memory-maps the "
        "shared artifact — results are bit-identical to --jobs 1",
    )
    cachesweep.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk sweep memo cache",
    )
    _add_cache_batch_flag(cachesweep)
    _add_obs_flags(cachesweep)
    _add_resilience_flags(cachesweep)
    _add_fleet_flag(cachesweep)
    cachesweep.set_defaults(fn=_cmd_cachesweep)

    cache_cmd = sub.add_parser(
        "cache", help="manage the on-disk memo cache segments"
    )
    cache_cmd.add_argument(
        "action", choices=["compact", "clear", "prune"],
        help="compact: rewrite all live entries (segments + legacy "
        "files) into one fresh segment, quarantining corrupt blobs; "
        "clear: delete everything; prune: remove aged foreign-version "
        "files and debris",
    )
    cache_cmd.add_argument(
        "--dir", metavar="PATH", default=None,
        help="cache directory (default: the package cache directory)",
    )
    cache_cmd.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="age cutoff for pruning foreign-version files and debris "
        "(prune defaults to 30; compact age-prunes only when given)",
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

    fleet = sub.add_parser(
        "fleet", help="run or inspect the distributed sweep fleet"
    )
    fleet.add_argument(
        "action", choices=["worker", "serve", "status", "drain"],
        help="worker: run one single-slot HTTP worker; serve: run the "
        "gateway (dispatch + membership + shared result cache) for a "
        "manifest; status: print fleet health; drain: gracefully "
        "decommission workers (finish in-flight job, deregister, exit 0)",
    )
    fleet.add_argument(
        "--fleet", metavar="PATH",
        help="fleet manifest JSON (required for serve/status, and for "
        "drain without --url)",
    )
    fleet.add_argument(
        "--host", metavar="HOST", default=None,
        help="bind address (worker/serve; default 127.0.0.1 or the "
        "manifest's gateway entry)",
    )
    fleet.add_argument(
        "--port", type=int, metavar="N", default=None,
        help="bind port (0 = ephemeral; default 0 for worker, the "
        "manifest's gateway port for serve)",
    )
    fleet.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="write the bound port to PATH once listening (for "
        "launchers that bind ephemeral ports)",
    )
    fleet.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="gateway shared-cache directory (serve; default: "
        "<package cache>/fleet); also holds the persisted membership "
        "table a restarted gateway rehydrates from",
    )
    fleet.add_argument(
        "--register", metavar="URL", default=None,
        help="worker: announce to this gateway URL at boot and renew a "
        "heartbeat lease, instead of appearing in a static manifest",
    )
    fleet.add_argument(
        "--advertise-host", metavar="HOST", default=None,
        help="worker: hostname to register (when the bind address is a "
        "wildcard peers can't dial)",
    )
    fleet.add_argument(
        "--weight", type=int, metavar="N", default=1,
        help="worker: round-robin weight to register with (default 1)",
    )
    fleet.add_argument(
        "--secret-file", metavar="PATH", default=None,
        help="file holding the fleet's shared request-signing secret "
        "(REPRO_FLEET_SECRET overrides; no secret = unsigned loopback)",
    )
    fleet.add_argument(
        "--url", metavar="URL", default=None,
        help="drain: target one worker URL directly instead of the "
        "manifest/gateway fleet",
    )
    fleet.add_argument(
        "--jobs-ttl", type=float, metavar="S", default=600.0,
        help="worker: expire unfetched finished-job records after S "
        "seconds (default 600)",
    )
    fleet.add_argument(
        "--drain-grace", type=float, metavar="S", default=30.0,
        help="worker: max seconds a drain waits for the in-flight job "
        "and its result hand-off (default 30)",
    )
    fleet.set_defaults(fn=_cmd_fleet)

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
