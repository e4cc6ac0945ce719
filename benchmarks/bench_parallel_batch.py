"""Multicore sweep throughput: single-process batched vs sharded workers.

The headline perf metric for the parallel shard engine: the end-to-end
cost of a cache-geometry sweep over one on-disk trace artifact.  The
baseline is PR 6's single-process config-batched path —
:class:`ConfigSweep` with ``jobs=1``, one ``sweep_batch`` pass over the
whole grid.  The parallel path shards the same grid across worker
processes (``jobs=N``); every worker memory-maps the same artifact
(nothing is pickled) and runs its shard through the identical
per-config finish helpers, so both paths are checked bit-identical on
every run before timing.

Run directly to record the numbers EXPERIMENTS.md's parallel-throughput
section is generated from::

    PYTHONPATH=src python benchmarks/bench_parallel_batch.py

which rewrites ``benchmarks/BENCH_parallel_batch.json`` with full-size
and quick-size measurements plus the host's ``cpu_count`` — speedup is
a function of cores, so the record keeps the machine's shape next to
its numbers.  ``--quick`` is the CI perf-smoke mode: it re-measures at
the quick sizes and fails if any sweep's speedup fell more than
``REGRESSION_FACTOR``x below the committed baseline; the comparison is
skipped (with a note) when the current host has fewer cores than the
recording host, because a speedup floor measured on more cores than you
have is not a regression signal.  Under pytest the module asserts the
acceptance bar instead: a ≥3x geomean over single-process batched on a
4+-core host (skipped below 4 cores — the parallel path cannot beat
3x without cores to run on).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import KB, MB, CacheConfig, SocConfig, soc_cache_label
from repro.core.runner import ConfigSweep
from repro.sim.artifact import TraceArtifact
from repro.sim.timing import TimingParameters
from repro.sim.trace import MemoryTrace
from repro.workloads.chrome.texture import compositing_trace
from repro.workloads.tensorflow.access_patterns import gemm_lhs_trace

JSON_PATH = Path(__file__).resolve().parent / "BENCH_parallel_batch.json"

#: Acceptance bar for the full-size sweep geomean (pytest gate, 4+ cores).
REQUIRED_SPEEDUP = 3.0
#: No individual sweep may fall below this on a 4+-core host.
PER_SWEEP_FLOOR = 2.0
#: ``--quick`` fails when a sweep's measured speedup drops below
#: committed_speedup / REGRESSION_FACTOR (same-or-more cores only).
REGRESSION_FACTOR = 2.0


def default_jobs() -> int:
    """min(cores, 8), but never below 2: the point of the benchmark is
    the sharded pool path, so even a single-core host measures it (and
    honestly records the slowdown pool overhead costs there)."""
    return max(min(os.cpu_count() or 1, 8), 2)


def geometry_grid(quick: bool) -> list[SocConfig]:
    """4 distinct L1 groups so ``plan_shards`` fills 4 workers without
    splitting (quick: 2 groups for a 2-worker smoke)."""
    l1s = [(16 * KB, 2), (32 * KB, 4), (64 * KB, 4), (128 * KB, 8)]
    llcs = [(512 * KB, 8), (1 * MB, 8), (2 * MB, 8), (4 * MB, 16)]
    if quick:
        l1s = l1s[1:3]
    return [
        SocConfig(
            l1=CacheConfig(size_bytes=l1_bytes, associativity=l1_ways),
            l2=CacheConfig(
                size_bytes=llc_bytes,
                associativity=llc_ways,
                hit_latency_cycles=20,
            ),
        )
        for l1_bytes, l1_ways in l1s
        for llc_bytes, llc_ways in llcs
    ]


def _concat(traces) -> MemoryTrace:
    """One multi-phase trace; each phase lives in its own address range."""
    addresses = []
    writes = []
    offset = 0
    for trace in traces:
        addresses.append(trace.addresses + np.uint64(offset))
        writes.append(trace.is_write)
        offset += 1 << 28
    return MemoryTrace(
        addresses=np.concatenate(addresses), is_write=np.concatenate(writes)
    )


def _sweeps(quick: bool) -> list:
    """(name, build_trace) per swept workload mix.

    Each mix concatenates one kernel at several working-set scales that
    straddle the L1 grid (24 kB…192 kB against 16–128 kB L1s), so every
    L1 geometry produces a *distinct* miss stream.  That matters for
    what this benchmark measures: the batch engine content-addresses
    LLC passes by the L1 miss stream feeding them, so a pure streaming
    kernel — whose miss stream is identical under every L1 — collapses
    the whole grid onto a handful of shared passes that no shard plan
    can divide.  A working-set mix is both the representative case (the
    paper's packing/tiling sections are exactly about working sets vs
    cache capacity) and the parallelizable one: per-geometry passes are
    real, independent work the shards split.
    """
    reps = 8 if quick else 56
    # The last phase's working set exceeds every L1: it thrashes all
    # four geometries alike, which keeps the streams distinct while
    # evening out per-group work (small-L1 groups miss more on the
    # straddle phases, so an all-miss phase dilutes the imbalance the
    # shard plan would otherwise inherit).
    gemm_dims = [(96, 256), (96, 512), (192, 512), (384, 512), (768, 512)]
    tex_heights = [64, 128, 256, 512, 1024]
    tex_width = 192 if quick else 1408
    return [
        (
            "gemm_packed_mix",
            lambda: _concat(
                gemm_lhs_trace(m=m, k=k, n_blocks=reps, packed=True)
                for m, k in gemm_dims
            ),
        ),
        (
            "gemm_unpacked_mix",
            lambda: _concat(
                gemm_lhs_trace(
                    m=m, k=k, n_blocks=max(reps // 2, 2), packed=False
                )
                for m, k in gemm_dims
            ),
        ),
        (
            "compositing_linear_mix",
            lambda: _concat(
                compositing_trace(width=tex_width, height=h, tiled=False)
                for h in tex_heights
            ),
        ),
    ]


def _sweep_rows(artifact, socs, params, jobs: int) -> list:
    return ConfigSweep(artifact, timing_params=params).evaluate(
        socs, jobs=jobs
    ).rows


def measure(name, build_trace, socs, jobs: int, reps: int = 2) -> dict:
    """Time one sweep both ways and verify they still agree exactly."""
    params = TimingParameters()
    with tempfile.TemporaryDirectory() as tmp:
        artifact = TraceArtifact.from_trace(build_trace(), workload="bench")
        artifact.save(Path(tmp) / "bench.trace")
        single = _sweep_rows(artifact, socs, params, jobs=1)
        sharded = _sweep_rows(artifact, socs, params, jobs=jobs)
        if sharded != single:
            raise AssertionError(
                "%s: sharded sweep diverged from single-process" % name
            )
        baseline_s = _best(
            lambda: _sweep_rows(artifact, socs, params, jobs=1), reps
        )
        parallel_s = _best(
            lambda: _sweep_rows(artifact, socs, params, jobs=jobs), reps
        )
    return {
        "name": name,
        "configs": len(socs),
        "accesses": artifact.num_accesses,
        "jobs": jobs,
        "baseline_s": baseline_s,
        "parallel_s": parallel_s,
        "baseline_points_per_s": len(socs) / baseline_s,
        "parallel_points_per_s": len(socs) / parallel_s,
        "speedup": baseline_s / parallel_s,
    }


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _geomean(speedups) -> float:
    return float(np.exp(np.mean(np.log(speedups))))


def run(quick: bool, jobs: int | None = None) -> list:
    jobs = jobs or default_jobs()
    socs = geometry_grid(quick)
    return [measure(name, build, socs, jobs) for name, build in _sweeps(quick)]


def _print_rows(rows) -> None:
    for row in rows:
        print(
            "%-20s %2d configs  1-proc %8.3fs  jobs=%d %8.3fs  (%.1fx)"
            % (
                row["name"],
                row["configs"],
                row["baseline_s"],
                row["jobs"],
                row["parallel_s"],
                row["speedup"],
            )
        )
    print("headline speedup: %.1fx" % _geomean([r["speedup"] for r in rows]))


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_parallel_rows_bit_identical():
    """Always runs: measure() raises if any sharded sweep diverges from
    the single-process rows, regardless of core count."""
    rows = run(quick=True, jobs=2)
    assert all(row["parallel_s"] > 0 for row in rows)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the >=3x bar needs at least 4 cores to shard across",
)
def test_parallel_sweep_meets_speedup_bar():
    rows = run(quick=False)  # raises on divergence
    headline = _geomean([r["speedup"] for r in rows])
    assert headline >= REQUIRED_SPEEDUP, (
        "headline speedup only %.1fx over single-process batched" % headline
    )
    for row in rows:
        assert row["speedup"] >= PER_SWEEP_FLOOR, (
            "%s sweep only %.1fx over single-process batched"
            % (row["name"], row["speedup"])
        )


def test_grid_has_four_shardable_l1_groups():
    socs = geometry_grid(quick=False)
    assert len({(s.l1.size_bytes, s.l1.associativity) for s in socs}) == 4
    labels = [soc_cache_label(s) for s in socs]
    assert len(set(labels)) == len(labels) == 16


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _check_regressions(rows) -> int:
    """Compare quick-size speedups against the committed baseline."""
    record = json.loads(JSON_PATH.read_text())
    cores = os.cpu_count() or 1
    if cores < record.get("cpu_count", 1):
        print(
            "skipping regression check: %d cores here, baseline recorded "
            "on %d" % (cores, record["cpu_count"])
        )
        return 0
    committed = {r["name"]: r for r in record["quick_sweeps"]}
    failures = []
    for row in rows:
        baseline = committed.get(row["name"])
        if baseline is None:
            continue  # new sweep, no baseline yet
        floor = baseline["speedup"] / REGRESSION_FACTOR
        if row["speedup"] < floor:
            failures.append(
                "%s: %.2fx, below %.2fx (committed %.2fx / %g)"
                % (
                    row["name"],
                    row["speedup"],
                    floor,
                    baseline["speedup"],
                    REGRESSION_FACTOR,
                )
            )
    for failure in failures:
        print("PERF REGRESSION %s" % failure)
    if not failures:
        print("no sweep regressed more than %gx vs baseline" % REGRESSION_FACTOR)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="perf-smoke mode: quick sizes, compare against the committed "
        "baseline instead of rewriting it",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the parallel path (default: min(cores, 8))",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs or default_jobs()
    if args.quick:
        rows = run(quick=True, jobs=jobs)
        _print_rows(rows)
        return _check_regressions(rows)
    full_rows = run(quick=False, jobs=jobs)
    quick_rows = run(quick=True, jobs=jobs)
    record = {
        "bench": "parallel_batch",
        "generated_by": "benchmarks/bench_parallel_batch.py",
        "cpu_count": os.cpu_count() or 1,
        "jobs": jobs,
        "sweeps": full_rows,
        "quick_sweeps": quick_rows,
        "headline_speedup": _geomean([r["speedup"] for r in full_rows]),
    }
    with open(JSON_PATH, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    _print_rows(full_rows)
    print("wrote %s" % JSON_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
