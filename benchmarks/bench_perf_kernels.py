"""Vectorized kernel throughput: scalar oracles vs NumPy fast paths.

Times every scalar/fast engine pair introduced by the vectorized kernel
engine — VP9 sub-pixel interpolation, deblocking, motion-search SAD,
texture-tiling tracing, compositing tracing, LZO compress/decompress,
and the event-driven timing replay — and checks on every run that the
two engines still agree exactly.  The timing pair is the per-access and
line-run serial replays kept as test oracles (``tests/sim/oracle.py``);
production timing runs the batched engine (``repro.sim.batch``).

Run directly to record the numbers EXPERIMENTS.md's kernel table is
generated from::

    PYTHONPATH=src python benchmarks/bench_perf_kernels.py

which rewrites ``benchmarks/BENCH_kernels.json`` with full-size and
quick-size measurements.  ``--quick`` is the CI perf-smoke mode: it
re-measures at the quick sizes and fails if any kernel's speedup fell
more than ``REGRESSION_FACTOR``x below the committed baseline (speedup,
not wall-clock, so the gate is machine-independent).  Under pytest the
module asserts the acceptance bar instead: ≥5x on the headline kernels.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.sim.timing import TimingParameters
from repro.sim.trace import TraceRecorder
from repro.workloads.chrome import lzo
from repro.workloads.chrome.texture import compositing_trace, linear_to_tiled_traced
from repro.workloads.vp9.deblock import DeblockStats, deblock_frame
from repro.workloads.vp9.frame import Frame
from repro.workloads.vp9.mc import interpolate_block
from repro.workloads.vp9.me import full_search, diamond_search, SearchStats

# The timing-replay pair is a pair of test oracles; make the repo root
# importable.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.sim.oracle import TimingSimulator

JSON_PATH = Path(__file__).resolve().parent / "BENCH_kernels.json"

#: Acceptance bar for the headline kernels (pytest gate).
REQUIRED_SPEEDUP = 5.0
#: ``--quick`` fails when a kernel's measured speedup drops below
#: committed_speedup / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0
#: Kernels whose speedup the pytest gate holds to REQUIRED_SPEEDUP.
#: (diamond search and LZO compress are control-flow-bound — the greedy
#: parse and the mid-ring re-centering are inherently sequential — so
#: their smaller gains are recorded but not gated at 5x.)
GATED = ("mc_interpolate", "deblock", "me_full_search", "timing_replay")


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _build_kernels(quick: bool) -> list:
    """(name, scalar_fn, fast_fn, check_equal) for every engine pair."""
    rng = np.random.default_rng(20180324)
    kernels = []

    # --- VP9 sub-pixel interpolation -----------------------------------
    mc_size = 48 if quick else 128
    ref = rng.integers(0, 256, (mc_size + 16, mc_size + 16), dtype=np.uint8)
    kernels.append(
        (
            "mc_interpolate",
            lambda: interpolate_block(ref, 2, 2, 3, 2, mc_size, mc_size, fast=False),
            lambda: interpolate_block(ref, 2, 2, 3, 2, mc_size, mc_size, fast=True),
            lambda a, b: np.array_equal(a, b),
        )
    )

    # --- VP9 deblocking ------------------------------------------------
    db_size = 64 if quick else 256
    frame = Frame(pixels=(rng.integers(0, 256, (db_size, db_size)) // 16 + 96).astype(np.uint8))
    kernels.append(
        (
            "deblock",
            lambda: deblock_frame(frame, stats=DeblockStats(), fast=False),
            lambda: deblock_frame(frame, stats=DeblockStats(), fast=True),
            lambda a, b: np.array_equal(a.pixels, b.pixels),
        )
    )

    # --- Motion search SAD ---------------------------------------------
    me_range = 4 if quick else 8
    me_ref = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    me_cur = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    kernels.append(
        (
            "me_full_search",
            lambda: full_search(me_cur, me_ref, 1, 1, me_range, SearchStats(), fast=False),
            lambda: full_search(me_cur, me_ref, 1, 1, me_range, SearchStats(), fast=True),
            lambda a, b: a == b,
        )
    )
    kernels.append(
        (
            "me_diamond_search",
            lambda: diamond_search(me_cur, me_ref, 1, 1, 16, SearchStats(), fast=False),
            lambda: diamond_search(me_cur, me_ref, 1, 1, 16, SearchStats(), fast=True),
            lambda a, b: a == b,
        )
    )

    # --- Texture tiling trace recording --------------------------------
    tex_size = 128 if quick else 512
    bitmap = rng.integers(0, 256, (tex_size, tex_size, 4), dtype=np.uint8)

    def tile(fast: bool):
        rec = TraceRecorder()
        linear_to_tiled_traced(bitmap, rec, fast=fast)
        return rec.range_records()

    kernels.append(
        (
            "texture_tiling_trace",
            lambda: tile(False),
            lambda: tile(True),
            lambda a, b: a == b,
        )
    )
    kernels.append(
        (
            "compositing_trace",
            lambda: compositing_trace(tex_size, tex_size, tiled=True, fast=False),
            lambda: compositing_trace(tex_size, tex_size, tiled=True, fast=True),
            lambda a, b: np.array_equal(a.addresses, b.addresses),
        )
    )

    # --- LZO ------------------------------------------------------------
    lzo_n = 32 * 1024 if quick else 128 * 1024
    lzo_data = rng.integers(0, 256, lzo_n, dtype=np.uint8).tobytes()
    kernels.append(
        (
            "lzo_compress",
            lambda: lzo.compress(lzo_data, fast=False)[0],
            lambda: lzo.compress(lzo_data, fast=True)[0],
            lambda a, b: a == b,
        )
    )
    run_data = bytes([42]) * (lzo_n * 2)
    compressed, _ = lzo.compress(run_data)
    kernels.append(
        (
            "lzo_decompress",
            lambda: lzo.decompress(compressed, fast=False)[0],
            lambda: lzo.decompress(compressed, fast=True)[0],
            lambda a, b: a == b,
        )
    )

    # --- Event-driven timing replay ------------------------------------
    # The bandwidth-floor shape: every access its own DRAM miss and a
    # huge MSHR pool, where the oracle's O(mshrs) in-flight filtering is
    # quadratic and the deque-based fast path is linear.
    rec = TraceRecorder(granularity=64)
    rec.read(0, (128 if quick else 512) * 1024)
    timing_trace = rec.trace()
    params = TimingParameters(mshrs=10_000)
    kernels.append(
        (
            "timing_replay",
            lambda: TimingSimulator(params=params).replay(
                timing_trace, instructions_per_access=0.1
            ),
            lambda: TimingSimulator(params=params).replay_fast(
                timing_trace, instructions_per_access=0.1
            ),
            lambda a, b: a == b,
        )
    )
    return kernels


def measure(name, scalar_fn, fast_fn, check_equal, fast_reps: int = 5) -> dict:
    """Time one engine pair and verify the engines still agree."""
    if not check_equal(scalar_fn(), fast_fn()):
        raise AssertionError("%s: fast path diverged from scalar oracle" % name)
    scalar_s = _best(scalar_fn, 1)
    fast_s = _best(fast_fn, fast_reps)
    return {
        "name": name,
        "scalar_s": scalar_s,
        "fast_s": fast_s,
        "speedup": scalar_s / fast_s,
    }


def run(quick: bool) -> list:
    return [measure(*kernel) for kernel in _build_kernels(quick)]


def _geomean(speedups) -> float:
    return float(np.exp(np.mean(np.log(speedups))))


def _print_rows(rows) -> None:
    for row in rows:
        print(
            "%-22s scalar %9.4fs  fast %9.4fs  (%.1fx)"
            % (row["name"], row["scalar_s"], row["fast_s"], row["speedup"])
        )
    print("headline speedup: %.1fx" % _geomean([r["speedup"] for r in rows]))


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_fast_kernels_meet_speedup_bar():
    rows = {r["name"]: r for r in run(quick=True)}  # raises on divergence
    for name in GATED:
        assert rows[name]["speedup"] >= REQUIRED_SPEEDUP, (
            "%s only %.1fx over its scalar oracle"
            % (name, rows[name]["speedup"])
        )


def test_all_kernels_faster_than_oracle():
    for row in run(quick=True):
        assert row["speedup"] > 1.0, (
            "%s fast path slower than its scalar oracle (%.2fx)"
            % (row["name"], row["speedup"])
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _check_regressions(rows) -> int:
    """Compare quick-size speedups against the committed baseline."""
    committed = {
        r["name"]: r for r in json.loads(JSON_PATH.read_text())["quick_kernels"]
    }
    failures = []
    for row in rows:
        baseline = committed.get(row["name"])
        if baseline is None:
            continue  # new kernel, no baseline yet
        floor = baseline["speedup"] / REGRESSION_FACTOR
        if row["speedup"] < floor:
            failures.append(
                "%s: %.1fx, below %.1fx (committed %.1fx / %g)"
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
        print("no kernel regressed more than %gx vs baseline" % REGRESSION_FACTOR)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="perf-smoke mode: quick sizes, compare against the committed "
        "baseline instead of rewriting it",
    )
    args = parser.parse_args(argv)
    if args.quick:
        rows = run(quick=True)
        _print_rows(rows)
        return _check_regressions(rows)
    full_rows = run(quick=False)
    quick_rows = run(quick=True)
    record = {
        "bench": "vectorized_kernels",
        "generated_by": "benchmarks/bench_perf_kernels.py",
        "kernels": full_rows,
        "quick_kernels": quick_rows,
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
