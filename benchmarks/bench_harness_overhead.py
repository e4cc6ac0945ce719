"""Harness overhead: what each instrumentation layer costs at replay time.

The replay engine sits under optional layers: observability
counters/spans and strict validation invariants.  Each is free to
*enable*, but not free to *run*: counters publish per replay, and strict
mode re-derives conservation checks.  This benchmark measures replay throughput with the layers
stacked one at a time, so a regression in any layer's overhead is
visible as data rather than folklore:

* ``bare``       -- ``CacheHierarchy.replay_fast`` with no recorder active
  (the line-run serial replay, kept as a test oracle in
  ``tests/sim/oracle.py``; it ends in the same counter and strict-check
  tail as the production batched engine)
* ``obs``        -- the same replay inside ``recording()``
* ``validate``   -- ``strict=True`` (invariant + conservation checks)
* ``obs_validate`` -- both layers together

This is a measurement-only benchmark: there is no speedup gate, because
the acceptable overhead is a judgement call that belongs in review, not
a hard threshold that belongs in CI.  The pytest entry point only
asserts that every layer produces bit-identical statistics — the layers
must observe, never perturb.

Run directly to rewrite ``benchmarks/BENCH_harness_overhead.json``::

    PYTHONPATH=src python benchmarks/bench_harness_overhead.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.config import SocConfig
from repro.obs import recording
from repro.workloads.chrome.texture import compositing_trace
from repro.workloads.tensorflow.access_patterns import gemm_lhs_trace

# The replay measured here is a test oracle; make the repo root importable.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.sim.oracle import CacheHierarchy

JSON_PATH = Path(__file__).resolve().parent / "BENCH_harness_overhead.json"


def _workloads(quick: bool) -> list:
    if quick:
        gemm = dict(m=96, k=256, n_blocks=3)
        tex = dict(width=256, height=128)
    else:
        gemm = dict(m=256, k=512, n_blocks=6)
        tex = dict(width=512, height=256)
    return [
        ("gemm_packed", lambda: gemm_lhs_trace(packed=True, **gemm)),
        ("compositing_tiled", lambda: compositing_trace(tiled=True, **tex)),
    ]


def _bare(soc, trace):
    return CacheHierarchy(soc).replay_fast(trace)


def _obs(soc, trace):
    with recording():
        return CacheHierarchy(soc).replay_fast(trace)


def _validate(soc, trace):
    return CacheHierarchy(soc).replay_fast(trace, strict=True)


def _obs_validate(soc, trace):
    with recording():
        return CacheHierarchy(soc).replay_fast(trace, strict=True)


#: (label, runner) in stacking order; ``bare`` must stay first — every
#: other layer's overhead is reported relative to it.
LAYERS = [
    ("bare", _bare),
    ("obs", _obs),
    ("validate", _validate),
    ("obs_validate", _obs_validate),
]


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(name, build_trace, reps: int = 5) -> dict:
    """Per-layer replay throughput for one workload trace."""
    soc = SocConfig()
    trace = build_trace()
    # The layers must not perturb the model before we time them.
    expected = _bare(soc, trace)
    for label, runner in LAYERS[1:]:
        if runner(soc, trace) != expected:
            raise AssertionError("%s: %s layer changed replay stats" % (name, label))
    accesses = len(trace)
    layers = {}
    bare_s = None
    for label, runner in LAYERS:
        seconds = _best(lambda: runner(soc, trace), reps)
        if bare_s is None:
            bare_s = seconds
        layers[label] = {
            "seconds": seconds,
            "accesses_per_s": accesses / seconds,
            "overhead_vs_bare": seconds / bare_s - 1.0,
        }
    return {"name": name, "accesses": accesses, "layers": layers}


def run(quick: bool) -> list:
    return [measure(name, build) for name, build in _workloads(quick)]


def _print_rows(rows) -> None:
    for row in rows:
        print("%s (%d accesses)" % (row["name"], row["accesses"]))
        for label, data in row["layers"].items():
            print(
                "  %-12s %8.3fs  %12.0f acc/s  (+%.1f%%)"
                % (
                    label,
                    data["seconds"],
                    data["accesses_per_s"],
                    100.0 * data["overhead_vs_bare"],
                )
            )


# ----------------------------------------------------------------------
# pytest entry point: layers observe, never perturb
# ----------------------------------------------------------------------

def test_layers_do_not_perturb_replay():
    soc = SocConfig()
    for name, build in _workloads(quick=True):
        trace = build()
        expected = _bare(soc, trace)
        for label, runner in LAYERS[1:]:
            assert runner(soc, trace) == expected, (name, label)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small traces, print only (does not rewrite the JSON record)",
    )
    args = parser.parse_args(argv)
    rows = run(quick=args.quick)
    _print_rows(rows)
    if not args.quick:
        record = {
            "bench": "harness_overhead",
            "generated_by": "benchmarks/bench_harness_overhead.py",
            "workloads": rows,
        }
        with open(JSON_PATH, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        print("wrote %s" % JSON_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
