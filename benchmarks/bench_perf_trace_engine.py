"""Trace-engine replay throughput: per-access oracle vs line-run fast path.

Replay throughput (trace lines replayed per second) of
``CacheHierarchy.replay`` (the per-access oracle) against
``CacheHierarchy.replay_fast`` (line-run compression), on
byte-granularity traces of ≥1M accesses.  Both engines are the serial
test oracles in ``tests/sim/oracle.py``, which the production batched
engine (``repro.sim.batch``) is differentially tested against; this
bench times those two oracles and no production code.

Run directly to record the numbers that EXPERIMENTS.md's Performance
section is generated from::

    PYTHONPATH=src python benchmarks/bench_perf_trace_engine.py

which rewrites ``benchmarks/BENCH_trace_engine.json``.  Under pytest the
module asserts the acceptance bar instead: bit-identical statistics and
≥5x throughput on a ≥1M-access trace.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.sim.trace import MemoryTrace, TraceRecorder

# The replays timed here are test oracles; make the repo root importable.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.sim.oracle import CacheHierarchy

JSON_PATH = Path(__file__).resolve().parent / "BENCH_trace_engine.json"

#: Acceptance bar for the fast path on the big streaming trace.
REQUIRED_SPEEDUP = 5.0


def streaming_trace(total_bytes: int = 4 << 20, passes: int = 2) -> MemoryTrace:
    """Byte-granularity read stream: the 4K-frame-decode shape."""
    rec = TraceRecorder(granularity=8)
    for _ in range(passes):
        rec.read(0, total_bytes)
    return rec.trace()


def write_heavy_trace(total_bytes: int = 4 << 20, passes: int = 2) -> MemoryTrace:
    """Byte-granularity write stream: dirty evictions on every miss."""
    rec = TraceRecorder(granularity=8)
    for _ in range(passes):
        rec.write(0, total_bytes)
    return rec.trace()


def mixed_trace(seed: int = 7) -> MemoryTrace:
    """LLC-resident reuse + strided rows + scattered element reads."""
    rng = np.random.default_rng(seed)
    rec = TraceRecorder(granularity=8)
    for _ in range(3):
        rec.read(0, 512 * 1024)
        rec.write(0, 256 * 1024)
    for i in range(4000):
        rec.read((1 << 26) + i * 4096, 256)
    rec.read_indices(
        1 << 28, rng.integers(0, 1 << 22, 100_000, dtype=np.uint64), element_size=4
    )
    return rec.trace()


TRACES = (
    ("streaming-read", streaming_trace),
    ("streaming-write", write_heavy_trace),
    ("mixed-locality", mixed_trace),
)


def measure(trace: MemoryTrace) -> dict:
    """Time both replay paths on one trace and check equivalence."""
    t0 = time.perf_counter()
    oracle = CacheHierarchy().replay(trace)
    baseline_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = CacheHierarchy().replay_fast(trace)
    fast_s = time.perf_counter() - t0
    if fast != oracle:
        raise AssertionError("replay_fast diverged from the per-access oracle")
    n = len(trace)
    return {
        "accesses": n,
        "baseline_s": baseline_s,
        "fast_s": fast_s,
        "baseline_lines_per_s": n / baseline_s,
        "fast_lines_per_s": n / fast_s,
        "speedup": baseline_s / fast_s,
    }


def run() -> dict:
    rows = []
    for name, build in TRACES:
        row = {"name": name}
        row.update(measure(build()))
        rows.append(row)
    speedups = [r["speedup"] for r in rows]
    return {
        "bench": "trace_engine_replay",
        "generated_by": "benchmarks/bench_perf_trace_engine.py",
        "traces": rows,
        "headline_speedup": float(np.exp(np.mean(np.log(speedups)))),
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_fast_replay_speedup_on_1m_trace():
    trace = streaming_trace()
    assert len(trace) >= 1_000_000
    row = measure(trace)  # raises if the stats diverge
    assert row["speedup"] >= REQUIRED_SPEEDUP, (
        "fast replay only %.1fx over the oracle" % row["speedup"]
    )


def test_fast_replay_throughput(benchmark):
    trace = streaming_trace(total_bytes=1 << 20, passes=1)
    hierarchy = CacheHierarchy()

    def replay():
        hierarchy.reset()
        return hierarchy.replay_fast(trace)

    stats = benchmark(replay)
    assert stats.l1.accesses == len(trace)


def main() -> int:
    record = run()
    with open(JSON_PATH, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for row in record["traces"]:
        print(
            "%-16s %9d accesses  %10.0f -> %10.0f lines/s  (%.1fx)"
            % (
                row["name"],
                row["accesses"],
                row["baseline_lines_per_s"],
                row["fast_lines_per_s"],
                row["speedup"],
            )
        )
    print("headline speedup: %.1fx" % record["headline_speedup"])
    print("wrote %s" % JSON_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
