"""Segment-store throughput: file-per-entry vs append-only segment blobs.

The headline perf metric for the segment-merged result store: the cost
of persisting and re-reading N cached results.  The baseline is the
pre-segment layout — the memo cache's one-JSON-document-per-entry
two-phase commit (write ``*.tmp.<pid>``, ``os.replace``) — whose cost is
dominated by per-entry file opens and renames, the storage-layer face
of the paper's data-movement tax.  The segment path buffers entries and flushes
them as single append-only blobs with an in-blob offset index
(:mod:`repro.core.store`), so N entries cost a handful of writes.

Two paths are measured per payload shape, every run verifying the
values read back are identical between layouts:

* **write**: persist N entries (the acceptance bar: a >=5x entries/sec
  geomean over file-per-entry);
* **hit**: a fresh process re-reads all N entries through
  :class:`repro.core.memo.MemoCache` (gate: no worse than legacy).

The library no longer reads the pre-segment layout, so this module
carries its reader as well as its writer: each does the old work,
including a per-record checksum.

Run directly to record the numbers EXPERIMENTS.md's Performance section
cites::

    PYTHONPATH=src python benchmarks/bench_store.py

which rewrites ``benchmarks/BENCH_store.json`` with full-size and
quick-size measurements.  ``--quick`` is the CI perf-smoke mode: it
re-measures at the quick sizes and fails if any write speedup fell more
than ``REGRESSION_FACTOR``x below the committed baseline, or a hit path
fell below ``NOT_WORSE_FLOOR`` (speedups, not wall-clock, so the gate
is machine-independent).  Under pytest the module asserts the
acceptance bar instead: a >=5x write geomean at full size, with hit no
worse than legacy within timer noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.memo import MemoCache, memo_key

JSON_PATH = Path(__file__).resolve().parent / "BENCH_store.json"

#: Acceptance bar for the full-size write-path geomean (pytest gate).
REQUIRED_WRITE_SPEEDUP = 5.0
#: The hit path must be "no worse" than the legacy layout; timer noise
#: on sub-100ms reads wobbles +-20%, so the floor is below 1.0.
NOT_WORSE_FLOOR = 0.8
#: ``--quick`` fails when a write speedup drops below
#: committed_speedup / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0

#: Entries buffered per segment flush on the write path.  Mirrors what a
#: sweep producer passes via ``--cache-flush-every``; the legacy layout
#: has no equivalent knob (every put is its own file regardless).
FLUSH_EVERY = 64


def _payloads(quick: bool) -> list:
    """(name, entry_count, make_payload) per benchmarked payload shape."""
    scale = 5 if quick else 1
    return [
        ("tiny_results", 2000 // scale, lambda i: {"i": i, "ok": True}),
        (
            "figure_rows",
            500 // scale,
            lambda i: {
                "figure": "F%d" % i,
                "rows": [
                    {"x": j, "baseline": j * 0.5, "pim": j * 0.25}
                    for j in range(40)
                ],
            },
        ),
    ]


# ----------------------------------------------------------------------
# Legacy layout (the pre-segment read and write paths, reproduced exactly)
# ----------------------------------------------------------------------

def _legacy_checksum(value_json: str) -> str:
    return hashlib.sha256(value_json.encode()).hexdigest()[:16]


def _legacy_memo_path(directory: Path, version: str, name) -> Path:
    """The old per-entry document path: ``<key>.json``."""
    return directory / ("%s.json" % memo_key(name, None, version))


def _legacy_memo_put(directory: Path, version: str, name, value) -> None:
    """The old MemoCache.put: a two-phase-commit JSON document per entry."""
    value_json = json.dumps(value, sort_keys=True)
    document = {
        "name": name,
        "version": version,
        "value": value,
        "checksum": _legacy_checksum(value_json),
    }
    path = _legacy_memo_path(directory, version, name)
    tmp = path.with_suffix(".tmp.%d" % os.getpid())
    with open(tmp, "w") as f:
        json.dump(document, f)
    os.replace(tmp, path)


def _legacy_memo_get(directory: Path, version: str, name):
    """The old MemoCache.get: read one document, verify its checksum."""
    try:
        raw = _legacy_memo_path(directory, version, name).read_text()
    except OSError:
        return None
    try:
        document = json.loads(raw)
        value = document["value"]
        stored = document["checksum"]
    except (ValueError, KeyError, TypeError):
        return None
    recomputed = _legacy_checksum(json.dumps(value, sort_keys=True))
    return value if stored == recomputed else None


# ----------------------------------------------------------------------
# Measured paths
# ----------------------------------------------------------------------

def _write_legacy(directory: Path, items) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, value in items:
        _legacy_memo_put(directory, "bench", name, value)


def _write_segment(directory: Path, items) -> None:
    cache = MemoCache(directory, version="bench", flush_every=FLUSH_EVERY)
    for name, value in items:
        cache.put(name, value)
    cache.close()


def _read_legacy(directory: Path, names) -> list:
    """A new process's view of the old layout, re-reading every entry."""
    return [_legacy_memo_get(directory, "bench", name) for name in names]


def _read_segment(directory: Path, names) -> list:
    """A fresh cache (new process's view) re-reading every entry."""
    cache = MemoCache(directory, version="bench")
    return [cache.get(name) for name in names]


def measure(name: str, count: int, make_payload) -> dict:
    """Time write/hit for one payload shape across both layouts."""
    items = [("%s-%05d" % (name, i), make_payload(i)) for i in range(count)]
    names = [n for n, _ in items]
    values = [v for _, v in items]
    root = Path(tempfile.mkdtemp(prefix="bench_store_"))
    try:
        legacy_dir, segment_dir = root / "legacy", root / "segment"

        def write_legacy():
            shutil.rmtree(legacy_dir, ignore_errors=True)
            _write_legacy(legacy_dir, items)

        def write_segment():
            shutil.rmtree(segment_dir, ignore_errors=True)
            _write_segment(segment_dir, items)

        write = {
            "legacy_s": _best(write_legacy, 2),
            "segment_s": _best(write_segment, 3),
        }
        # Both layouts must read back exactly what was written.
        if _read_legacy(legacy_dir, names) != values:
            raise AssertionError("%s: legacy layout altered a value" % name)
        if _read_segment(segment_dir, names) != values:
            raise AssertionError("%s: segment layout altered a value" % name)
        hit = {
            "legacy_s": _best(lambda: _read_legacy(legacy_dir, names), 3),
            "segment_s": _best(lambda: _read_segment(segment_dir, names), 3),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    row = {"name": name, "entries": count}
    for path_name, timings in (("write", write), ("hit", hit)):
        row[path_name] = {
            "legacy_s": timings["legacy_s"],
            "segment_s": timings["segment_s"],
            "legacy_entries_per_s": count / timings["legacy_s"],
            "segment_entries_per_s": count / timings["segment_s"],
            "speedup": timings["legacy_s"] / timings["segment_s"],
        }
    return row


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _geomean(speedups) -> float:
    return float(np.exp(np.mean(np.log(speedups))))


def run(quick: bool) -> list:
    return [
        measure(name, count, make)
        for name, count, make in _payloads(quick)
    ]


def _print_rows(rows) -> None:
    for row in rows:
        print(
            "%-14s %5d entries  write %6.1fx  hit %5.2fx"
            % (
                row["name"],
                row["entries"],
                row["write"]["speedup"],
                row["hit"]["speedup"],
            )
        )
    print(
        "headline write speedup: %.1fx (entries/sec vs file-per-entry)"
        % _geomean([r["write"]["speedup"] for r in rows])
    )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_write_path_meets_speedup_bar():
    rows = run(quick=False)  # raises if either layout alters a value
    headline = _geomean([r["write"]["speedup"] for r in rows])
    assert headline >= REQUIRED_WRITE_SPEEDUP, (
        "write path only %.1fx entries/sec over file-per-entry" % headline
    )
    for row in rows:
        assert row["hit"]["speedup"] >= NOT_WORSE_FLOOR, (
            "%s hit path %.2fx: worse than the legacy layout"
            % (row["name"], row["hit"]["speedup"])
        )


def test_quick_write_path_faster_than_file_per_entry():
    for row in run(quick=True):
        assert row["write"]["speedup"] > 1.0, (
            "%s segment writes slower than file-per-entry (%.2fx)"
            % (row["name"], row["write"]["speedup"])
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _check_regressions(rows) -> int:
    """Compare quick-size speedups against the committed baseline."""
    committed = {
        r["name"]: r for r in json.loads(JSON_PATH.read_text())["quick_sweeps"]
    }
    failures = []
    for row in rows:
        baseline = committed.get(row["name"])
        if baseline is None:
            continue  # new payload shape, no baseline yet
        # Quick sizes finish in milliseconds, so speedups wobble hard;
        # never demand more than the acceptance bar itself — a run that
        # still clears 5x is noise, not a regression.
        floor = min(
            baseline["write"]["speedup"] / REGRESSION_FACTOR,
            REQUIRED_WRITE_SPEEDUP,
        )
        if row["write"]["speedup"] < floor:
            failures.append(
                "%s write: %.1fx, below %.1fx (committed %.1fx / %g)"
                % (
                    row["name"],
                    row["write"]["speedup"],
                    floor,
                    baseline["write"]["speedup"],
                    REGRESSION_FACTOR,
                )
            )
        if row["hit"]["speedup"] < NOT_WORSE_FLOOR:
            failures.append(
                "%s hit: %.2fx, below the %.2fx no-worse floor"
                % (row["name"], row["hit"]["speedup"], NOT_WORSE_FLOOR)
            )
    for failure in failures:
        print("PERF REGRESSION %s" % failure)
    if not failures:
        print(
            "no path regressed more than %gx vs baseline" % REGRESSION_FACTOR
        )
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
        "bench": "store",
        "generated_by": "benchmarks/bench_store.py",
        "flush_every": FLUSH_EVERY,
        "sweeps": full_rows,
        "quick_sweeps": quick_rows,
        "headline_write_speedup": _geomean(
            [r["write"]["speedup"] for r in full_rows]
        ),
    }
    with open(JSON_PATH, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    _print_rows(full_rows)
    print("wrote %s" % JSON_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
