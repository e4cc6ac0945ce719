"""Tests of the benchmark itself.

    python -m pytest perfbench

The end-to-end cases run every workload in ``--quick`` mode (one set-up,
two operations per phase), so the whole file takes about 90 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import Tracer, self_times  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Context, Workload  # noqa: E402


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    result = None
    if done.returncode == 0:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    return done, result


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_direct_children():
    events = [
        ("op", 0.0, 10.0, 1),
        ("a", 1.0, 5.0, 1),
        ("b", 2.0, 3.0, 1),
        ("b", 6.0, 7.0, 1),
        ("worker", 0.0, 4.0, 2),
    ]
    selfs, counts = self_times(events)
    assert selfs == {"op": 5.0, "a": 3.0, "b": 2.0, "worker": 4.0}
    assert counts == {"op": 1, "a": 1, "b": 2, "worker": 1}


class Raising(Workload):
    in_process = False

    def operation(self):
        with self.ctx.span("op"):
            raise RuntimeError("boom")


def test_raising_operations_are_counted_and_leave_no_spans(tmp_path):
    ctx = Context(ROOT, tmp_path, 0, {})
    ctx.tracer = Tracer()
    ops = run.measure(Raising(ctx), 0, 2)
    assert [op.ok for op in ops] == [False, False]
    assert ctx.tracer.events == []
    values = run.layer_values(Raising(ctx), ops, ops)
    assert values["workloads.trace_build_s"] == 0.0


def test_host_speed_scales_by_the_brackets(monkeypatch):
    units = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(workloads, "host_unit", lambda: next(units))
    speed = workloads.HostSpeed()
    assert speed.scale(1.0) == pytest.approx(workloads.REF_UNIT_S / 0.02)
    assert speed.scale(1.0) == pytest.approx(workloads.REF_UNIT_S / 0.025)


def test_tail_keeps_ten_samples_beyond_it():
    walls = [float(i) for i in range(1, 41)]
    assert run.tail_of(walls) == (30.0, 75)
    assert run.tail_of([1.0, 2.0]) == (2.0, 100)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_emits_every_metric_and_no_errors(workload, trace):
    done, result = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--quick",
    )
    assert done.returncode == 0, done.stderr
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["figures", "sweep", "cli"])
def test_corrupted_reference_counts_failed_operations(workload, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["figures"] = "0" * 32
    reference["sweep"] = "0" * 32
    reference["cli"]["evaluate"] = "0" * 32
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    done, result = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", "0", "--quick", "--reference", str(corrupted),
    )
    assert done.returncode == 0, done.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done, result = bench(
        "--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert result is None and '"correct"' not in done.stdout
