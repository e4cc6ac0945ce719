"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import headline_from_counters, load_manifest


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_areas(self, capsys):
        assert main(["areas"]) == 0
        out = capsys.readouterr().out
        assert "pim_core" in out
        assert "motion_estimation" in out
        assert "TOO BIG" not in out

    def test_codec(self, capsys):
        assert main(["codec", "--width", "48", "--height", "48", "--frames", "3"]) == 0
        out = capsys.readouterr().out
        assert "PSNR" in out

    def test_evaluate_chrome(self, capsys):
        assert main(["evaluate", "--workload", "chrome"]) == 0
        out = capsys.readouterr().out
        assert "texture_tiling" in out
        assert "mean energy reduction" in out

    def test_evaluate_vp9(self, capsys):
        assert main(["evaluate", "--workload", "vp9"]) == 0
        assert "motion_estimation" in capsys.readouterr().out

    def test_figures_filter(self, capsys):
        assert main(["figures", "--figure", "Table 1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Figure 18" not in out

    def test_figures_filter_matching_nothing_exits_2(self, capsys):
        assert main(["figures", "--figure", "Figure 99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no figure matches 'Figure 99'")
        assert captured.err.count("\n") == 1
        assert "Table 1" in captured.err and "Figure 18" in captured.err

    def test_figures_write(self, tmp_path, capsys):
        path = tmp_path / "EXP.md"
        assert main(["figures", "--write", str(path)]) == 0
        assert path.exists()
        assert "## Headline" in path.read_text()

    def test_characterize(self, capsys):
        assert main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "AVERAGE" in out
        assert "62.7%" in out

    def test_export(self, tmp_path, capsys):
        d = tmp_path / "data"
        assert main(["export", "--dir", str(d)]) == 0
        assert (d / "index.json").exists()
        assert "17 files" in capsys.readouterr().out

    def test_scorecard(self, capsys):
        assert main(["scorecard"]) == 0
        out = capsys.readouterr().out
        assert "anchors within tolerance" in out

    def test_figures_chart(self, capsys):
        assert main(["figures", "--figure", "Figure 1", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "#" in out

    def test_figures_no_cache(self, capsys):
        assert main(["figures", "--figure", "Table 1", "--no-cache"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_figures_warm_cache_round(self, capsys):
        assert main(["figures", "--figure", "Table 1"]) == 0
        first = capsys.readouterr().out
        assert main(["figures", "--figure", "Table 1"]) == 0
        assert capsys.readouterr().out == first

    def test_figures_parallel(self, capsys):
        assert main(["figures", "--figure", "Table 1", "--jobs", "2", "--no-cache"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_evaluate_parallel(self, capsys):
        assert main(["evaluate", "--workload", "chrome", "--jobs", "2"]) == 0
        assert "texture_tiling" in capsys.readouterr().out

    def test_cachesweep_batched_and_serial_agree(self, tmp_path, capsys):
        store = str(tmp_path / "traces")
        args = ["cachesweep", "--workload", "tensorflow.gemm_packed",
                "--trace-dir", store, "--no-cache"]
        assert main(args) == 0
        batched = capsys.readouterr().out
        assert "batched" in batched
        assert "l1=64kB/4w,llc=2MB/8w" in batched
        assert main(args + ["--no-batch"]) == 0
        serial = capsys.readouterr().out
        # Identical rows, different engine tag.
        assert serial.replace("serial/cached", "batched") == batched

    def test_cachesweep_unknown_workload(self, capsys):
        assert main(["cachesweep", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_cachesweep_checkpoint_resume(self, tmp_path, capsys):
        store = str(tmp_path / "traces")
        journal = str(tmp_path / "sweep.jsonl")
        args = ["cachesweep", "--workload", "chrome.compositing_tiled",
                "--trace-dir", store, "--no-cache", "--checkpoint", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed.replace("serial/cached", "batched") == first

    def test_cachesweep_parallel_rows_identical(self, tmp_path, capsys):
        store = str(tmp_path / "traces")
        args = ["cachesweep", "--workload", "tensorflow.gemm_packed",
                "--trace-dir", store, "--no-cache"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_trace_list_prune_clear(self, tmp_path, capsys):
        store = str(tmp_path / "traces")
        assert main(["cachesweep", "--workload", "tensorflow.gemm_packed",
                     "--trace-dir", store, "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["trace", "list", "--dir", store]) == 0
        listing = capsys.readouterr().out
        assert "tensorflow.gemm_packed" in listing
        assert "current" in listing
        # The current version's artifact survives an age prune...
        assert main(["trace", "prune", "--dir", store,
                     "--max-age-days", "0"]) == 0
        capsys.readouterr()
        assert main(["trace", "list", "--dir", store]) == 0
        assert "tensorflow.gemm_packed" in capsys.readouterr().out
        # ...but clear removes everything.
        assert main(["trace", "clear", "--dir", store]) == 0
        capsys.readouterr()
        assert main(["trace", "list", "--dir", store]) == 0
        assert "tensorflow.gemm_packed" not in capsys.readouterr().out


class TestObservabilityFlags:
    def test_evaluate_writes_manifest_and_trace(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        trace_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "evaluate",
                    "--workload",
                    "chrome",
                    "--manifest",
                    str(out_dir),
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote manifest" in out and "wrote trace" in out

        manifest = load_manifest(out_dir)
        assert manifest["schema"] == "repro-run-manifest/v1"
        assert manifest["counters"]["core.runner.targets"] == 4
        assert manifest["counters"]["core.offload.comparisons"] == 4
        assert manifest["counters"]["sim.dram.offchip.bytes"] > 0
        assert manifest["counters"]["energy.pim_acc.pim_memory"] > 0
        span_names = [s["name"] for s in manifest["spans"]]
        assert "core.runner.evaluate" in span_names
        assert "core.runner.target.texture_tiling" in span_names

        with open(trace_path) as f:
            document = json.load(f)
        assert document["traceEvents"]
        assert all(e["ph"] == "X" for e in document["traceEvents"])

    def test_evaluate_manifest_rederives_results(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["evaluate", "--manifest", str(out_dir)]) == 0
        manifest = load_manifest(out_dir)
        derived = headline_from_counters(manifest["counters"])
        results = manifest["results"]
        assert (
            abs(
                derived["mean_pim_acc_energy_reduction"]
                - results["mean_pim_acc_energy_reduction"]
            )
            < 1e-12
        )
        assert (
            abs(derived["mean_pim_acc_speedup"] - results["mean_pim_acc_speedup"])
            < 1e-12
        )
        assert sorted(derived["targets"]) == sorted(results["targets"])

    def test_evaluate_parallel_manifest_merges_workers(self, tmp_path):
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "evaluate",
                    "--workload",
                    "chrome",
                    "--jobs",
                    "2",
                    "--manifest",
                    str(out_dir),
                ]
            )
            == 0
        )
        manifest = load_manifest(out_dir)
        assert manifest["counters"]["core.runner.targets"] == 4
        # Per-target spans recorded in worker processes came home.
        names = [s["name"] for s in manifest["spans"]]
        assert "core.runner.target.color_blitting" in names

    def test_figures_manifest(self, tmp_path):
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "figures",
                    "--figure",
                    "Table 1",
                    "--manifest",
                    str(out_dir),
                    "--trace-out",
                    str(tmp_path / "trace.json"),
                ]
            )
            == 0
        )
        manifest = load_manifest(out_dir)
        assert manifest["command"].startswith("figures")
        assert manifest["results"]["figures"]
        assert "analysis.all_results" in [s["name"] for s in manifest["spans"]]
        assert (tmp_path / "trace.json").exists()

    def test_no_flags_no_files(self, tmp_path, capsys):
        assert main(["evaluate", "--workload", "vp9"]) == 0
        out = capsys.readouterr().out
        assert "wrote manifest" not in out and "wrote trace" not in out
