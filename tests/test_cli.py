"""Unit tests for the command-line interface."""

import json
import os
import time

import pytest

from repro.cli import build_parser, main
from repro.core.memo import MemoCache
from repro.obs import headline_from_counters, load_manifest


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", ["figures", "evaluate", "cachesweep"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--max-retries", "3"],
            ["--target-timeout", "5"],
            ["--checkpoint", "sweep.log"],
            ["--resume"],
        ],
        ids=["max-retries", "target-timeout", "checkpoint", "resume"],
    )
    def test_fault_tolerance_flags_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command] + flag)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: %s" % flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figures", "evaluate"])
    def test_jobs_flag_is_gone(self, command, capsys):
        """Figures and targets run in one process, so ``--jobs`` is no
        flag of theirs: argparse exits 2 before anything runs."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--jobs", "2"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err

    @pytest.mark.parametrize("flag", ["--batch", "--no-batch"])
    def test_engine_flags_are_gone(self, flag, tmp_path, capsys):
        """The batched engine is the only one, so nothing selects it."""
        with pytest.raises(SystemExit) as exit_info:
            main(["cachesweep", "--workload", "tensorflow.gemm_packed",
                  "--trace-dir", str(tmp_path / "traces"), "--no-cache", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "args",
        [
            ["figures", "--figure", "Table 1"],
            ["cachesweep", "--workload", "tensorflow.gemm_packed"],
        ],
        ids=["figures", "cachesweep"],
    )
    def test_memo_cache_closed(self, args, tmp_path, monkeypatch, capsys):
        """A command that writes memo entries closes the cache it opened,
        so an in-process ``main`` leaves no segment blob open."""
        opened, closed = [], []
        init, close = MemoCache.__init__, MemoCache.close

        def init_spy(cache, *a, **kw):
            opened.append(cache)
            init(cache, *a, **kw)

        def close_spy(cache):
            closed.append(cache)
            close(cache)

        monkeypatch.setattr(MemoCache, "__init__", init_spy)
        monkeypatch.setattr(MemoCache, "close", close_spy)
        if args[0] == "cachesweep":
            args = args + ["--trace-dir", str(tmp_path / "traces")]
        assert main(args) == 0
        assert len(opened) == 1 and closed == opened

    def test_cachesweep_batched_and_serial_agree(self, tmp_path, capsys):
        store = str(tmp_path / "traces")
        args = ["cachesweep", "--workload", "tensorflow.gemm_packed",
                "--trace-dir", store, "--no-cache"]
        assert main(args) == 0
        batched = capsys.readouterr().out
        assert batched.startswith("tensorflow.gemm_packed  (artifact ")
        assert batched.splitlines()[0].endswith(", batched)")
        assert "l1=64kB/4w,llc=2MB/8w" in batched

    @pytest.mark.parametrize(
        "args",
        [
            ["cachesweep", "--workload", "tensorflow.gemm_packed",
             "--no-cache", "--jobs", "0"],
        ],
        ids=["cachesweep"],
    )
    def test_jobs_below_one_rejected(self, args, tmp_path, capsys):
        args = args + ["--trace-dir", str(tmp_path / "traces")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        jobs = args[args.index("--jobs") + 1]
        assert captured.err == "error: --jobs must be >= 1, got %s\n" % jobs

    def test_cachesweep_unknown_workload(self, capsys):
        assert main(["cachesweep", "--workload", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: unknown workload 'nope'; available: "
        )
        assert captured.err.count("\n") == 1
        assert "tensorflow.gemm_packed" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ["cache", "prune"],
            ["trace", "prune"],
        ],
        ids=["cache-prune", "trace-prune"],
    )
    def test_max_age_days_below_zero_rejected(self, args, tmp_path, capsys):
        victim = tmp_path / "dead.tmp.1"
        victim.write_text("{")
        assert main(args + ["--dir", str(tmp_path), "--max-age-days", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-age-days must be >= 0, got -1\n"
        assert victim.exists()

    @pytest.mark.parametrize("workload", ["tensorflow.gemm_packed", "all"])
    def test_cachesweep_parallel_rows_identical(self, workload, tmp_path, capsys):
        store = str(tmp_path / "traces")
        args = ["cachesweep", "--workload", workload,
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


class TestCacheCommand:
    """``cache prune|clear`` over a directory the memo cache wrote."""

    def test_prune_clear(self, tmp_path, capsys):
        for name in ("fig1", "fig2"):
            writer = MemoCache(tmp_path)
            writer.put(name, {"rows": [name]})
            writer.close()
        foreign = MemoCache(tmp_path, version="old")
        foreign.put("fig1", {"rows": []})
        foreign.close()
        debris = tmp_path / "dead.tmp.12345"
        debris.write_text("{")
        ancient = time.time() - 90 * 86400
        for path in tmp_path.iterdir():
            os.utime(path, (ancient, ancient))
        directory = ["--dir", str(tmp_path)]

        # Current-version blobs are never age-pruned; the foreign blob
        # and the debris are.
        assert main(["cache", "prune"] + directory) == 0
        assert capsys.readouterr().out == (
            "pruned 2 file(s) from %s (older than 30 day(s), or damaged)\n" % tmp_path
        )
        assert MemoCache(tmp_path).get("fig1") == {"rows": ["fig1"]}
        assert MemoCache(tmp_path).get("fig2") == {"rows": ["fig2"]}

        assert main(["cache", "clear"] + directory) == 0
        assert capsys.readouterr().out == (
            "cleared 2 entries/files from %s\n" % tmp_path
        )
        assert list(tmp_path.iterdir()) == []


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

    def test_cachesweep_parallel_manifest_merges_workers(self, tmp_path):
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "cachesweep",
                    "--workload",
                    "tensorflow.gemm_packed",
                    "--trace-dir",
                    str(tmp_path / "traces"),
                    "--no-cache",
                    "--jobs",
                    "2",
                    "--manifest",
                    str(out_dir),
                ]
            )
            == 0
        )
        manifest = load_manifest(out_dir)
        assert manifest["counters"]["core.runner.parallel_batches"] == 1
        shards = manifest["counters"]["core.runner.shards"]
        assert shards >= 2
        # Per-shard spans recorded in worker processes came home.
        names = [s["name"] for s in manifest["spans"]]
        for k in range(shards):
            assert "core.runner.shard.shard-%d" % k in names

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
