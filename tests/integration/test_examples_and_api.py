"""The examples stay runnable and the public API surface stays intact."""

import importlib
import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


class TestExamples:
    def test_examples_exist(self):
        names = {p.stem for p in EXAMPLES}
        assert {"quickstart", "browser_analysis", "mobile_inference",
                "video_pipeline", "custom_workload"} <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_example_runs(self, path, capsys):
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        assert len(out) > 100  # produced real output


class TestPublicApi:
    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.config",
            "repro.energy",
            "repro.sim",
            "repro.core",
            "repro.analysis",
            "repro.workloads.chrome",
            "repro.workloads.tensorflow",
            "repro.workloads.vp9",
        ],
    )
    def test_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), "%s.%s missing" % (module, name)

    def test_top_level_convenience(self):
        import repro

        runner = repro.ExperimentRunner()
        assert runner is not None
        assert repro.default_system().bandwidth_ratio == pytest.approx(8.0)

    def test_version(self):
        import repro

        assert repro.__version__
