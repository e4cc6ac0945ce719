"""Import budget: each command loads only the code it runs.

Package ``__init__`` modules re-export their public names lazily
(:mod:`repro._lazy`), so ``import repro.cli`` loads no model code and a
warm ``figures`` answers every figure from the memo cache without
importing a figure harness, a workload model or NumPy.  The first two
checks run fresh interpreters, since this test process has long since
imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Packages that re-export through a lazy table.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.sim",
    "repro.energy",
    "repro.obs",
    "repro.validate",
    "repro.analysis",
    "repro.workloads.chrome",
    "repro.workloads.tensorflow",
    "repro.workloads.vp9",
)

#: Model code ``import repro.cli`` must not load.
MODEL_PACKAGES = (
    "repro.core",
    "repro.sim",
    "repro.energy",
    "repro.analysis",
    "repro.workloads",
)

#: Figure harnesses a fully warm ``figures`` must not import.
FIGURE_MODULES = (
    "repro.analysis.chrome_figures",
    "repro.analysis.tensorflow_figures",
    "repro.analysis.video_figures",
    "repro.analysis.headline",
)


def _env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _in_package(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def _imported_by(argv: list[str], env: dict) -> tuple[set[str], str]:
    """(modules imported, stdout) of ``python -X importtime ARGV``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }
    return modules, proc.stdout


class TestImportBudget:
    def test_import_cli_loads_no_model_code(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys\n"
                "import repro.cli\n"
                "print(json.dumps(sorted(sys.modules)))\n",
            ],
            env=_env(tmp_path / "memo"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert "numpy" not in loaded
        assert [m for m in loaded if _in_package(m, MODEL_PACKAGES)] == []

    def test_warm_figures_imports_no_model_code(self, tmp_path):
        env = _env(tmp_path / "memo")
        cold, cold_out = _imported_by(["-m", "repro", "figures"], env)
        assert "numpy" in cold  # the cold run did the model work
        warm, warm_out = _imported_by(["-m", "repro", "figures"], env)
        assert warm_out == cold_out
        assert "repro.cli" in warm
        assert "numpy" not in warm
        assert sorted(m for m in warm if _in_package(m, ("repro.workloads",))) == []
        assert sorted(m for m in warm if _in_package(m, FIGURE_MODULES)) == []


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_names_resolve_to_their_defining_module(self, package):
        pkg = importlib.import_module(package)
        names = []
        for module, exported in pkg._EXPORTS.items():
            defining = importlib.import_module(module, package)
            for name in exported:
                expected = getattr(defining, name)
                # Through the lazy lookup, and as a (cached) attribute.
                assert pkg.__getattr__(name) is expected, name
                assert getattr(pkg, name) is expected, name
                assert name in dir(pkg), name
                names.append(name)
        assert sorted(n for n in pkg.__all__ if n != "__version__") == sorted(names)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(pkg, "no_such_name")

    def test_from_package_import_submodule(self):
        from repro.workloads.chrome import lzo

        assert lzo is sys.modules["repro.workloads.chrome.lzo"]
        assert lzo.compress is importlib.import_module("repro.workloads.chrome").compress
