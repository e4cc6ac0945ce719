"""Run-manifest tests: build/write/mask round trips, process-safe
aggregation, headline re-derivation, and the golden-manifest regression.

The golden test runs a tiny pinned configuration end-to-end under an
active recorder, masks the volatile fields (wall-clock, host, versions,
source digest), and compares the canonical JSON byte-for-byte against
``golden_manifest.json``.  Any silent counter drift — an energy constant
nudged, a coherence overhead miscounted, a counter renamed — fails the
byte comparison, the same way the figure tests catch output drift.
Regenerate the golden after an *intentional* model change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_manifest.py

``golden_evaluate_all.json`` and ``golden_cachesweep_all.json`` pin the
manifests of two whole user commands the same way: ``evaluate
--workload all`` and a cold ``cachesweep --workload all`` into a fresh
memo cache and trace store, so the golden also pins the cache's
``core.memo.misses``/``puts`` and the store's write counters.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import default_system
from repro.core.runner import ExperimentRunner
from repro.obs import (
    build_manifest,
    config_hash,
    headline_from_counters,
    load_manifest,
    manifest_json,
    masked,
    recording,
    write_manifest,
)
from repro.obs.manifest import MASK, VOLATILE_KEYS
from repro.validate import strict_mode
from repro.workloads.chrome.targets import browser_pim_targets

GOLDEN_PATH = Path(__file__).parent / "golden_manifest.json"

#: Whole-command goldens: file name -> CLI argv (``--manifest`` added).
COMMAND_GOLDENS = {
    "golden_evaluate_all.json": ["evaluate", "--workload", "all"],
    "golden_cachesweep_all.json": ["cachesweep", "--workload", "all"],
}


def tiny_run_manifest() -> dict:
    """The pinned end-to-end run behind the golden test: two browser
    targets on the default Table 1 system, evaluated serially.

    Strict mode is pinned *off*: it publishes mode-dependent
    ``validate.*`` check counters, and the golden pins the model's
    counter surface, which must not vary with ``REPRO_STRICT``.
    """
    targets = browser_pim_targets()[:2]
    with strict_mode(False), recording() as rec:
        result = ExperimentRunner().evaluate(targets)
        return build_manifest(
            command="golden: evaluate 2 browser targets",
            config=default_system(),
            seed=0,
            results={
                "mean_pim_acc_energy_reduction":
                    result.mean_pim_acc_energy_reduction,
                "mean_pim_acc_speedup": result.mean_pim_acc_speedup,
                "targets": result.names,
            },
            recorder=rec,
        )


def command_manifest(argv: list, root: Path, monkeypatch) -> dict:
    """Run one CLI command in-process against a fresh cache directory and
    trace store under ``root``; return its masked manifest.

    Strict mode is pinned off for the same reason as
    :func:`tiny_run_manifest`.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root / "cache"))
    args = list(argv) + ["--manifest", str(root / "obs")]
    if argv[0] == "cachesweep":
        args += ["--trace-dir", str(root / "traces")]
    with strict_mode(False):
        assert main(args) == 0
    return masked(load_manifest(root / "obs"))


class TestManifestBasics:
    def test_build_contains_all_sections(self):
        with recording() as rec:
            rec.counters.add("test.counter", 3)
            with rec.span("test.stage"):
                pass
            manifest = build_manifest(command="unit", config=default_system())
        assert manifest["schema"] == "repro-run-manifest/v1"
        assert manifest["command"] == "unit"
        assert manifest["counters"]["test.counter"] == 3
        assert [s["name"] for s in manifest["spans"]] == ["test.stage"]
        assert manifest["config_hash"] == config_hash(default_system())
        assert len(manifest["code_version"]) == 16
        assert set(manifest["versions"]) == {"python", "numpy", "repro"}

    def test_config_hash_distinguishes_configs(self):
        from repro.config import CacheConfig

        assert config_hash(default_system()) == config_hash(default_system())
        assert config_hash(CacheConfig(1024, 2)) != config_hash(
            CacheConfig(2048, 2)
        )

    def test_write_into_directory_and_load(self, tmp_path):
        manifest = {"schema": "repro-run-manifest/v1", "counters": {}}
        path = write_manifest(tmp_path / "out", manifest)
        assert path == tmp_path / "out" / "manifest.json"
        assert load_manifest(tmp_path / "out") == manifest
        assert load_manifest(path) == manifest

    def test_write_to_explicit_file(self, tmp_path):
        path = write_manifest(tmp_path / "m.json", {"a": 1})
        assert path == tmp_path / "m.json"
        assert json.loads(path.read_text()) == {"a": 1}

    def test_masked_hides_volatile_keeps_counters(self):
        manifest = tiny_run_manifest()
        hidden = masked(manifest)
        for key in VOLATILE_KEYS:
            assert hidden[key] == MASK
        assert hidden["counters"] == manifest["counters"]
        assert hidden["results"] == manifest["results"]
        for span in hidden["spans"]:
            assert span["start_s"] == MASK and span["duration_s"] == MASK
            assert isinstance(span["name"], str)


class TestHeadlineRederivation:
    def test_headline_rederives_from_counters_alone(self):
        """The acceptance check: a manifest's counters alone reproduce the
        paper's PIM-Acc headline (−55.4% energy / −54.2% time ≈ 2.2x)."""
        from repro.analysis.headline import all_pim_targets

        with recording() as rec:
            result = ExperimentRunner().evaluate(all_pim_targets())
            manifest = build_manifest(command="headline", recorder=rec)
        derived = headline_from_counters(manifest["counters"])
        # Exactly equal to the runner's own aggregates...
        assert (
            abs(
                derived["mean_pim_acc_energy_reduction"]
                - result.mean_pim_acc_energy_reduction
            )
            < 1e-12
        )
        assert (
            abs(derived["mean_pim_acc_speedup"] - result.mean_pim_acc_speedup)
            < 1e-12
        )
        # ...and within the reproduction's stated tolerance of the paper.
        assert abs(derived["mean_pim_acc_energy_reduction"] - 0.554) < 0.1
        assert abs(derived["mean_pim_core_energy_reduction"] - 0.491) < 0.1
        assert derived["mean_pim_acc_speedup"] > 1.542 - 0.5
        assert len(derived["targets"]) == len(all_pim_targets())

    def test_headline_from_empty_counters(self):
        derived = headline_from_counters({})
        assert derived["targets"] == []
        assert derived["mean_pim_acc_energy_reduction"] == 0.0


class TestGoldenManifest:
    def test_golden_manifest_byte_stable(self):
        got = manifest_json(masked(tiny_run_manifest()))
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(got)
        want = GOLDEN_PATH.read_text()
        assert got == want, (
            "manifest drifted from tests/obs/golden_manifest.json — if the "
            "model change is intentional, regenerate with "
            "REPRO_UPDATE_GOLDEN=1"
        )

    def test_golden_is_deterministic_across_runs(self):
        first = manifest_json(masked(tiny_run_manifest()))
        second = manifest_json(masked(tiny_run_manifest()))
        assert first == second


class TestCommandGoldens:
    @pytest.mark.parametrize("filename", sorted(COMMAND_GOLDENS))
    def test_command_manifest_byte_stable(self, filename, tmp_path, monkeypatch):
        got = manifest_json(
            command_manifest(COMMAND_GOLDENS[filename], tmp_path, monkeypatch)
        )
        path = Path(__file__).parent / filename
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            path.write_text(got)
        assert got == path.read_text(), (
            "manifest drifted from tests/obs/%s — if the model change is "
            "intentional, regenerate with REPRO_UPDATE_GOLDEN=1" % filename
        )

    @pytest.mark.parametrize("filename", sorted(COMMAND_GOLDENS))
    def test_command_golden_is_deterministic_across_runs(
        self, filename, tmp_path, monkeypatch
    ):
        argv = COMMAND_GOLDENS[filename]
        first = command_manifest(argv, tmp_path / "a", monkeypatch)
        second = command_manifest(argv, tmp_path / "b", monkeypatch)
        assert manifest_json(first) == manifest_json(second)
