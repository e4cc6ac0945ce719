"""Run manifests: the reproducibility record written next to run outputs.

A manifest captures everything needed to audit or re-derive a run's
numbers: what code produced it (the :func:`repro.core.memo.code_version_hash`
source digest), under which configuration (a content hash of the
``SystemConfig``), with which seed and package versions, and — through
the recorder — every published counter and per-stage span.  The CLI's
``--manifest DIR`` flag writes one next to every ``figures``/``evaluate``
output.

The headline paper numbers are *re-derivable* from a manifest alone:
:func:`headline_from_counters` recomputes the mean/max PIM-Core and
PIM-Acc energy reductions and speedups from the per-target
``core.runner.target.*`` gauges, so a stored manifest is sufficient
evidence for the EXPERIMENTS.md claims without re-running the models.

For golden tests, :func:`masked` replaces the volatile fields (wall-clock
times, host, pids, package versions, source digest) with a fixed token;
what remains — counter names *and values*, span structure, config hash —
must be byte-stable run over run, which is exactly the property the
golden-manifest test pins.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path

from repro._sum import left_sum
from repro.obs.recorder import get_recorder

SCHEMA = "repro-run-manifest/v1"

MASK = "<volatile>"

#: Top-level fields that legitimately differ run-to-run or commit-to-commit.
VOLATILE_KEYS = ("created_at", "host", "pid", "code_version", "versions")

#: Per-span fields that carry wall-clock measurements.
VOLATILE_SPAN_KEYS = ("start_s", "duration_s", "pid", "tid")

MANIFEST_FILENAME = "manifest.json"


def _jsonable(value):
    """Dataclasses/tuples/numpy scalars to plain JSON types, recursively."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return item()
    return value


def config_hash(config) -> str:
    """Content hash of a configuration object (dataclasses welcome)."""
    payload = json.dumps(_jsonable(config), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_manifest(
    command: str,
    config=None,
    seed=None,
    results: dict | None = None,
    recorder=None,
    extra: dict | None = None,
) -> dict:
    """Assemble a manifest dict for the current (or given) recorder.

    Args:
        command: what produced this run (e.g. ``"evaluate --workload all"``).
        config: the run's configuration object; hashed into ``config_hash``.
        seed: RNG seed, when the run uses one (the models are deterministic).
        results: headline outputs worth pinning (means, anchor values).
        recorder: defaults to the globally installed recorder.
        extra: additional top-level fields.
    """
    from repro.core.memo import code_version_hash  # lazy: avoids import cycle

    rec = recorder if recorder is not None else get_recorder()
    manifest = {
        "schema": SCHEMA,
        "command": command,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "host": platform.node(),
        "pid": os.getpid(),
        "code_version": code_version_hash(),
        "config_hash": config_hash(config) if config is not None else None,
        "seed": seed,
        "versions": _package_versions(),
        "counters": rec.counters.as_dict(),
        "spans": [span.to_dict() for span in rec.spans],
        "results": results if results is not None else {},
    }
    if extra:
        manifest.update(extra)
    return manifest


def _package_versions() -> dict:
    import numpy

    import repro

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
    }


def manifest_json(manifest: dict) -> str:
    """The canonical byte-stable serialization (sorted keys, 2-space indent)."""
    return json.dumps(manifest, sort_keys=True, indent=2, default=repr) + "\n"


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Write ``manifest`` to ``path``.

    ``path`` may be a directory (existing, or spelled with a trailing
    separator), in which case ``manifest.json`` is written inside it.
    """
    path = Path(path)
    if path.is_dir() or str(path).endswith(os.sep) or not path.suffix:
        path.mkdir(parents=True, exist_ok=True)
        path = path / MANIFEST_FILENAME
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(manifest_json(manifest))
    return path


def load_manifest(path: str | Path) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_FILENAME
    with open(path) as f:
        return json.load(f)


def masked(manifest: dict, mask: str = MASK) -> dict:
    """A copy with run-to-run-volatile fields replaced by ``mask``.

    Counter values, span names/structure, and the config hash survive;
    wall-clock measurements, host identity, and version stamps do not.
    The result is deterministic for a deterministic run — the basis of
    the golden-manifest regression test.
    """
    out = dict(manifest)
    for key in VOLATILE_KEYS:
        if key in out:
            out[key] = mask
    out["spans"] = [
        {
            key: (mask if key in VOLATILE_SPAN_KEYS else value)
            for key, value in span.items()
        }
        for span in manifest.get("spans", [])
    ]
    return out


# ----------------------------------------------------------------------
# Re-deriving headline numbers from a manifest
# ----------------------------------------------------------------------

_TARGET_PREFIX = "core.runner.target."


def headline_from_counters(counters: dict) -> dict:
    """Recompute the paper-style aggregates from per-target gauges.

    The experiment runner publishes, for every target, six gauges::

        core.runner.target.<name>.energy_j.{cpu,pim_core,pim_acc}
        core.runner.target.<name>.time_s.{cpu,pim_core,pim_acc}

    From those this function re-derives the cross-workload means and
    maxima that EXPERIMENTS.md reports (PIM-Acc −55.4% energy / −54.2%
    time headline), without access to the original model objects.
    """
    per_target: dict[str, dict] = {}
    for name, value in counters.items():
        if not name.startswith(_TARGET_PREFIX):
            continue
        target, metric, machine = name[len(_TARGET_PREFIX):].rsplit(".", 2)
        per_target.setdefault(target, {})["%s.%s" % (metric, machine)] = value
    energy_core, energy_acc, speed_core, speed_acc = [], [], [], []
    for target, metrics in sorted(per_target.items()):
        energy_cpu = metrics.get("energy_j.cpu", 0.0)
        time_cpu = metrics.get("time_s.cpu", 0.0)
        if energy_cpu > 0:
            energy_core.append(1.0 - metrics["energy_j.pim_core"] / energy_cpu)
            energy_acc.append(1.0 - metrics["energy_j.pim_acc"] / energy_cpu)
        if time_cpu > 0:
            speed_core.append(time_cpu / metrics["time_s.pim_core"])
            speed_acc.append(time_cpu / metrics["time_s.pim_acc"])
    def _mean(values):
        return left_sum(values) / len(values) if values else 0.0
    return {
        "targets": sorted(per_target),
        "mean_pim_core_energy_reduction": _mean(energy_core),
        "max_pim_core_energy_reduction": max(energy_core, default=0.0),
        "mean_pim_acc_energy_reduction": _mean(energy_acc),
        "max_pim_acc_energy_reduction": max(energy_acc, default=0.0),
        "mean_pim_core_speedup": _mean(speed_core),
        "max_pim_core_speedup": max(speed_core, default=0.0),
        "mean_pim_acc_speedup": _mean(speed_acc),
        "max_pim_acc_speedup": max(speed_acc, default=0.0),
    }
