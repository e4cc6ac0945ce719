"""Observability: spans, counter registry, and run manifests.

The measurement substrate for the reproduction.  Three pieces:

* **spans** — hierarchical wall-time measurements of run stages,
  exportable as Chrome ``chrome://tracing`` JSON or a flat text table
  (:mod:`repro.obs.spans`);
* **counter registry** — the export path for every statistic the sim
  (:mod:`repro.sim.cache`, :mod:`repro.sim.dram`,
  :mod:`repro.sim.coherence`), energy (:mod:`repro.energy.model`), and
  core (:mod:`repro.core.runner`, :mod:`repro.core.memo`) layers produce
  (:mod:`repro.obs.counters`);
* **run manifests** — a JSON reproducibility record (source/config
  hashes, versions, counters, spans, headline results) written next to
  every ``figures``/``evaluate`` output (:mod:`repro.obs.manifest`).

Observation is off by default and costs nothing when off: the global
recorder slot holds a :class:`NullRecorder` whose operations are no-ops.
Turn it on around any block of work::

    from repro.obs import recording

    with recording() as rec:
        ExperimentRunner().evaluate(targets)
    print(rec.counters.as_dict()["core.runner.targets"])

or from the CLI with ``--manifest out/ --trace-out trace.json``.
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".counters": ("CounterRegistry",),
    ".manifest": (
        "build_manifest",
        "config_hash",
        "headline_from_counters",
        "load_manifest",
        "manifest_json",
        "masked",
        "write_manifest",
    ),
    ".recorder": (
        "NullRecorder",
        "Recorder",
        "get_recorder",
        "recording",
        "set_recorder",
    ),
    ".spans": (
        "SpanRecord",
        "chrome_trace_events",
        "spans_table",
        "write_chrome_trace",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
