"""Performance-model substrate: caches, DRAM, CPU/PIM timing.

The paper's evaluation combines hardware performance counters (for the
workload characterization) with gem5 full-system simulation (for the PIM
evaluation).  This package provides the equivalent substrate for the
reproduction:

* :mod:`repro.sim.profile` -- the ``KernelProfile`` abstraction: exact
  dynamic operation counts and memory-traffic statistics produced by the
  instrumented workload kernels (stand-in for performance counters);
* :mod:`repro.sim.trace` / :mod:`repro.sim.cache` -- a trace-driven
  set-associative cache-hierarchy simulator used to validate the locality
  assumptions baked into the analytic profiles;
* :mod:`repro.sim.artifact` / :mod:`repro.sim.batch` -- memory-mapped
  columnar trace artifacts and config-batched replay, so design-space
  sweeps trace each workload once and evaluate many cache
  configurations in one pass;
* :mod:`repro.sim.dram` -- LPDDR3 and 3D-stacked DRAM bandwidth/latency
  models;
* :mod:`repro.sim.cpu` / :mod:`repro.sim.pim` -- roofline-style timing and
  energy models for the SoC CPU, the PIM core, and PIM accelerators;
* :mod:`repro.sim.coherence` -- the CPU<->PIM fine-grained coherence cost
  model of Section 8.2.
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".profile": ("KernelProfile",),
    ".trace": ("MemoryTrace", "TraceRecorder"),
    ".artifact": ("ArtifactError", "TraceArtifact", "TraceStore"),
    ".batch": (
        "replay_batch",
        "replay_timing_batch",
        "sweep_batch",
        "timing_batch_for_socs",
    ),
    ".cache": (
        "Cache",
        "CacheHierarchy",
        "CacheStats",
        "HierarchyStats",
        "replay_trace",
    ),
    ".dram": ("DramTimings", "OffChipDram", "StackedDramInternal"),
    ".cpu": ("CpuModel", "Execution"),
    ".pim": ("PimCoreModel", "PimAcceleratorModel"),
    ".coherence": ("CoherenceModel", "OffloadOverhead"),
    ".timing": ("TimingSimulator", "TimingParameters", "TimingResult"),
    ".rowbuffer": ("DramGeometry", "RowBufferModel", "RowBufferStats"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
