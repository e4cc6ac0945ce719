"""The paper's primary contribution: PIM-target analysis and offloading.

* :mod:`repro.core.target` -- the ``PimTarget`` abstraction and the
  Section 3.2 candidate-identification criteria (energy share, data-
  movement share, MPKI > 10, movement-dominated, no-slowdown, area budget);
* :mod:`repro.core.offload` -- the offload engine that executes a target
  on the CPU, the PIM core, or a PIM accelerator, including the
  Section 8.2 coherence overheads;
* :mod:`repro.core.workload` -- whole-workload characterization: function-
  level and component-level energy breakdowns (the paper's Figures 1, 2, 6,
  7, 10, 11, 15);
* :mod:`repro.core.runner` -- the experiment runner producing the paper's
  CPU-Only / PIM-Core / PIM-Acc comparisons (Figures 18-20) and headline
  averages.
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".target": (
        "PimTarget",
        "CandidateCriteria",
        "CandidateEvaluation",
        "identify_pim_targets",
    ),
    ".offload": ("OffloadEngine", "TargetComparison"),
    ".workload": (
        "WorkloadFunction",
        "WorkloadCharacterization",
        "characterize",
    ),
    ".runner": ("ExperimentRunner", "SweepResult"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
