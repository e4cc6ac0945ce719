"""repro: reproduction of "Google Workloads for Consumer Devices:
Mitigating Data Movement Bottlenecks" (Boroumand et al., ASPLOS 2018).

The package implements the paper's full pipeline:

1. functional implementations of the four Google consumer workloads
   (:mod:`repro.workloads`): Chrome browser kernels, TensorFlow Mobile
   inference, and a VP9-class video codec (software + hardware models);
2. a characterization substrate (:mod:`repro.sim`, :mod:`repro.energy`):
   instrumented kernel profiles, a trace-driven cache simulator, DRAM
   models, and a component-level energy model;
3. the PIM analysis itself (:mod:`repro.core`): target identification,
   area feasibility, and CPU-Only / PIM-Core / PIM-Acc evaluation;
4. figure/table harnesses (:mod:`repro.analysis`) that regenerate every
   table and figure of the paper's evaluation.

Quickstart::

    from repro import ExperimentRunner
    from repro.workloads.chrome import browser_pim_targets

    runner = ExperimentRunner()
    result = runner.evaluate(browser_pim_targets())
    for row in result.rows():
        print(row["target"], row["energy_pim_acc"], row["speedup_pim_acc"])
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".config": (
        "SystemConfig",
        "SocConfig",
        "PimCoreConfig",
        "PimAcceleratorConfig",
        "StackedMemoryConfig",
        "BaselineMemoryConfig",
        "default_system",
    ),
    ".core.runner": ("ExperimentRunner",),
    ".core.offload": ("OffloadEngine", "TargetComparison"),
    ".core.target": ("PimTarget",),
    ".core.workload": ("characterize", "WorkloadFunction"),
    ".energy.breakdown": ("EnergyBreakdown",),
    ".energy.model": ("EnergyModel",),
    ".energy.components": ("EnergyParameters",),
    ".energy.area": ("AreaModel",),
    ".sim.cpu": ("CpuModel",),
    ".sim.pim": ("PimCoreModel", "PimAcceleratorModel"),
    ".sim.profile": ("KernelProfile",),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
__all__ += ["__version__"]
