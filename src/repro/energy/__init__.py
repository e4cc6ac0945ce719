"""Component-level energy model for consumer-device SoCs with PIM.

This package reproduces the energy-accounting methodology of Section 3.1 of
the paper: total system energy is the sum of the energy consumed by the CPU
cores, the L1 and L2 (last-level) caches, the off-chip interconnect, the
memory controller, and DRAM.  *Data movement* energy is everything except
the CPU-compute component, matching the paper's definition ("the data
movement energy includes the energy consumed by DRAM, the off-chip
interconnect, and the on-chip caches").
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".breakdown": ("Component", "EnergyBreakdown"),
    ".components": ("EnergyParameters", "default_energy_parameters"),
    ".model": ("EnergyModel",),
    ".area": ("AreaModel", "AcceleratorArea", "PAPER_ACCELERATOR_AREAS"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
