"""Evaluating your own kernel as a PIM target.

This is the adoption path for downstream users: describe a kernel's
operation counts and memory behaviour as a KernelProfile (analytically
or via the trace recorder + cache simulator), run it through the
Section 3.2 identification criteria, and compare the three machine
models.

The example kernel is an image histogram (a classic streaming reduction)
evaluated two ways: from an analytic profile, and from a real recorded
trace replayed through the cache simulator.

    python examples/custom_workload.py
"""

import numpy as np

from repro.core.offload import OffloadEngine
from repro.core.target import PimTarget, evaluate_candidate
from repro.sim.cache import replay_trace
from repro.sim.profile import KernelProfile
from repro.sim.trace import AddressSpace, TraceRecorder

MB = 1024 * 1024


def histogram_kernel(image: np.ndarray, recorder: TraceRecorder, base: int):
    """A real (instrumented) kernel: 256-bin histogram of an 8-bit image."""
    hist = np.zeros(256, dtype=np.int64)
    row_bytes = image.shape[1]
    for y in range(image.shape[0]):
        recorder.read(base + y * row_bytes, row_bytes)
        counts = np.bincount(image[y], minlength=256)
        hist += counts
    return hist


def analytic_profile(pixels: float) -> KernelProfile:
    """The same kernel described analytically: one streaming pass, one
    table update per pixel (the 1 kB histogram stays in L1)."""
    return KernelProfile.streaming(
        name="histogram",
        bytes_read=pixels,
        bytes_written=0,
        ops_per_byte=1.0,
        instruction_overhead=0.2,
        simd_fraction=0.8,
    )


def main():
    # --- 1. run + trace the real kernel at a validation scale ----------
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(2048, 4096), dtype=np.uint8)  # 8 MB
    recorder = TraceRecorder(granularity=64)
    space = AddressSpace()
    hist = histogram_kernel(image, recorder, space.alloc(image.nbytes))
    assert hist.sum() == image.size
    stats = replay_trace(recorder.trace())
    print(
        "traced kernel: %.1f MB image -> %.1f MB DRAM traffic (simulated)"
        % (image.nbytes / MB, stats.dram_bytes / MB)
    )

    # --- 2. describe it analytically and cross-check -------------------
    profile = analytic_profile(float(image.size))
    print(
        "analytic profile: %.1f MB DRAM traffic, MPKI %.0f"
        % (profile.dram_bytes / MB, profile.mpki)
    )
    assert abs(profile.dram_bytes - stats.dram_bytes) / stats.dram_bytes < 0.05

    # --- 3. evaluate as a PIM target ------------------------------------
    engine = OffloadEngine()
    # Reuse the tiling accelerator slot for the area check: a histogram
    # unit is no bigger than an in-memory tiling unit.
    target = PimTarget(
        "histogram", profile, accelerator_key="texture_tiling", workload="custom"
    )
    comparison = engine.compare(target)
    evaluation = evaluate_candidate(
        name="histogram",
        profile=profile,
        energy_share=1.0,  # standalone kernel
        movement_share_of_workload=comparison.cpu.energy.data_movement_fraction,
        movement_fraction_of_function=comparison.cpu.energy.data_movement_fraction,
        pim_speedup=comparison.pim_core_speedup,
        accelerator_key="texture_tiling",
    )
    print(
        "identification: candidate=%s, no-slowdown=%s, fits-area=%s "
        "-> PIM target: %s"
        % (
            evaluation.is_candidate,
            evaluation.no_performance_loss,
            evaluation.fits_area_budget,
            evaluation.is_pim_target,
        )
    )
    print(
        "PIM-Core: %.2fx speedup, %.1f%% energy reduction; "
        "PIM-Acc: %.2fx, %.1f%%"
        % (
            comparison.pim_core_speedup,
            100 * comparison.pim_core_energy_reduction,
            comparison.pim_acc_speedup,
            100 * comparison.pim_acc_energy_reduction,
        )
    )
    if not evaluation.is_pim_target and evaluation.is_candidate:
        print(
            "verdict: the table-update chain is too serial for the 1-wide "
            "PIM core (criterion 5 fails), but a fixed-function histogram "
            "accelerator would be a clear win -- exactly the kind of "
            "per-kernel answer the Section 3.2 pipeline produces."
        )


if __name__ == "__main__":
    main()
