"""Quantized GEMM (the gemmlowp kernel; paper Section 5.3).

The GEMM kernel itself is *not* a PIM target -- it is compute-intensive
(67.5% of its energy is computation) and would need large PIM logic --
but it must be modeled because Figures 6/7/19 report packing and
quantization relative to it.

``quantized_gemm`` is a functional implementation that really consumes
the packed panels produced by :mod:`repro.workloads.tensorflow.packing`,
with correct zero-point handling:

    C[i, j] = sum_k (A[i, k] - za) * (B[k, j] - zb)      (int32)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import SocConfig
from repro.sim.profile import KernelProfile
from repro.workloads.tensorflow.packing import pack_matrix
from repro.workloads.tensorflow.quantization import QuantizedTensor

if TYPE_CHECKING:  # annotation-only; the kernels import NumPy in their bodies
    import numpy as np


def quantized_gemm_reference(lhs: QuantizedTensor, rhs: QuantizedTensor) -> np.ndarray:
    """Direct int32 reference: (A - za) @ (B - zb)."""
    import numpy as np

    a = lhs.values.astype(np.int32) - np.int32(lhs.zero_point)
    b = rhs.values.astype(np.int32) - np.int32(rhs.zero_point)
    return a @ b


def quantized_gemm(
    lhs: QuantizedTensor, rhs: QuantizedTensor, panel_rows: int = 4
) -> np.ndarray:
    """Panel-wise quantized GEMM over a packed LHS.

    Packs the LHS exactly as gemmlowp would, then runs the kernel panel by
    panel.  Bit-identical to :func:`quantized_gemm_reference`.
    """
    import numpy as np

    if lhs.values.ndim != 2 or rhs.values.ndim != 2:
        raise ValueError("quantized_gemm expects 2-D operands")
    m, k = lhs.values.shape
    k2, n = rhs.values.shape
    if k != k2:
        raise ValueError("shape mismatch: (%d,%d) @ (%d,%d)" % (m, k, k2, n))
    packed = pack_matrix(lhs.values, panel_rows=panel_rows)
    b = rhs.values.astype(np.int32) - np.int32(rhs.zero_point)
    out = np.empty((packed.num_panels * panel_rows, n), dtype=np.int32)
    for p in range(packed.num_panels):
        panel = packed.panel(p).astype(np.int32) - np.int32(lhs.zero_point)
        # Padding rows contribute (0 - za) * b; they are sliced away below,
        # so compute them with the true zero value instead.
        out[p * panel_rows : (p + 1) * panel_rows] = panel @ b
    return out[:m]


def profile_gemm(
    m: int, k: int, n: int, soc: SocConfig | None = None
) -> KernelProfile:
    """Analytic profile of one uint8 GEMM of shape (m, k) x (k, n).

    Compute: 2*m*n*k multiply-accumulate ops, executed with 16-lane uint8
    SIMD on the CPU (instruction count = ops / 16 plus panel loads).
    Traffic: with LLC blocking, each operand panel is fetched once per
    block of the other operand's traversal; the int32 result is written
    once.
    """
    soc = soc or SocConfig()
    llc = soc.l2.size_bytes
    macs = float(m) * k * n
    ops = 2.0 * macs
    # Block the RHS into column strips that fit in half the LLC alongside
    # an LHS panel: n_block columns of K rows of 1 B each.
    n_block = max(min(n, (llc // 2) // max(k, 1)), 1)
    passes_over_lhs = (n + n_block - 1) // n_block
    traffic_lhs = float(m) * k * passes_over_lhs  # uint8
    traffic_rhs = float(k) * n  # uint8, each strip read once
    traffic_out = 4.0 * m * n  # int32 written
    dram_bytes = traffic_lhs + traffic_rhs + traffic_out
    instructions = ops / 16.0 + dram_bytes / 8.0
    lines = dram_bytes / 64.0
    return KernelProfile(
        name="conv2d_matmul",
        instructions=instructions,
        mem_instructions=macs / 16.0,
        alu_ops=ops / 16.0,
        simd_fraction=0.0,  # stays on the CPU; not offloaded
        l1_misses=lines * 1.5,
        llc_misses=lines,
        dram_bytes=dram_bytes,
        working_set_bytes=float(m * k + k * n + 4 * m * n),
        notes="quantized GEMM kernel (not a PIM target)",
    )
