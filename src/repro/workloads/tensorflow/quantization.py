"""Quantization (paper Section 5.3, Figure 8).

TensorFlow Mobile quantizes twice per Conv2D: the 32-bit input matrix is
quantized to 8-bit before the GEMM, and the 32-bit result matrix is
*re-quantized* to 8-bit afterwards.  Each quantization scans the matrix
twice -- once to find min/max, once to convert -- so large matrices are
streamed over the off-chip channel twice, which is what makes this a PIM
target (73.5% of quantization energy is data movement for ResNet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.profile import KernelProfile

if TYPE_CHECKING:  # annotation-only; the kernels import NumPy in their bodies
    import numpy as np


@dataclass(frozen=True)
class QuantizedTensor:
    """An 8-bit tensor with its affine dequantization parameters.

    ``real_value = scale * (quantized_value - zero_point)``.
    """

    values: np.ndarray  # uint8
    scale: float
    zero_point: int

    @property
    def shape(self) -> tuple:
        return self.values.shape


def quantize_tensor(x: np.ndarray) -> QuantizedTensor:
    """Quantize a float tensor to uint8 (TensorFlow-style affine scheme).

    Pass 1 scans for min/max; pass 2 converts each element -- the same
    two-scan structure (and therefore the same data movement) as
    TensorFlow Mobile's quantization routine.
    """
    import numpy as np

    x = np.asarray(x, dtype=np.float32)
    if x.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    lo = float(x.min())
    hi = float(x.max())
    # The representable range must include 0 so zero_point is exact.
    lo = min(lo, 0.0)
    hi = max(hi, 0.0)
    if hi == lo:
        return QuantizedTensor(
            values=np.zeros(x.shape, dtype=np.uint8), scale=1.0, zero_point=0
        )
    scale = (hi - lo) / 255.0
    zero_point = int(round(-lo / scale))
    zero_point = max(0, min(255, zero_point))
    q = np.clip(np.round(x / scale) + zero_point, 0, 255).astype(np.uint8)
    return QuantizedTensor(values=q, scale=scale, zero_point=zero_point)


def dequantize_tensor(q: QuantizedTensor) -> np.ndarray:
    """Recover float values (lossy inverse of :func:`quantize_tensor`)."""
    import numpy as np

    return (q.values.astype(np.float32) - q.zero_point) * q.scale


def requantize(acc: np.ndarray, result_scale: float) -> QuantizedTensor:
    """Re-quantize a 32-bit GEMM accumulator matrix to uint8.

    ``acc`` holds int32 sums of products of (uint8 - zero_point) values;
    ``result_scale`` is the product of the input scales.  Scans the matrix
    twice (min/max, then convert), like TensorFlow Mobile.
    """
    import numpy as np

    acc = np.asarray(acc, dtype=np.int64)
    real = acc.astype(np.float64) * result_scale
    return quantize_tensor(real.astype(np.float32))


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def _quantization_profile(name: str, elements: float, element_bytes: int) -> KernelProfile:
    """Two streaming scans of the matrix plus one 1-byte-per-element write.

    Per element: read ``element_bytes`` twice (min/max pass + convert
    pass), write 1 byte; ~3 ALU ops for the compare/scale/round work,
    fully vectorizable.
    """
    bytes_read = 2.0 * elements * element_bytes
    bytes_written = float(elements)
    total = bytes_read + bytes_written
    ops_per_byte = 3.0 * elements / total
    return KernelProfile.streaming(
        name=name,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        ops_per_byte=ops_per_byte,
        instruction_overhead=0.05,
        simd_fraction=0.9,
        notes="two-scan min/max quantization (Section 5.3)",
    )


def profile_quantization(elements: float) -> KernelProfile:
    """Profile of quantizing ``elements`` float32 values to uint8."""
    return _quantization_profile("quantization", elements, element_bytes=4)


def profile_requantization(elements: float) -> KernelProfile:
    """Profile of re-quantizing ``elements`` int32 accumulators to uint8."""
    return _quantization_profile("quantization", elements, element_bytes=4)
