"""gemmlowp-style matrix packing (paper Section 5.3).

gemmlowp executes its fixed-size GEMM kernel over matrix chunks; to make
the kernel's accesses cache-friendly it first *packs* each chunk --
reorders it into the panel-major layout the kernel consumes -- and
*unpacks* the result chunk back to row-major order afterwards.  Packing
is a pure data-reorganization pass over large matrices: up to 40% of
TensorFlow Mobile's system energy, 82.1% of it data movement.

``pack_matrix`` implements the real layout transformation (panels of
``panel_rows`` full rows, each panel stored column-major) so the GEMM
kernel in :mod:`repro.workloads.tensorflow.gemm` can consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.profile import KernelProfile

if TYPE_CHECKING:  # annotation-only; the kernels import NumPy in their bodies
    import numpy as np

#: gemmlowp-like kernel panel height (rows of LHS packed together).
DEFAULT_PANEL_ROWS = 4


@dataclass(frozen=True)
class PackedMatrix:
    """A matrix reordered into kernel-friendly panels.

    ``data`` is a flat buffer: for each panel of ``panel_rows`` rows, the
    panel's elements are stored column-by-column (so the GEMM kernel
    streams ``panel_rows`` operands with unit stride as it walks the
    shared dimension).  The final partial panel is zero-padded.
    """

    data: np.ndarray  # 1-D uint8
    rows: int
    cols: int
    panel_rows: int

    @property
    def num_panels(self) -> int:
        return (self.rows + self.panel_rows - 1) // self.panel_rows

    def panel(self, index: int) -> np.ndarray:
        """The ``index``-th panel as a (panel_rows, cols) array."""
        size = self.panel_rows * self.cols
        chunk = self.data[index * size : (index + 1) * size]
        return chunk.reshape(self.cols, self.panel_rows).T


def pack_matrix(matrix: np.ndarray, panel_rows: int = DEFAULT_PANEL_ROWS) -> PackedMatrix:
    """Pack a row-major uint8 matrix into panel-major layout."""
    import numpy as np

    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("pack_matrix expects a 2-D matrix")
    if panel_rows < 1:
        raise ValueError("panel_rows must be >= 1")
    rows, cols = matrix.shape
    num_panels = (rows + panel_rows - 1) // panel_rows
    padded = np.zeros((num_panels * panel_rows, cols), dtype=matrix.dtype)
    padded[:rows] = matrix
    # (panels, panel_rows, cols) -> (panels, cols, panel_rows): column-major
    # within each panel.
    panels = padded.reshape(num_panels, panel_rows, cols).transpose(0, 2, 1)
    return PackedMatrix(
        data=panels.reshape(-1).copy(), rows=rows, cols=cols, panel_rows=panel_rows
    )


def unpack_matrix(packed: PackedMatrix) -> np.ndarray:
    """Invert :func:`pack_matrix`, dropping the zero padding."""
    num_panels = packed.num_panels
    panels = packed.data.reshape(num_panels, packed.cols, packed.panel_rows)
    padded = panels.transpose(0, 2, 1).reshape(num_panels * packed.panel_rows, packed.cols)
    return padded[: packed.rows].copy()


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def profile_packing(elements: float, element_bytes: int = 1) -> KernelProfile:
    """Profile of packing ``elements`` matrix entries.

    Packing reads every element once and writes it once to its new
    location; the index arithmetic is a handful of adds/shifts per
    16-byte chunk.  Streaming, no reuse.
    """
    bytes_moved = elements * element_bytes
    return KernelProfile.streaming(
        name="packing",
        bytes_read=bytes_moved,
        bytes_written=bytes_moved,
        ops_per_byte=0.25,
        instruction_overhead=0.1,
        simd_fraction=0.9,
        notes="gemmlowp pack: row-major -> panel-major (Section 5.3)",
    )


def profile_unpacking(elements: float, element_bytes: int = 4) -> KernelProfile:
    """Profile of unpacking ``elements`` int32 result entries."""
    bytes_moved = elements * element_bytes
    return KernelProfile.streaming(
        name="packing",  # reported under the paper's "Packing" bucket
        bytes_read=bytes_moved,
        bytes_written=bytes_moved,
        ops_per_byte=0.25,
        instruction_overhead=0.1,
        simd_fraction=0.9,
        notes="gemmlowp unpack: panel-major -> row-major (Section 5.3)",
    )
