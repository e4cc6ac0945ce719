"""Deblocking filter (paper Section 6.2.2).

Block-based prediction and transform create discontinuities at block
boundaries; the in-loop deblocking filter detects edges whose two sides
differ by more than the natural image gradient and applies a low-pass
filter across them.  It runs over every 8x8 block edge of the frame
(vertical edges first, then horizontal, as in VP9), reading up to four
pixels on each side and modifying up to two -- a streaming, branchy,
low-compute kernel that touches the whole frame.

Each pass filters every edge at once with whole-frame masks.  Edges
are 8 columns apart while the filter reads columns x-2..x+1 and writes
x-1..x, so no two edges of a pass share pixels: the edges of one pass
are independent, and the masked pass is bit-identical to the per-pixel
loop kept as the test oracle (``tests/perf/kernel_oracle.py``, checked
by ``tests/perf/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.vp9.frame import Frame

#: Deblocking runs on the transform-block grid.
EDGE_SPACING = 8


@dataclass
class DeblockStats:
    """Edge counts from one deblocking pass."""

    edges_checked: int = 0
    edges_filtered: int = 0
    pixels_modified: int = 0


def _filter_edges(
    pixels: np.ndarray, threshold: int, stats: DeblockStats
) -> np.ndarray:
    """Filter all vertical edges of ``pixels`` at once (columns at
    multiples of EDGE_SPACING).  Horizontal edges are handled by calling
    this on the transpose."""
    h, w = pixels.shape
    work = pixels.astype(np.int32)
    xs = np.arange(EDGE_SPACING, w, EDGE_SPACING)
    if xs.size == 0:
        return np.clip(work, 0, 255).astype(np.uint8)
    # Gather the four pixels around every edge as (h, n_edges) panels.
    p1 = work[:, xs - 2]
    p0 = work[:, xs - 1]
    q0 = work[:, xs]
    q1 = work[:, np.minimum(xs + 1, w - 1)]
    stats.edges_checked += h * int(xs.size)
    # Filter condition: a step across the edge that is larger than the
    # local gradient on either side (i.e. a blocking artifact, not a
    # natural image edge).
    step = np.abs(p0 - q0)
    mask = (
        (step > 0)
        & (step <= threshold)
        & (np.abs(p1 - p0) <= threshold)
        & (np.abs(q0 - q1) <= threshold)
    )
    count = int(mask.sum())
    if count:
        stats.edges_filtered += count
        stats.pixels_modified += 2 * count
        # 4-tap low-pass across the edge (VP9's normal filter shape).
        avg = (p1 + p0 + q0 + q1 + 2) >> 2
        work[:, xs - 1] = np.where(mask, (p0 + avg + 1) >> 1, p0)
        work[:, xs] = np.where(mask, (q0 + avg + 1) >> 1, q0)
    return np.clip(work, 0, 255).astype(np.uint8)


def deblock_frame(
    frame: Frame,
    threshold: int = 12,
    stats: DeblockStats | None = None,
) -> Frame:
    """Apply the in-loop deblocking filter to a reconstructed frame.

    Vertical block edges are filtered first, then horizontal edges (on
    the result), matching VP9's ordering.  Returns a new frame.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    stats = stats if stats is not None else DeblockStats()
    vertical = _filter_edges(frame.pixels, threshold, stats)
    horizontal = _filter_edges(vertical.T, threshold, stats).T
    return Frame(pixels=np.ascontiguousarray(horizontal))
