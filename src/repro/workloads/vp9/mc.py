"""Motion compensation with sub-pixel interpolation (paper Section 6.2.2).

VP9 motion vectors have up to 1/8-pixel resolution; when a vector points
between pixels, the predictor is built with separable 8-tap FIR filters
(horizontal pass, then vertical).  Interpolating a WxH block therefore
reads a (W+7)x(H+7) window of the reference frame -- the source of the
"2.9 reference pixels fetched per current pixel" the paper measures, and
the decoder's dominant data-movement component.

Filter coefficients are the even phases of libvpx's 8-tap "regular"
filter bank (128-scaled integers), giving exact integer arithmetic.

Each separable pass is one windowed matrix product over the whole
block, in exact integer arithmetic.  The per-pixel loop it replaced is
the test oracle (``tests/perf/kernel_oracle.py``), and
``tests/perf/test_vectorized_equivalence.py`` holds the two
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.workloads.vp9.frame import MACROBLOCK

#: 8-tap filters for the 8 eighth-pel phases (row = phase), 128-scaled.
SUBPEL_TAPS = np.array(
    [
        [0, 0, 0, 128, 0, 0, 0, 0],
        [-1, 3, -10, 122, 18, -6, 2, 0],
        [-1, 4, -16, 112, 37, -11, 4, -1],
        [-1, 5, -19, 97, 58, -16, 5, -1],
        [-1, 6, -19, 78, 78, -19, 6, -1],
        [-1, 5, -16, 58, 97, -19, 5, -1],
        [-1, 4, -11, 37, 112, -16, 4, -1],
        [0, 2, -6, 18, 122, -10, 3, -1],
    ],
    dtype=np.int32,
)

#: Filter footprint: 3 pixels before, 4 after the integer position.
TAPS_BEFORE = 3
TAPS_AFTER = 4


@dataclass(frozen=True)
class MotionVector:
    """A motion vector in eighth-pel units (positive = down/right)."""

    dx: int
    dy: int

    @property
    def int_x(self) -> int:
        return self.dx >> 3

    @property
    def int_y(self) -> int:
        return self.dy >> 3

    @property
    def frac_x(self) -> int:
        return self.dx & 7

    @property
    def frac_y(self) -> int:
        return self.dy & 7

    @property
    def is_subpel(self) -> bool:
        return bool(self.frac_x or self.frac_y)


def _clamped_window(
    ref: np.ndarray, y0: int, x0: int, h: int, w: int
) -> np.ndarray:
    """Read a (h, w) window at (y0, x0) with edge-clamped coordinates."""
    rows = np.clip(np.arange(y0, y0 + h), 0, ref.shape[0] - 1)
    cols = np.clip(np.arange(x0, x0 + w), 0, ref.shape[1] - 1)
    return ref[np.ix_(rows, cols)]


def _interpolate(
    window: np.ndarray, frac_y: int, frac_x: int, h: int, w: int
) -> np.ndarray:
    """Vectorized separable filter: each pass is one windowed matrix
    product (``sliding_window_view @ taps``) over the whole block.

    All arithmetic is int32 (maximum per-pass magnitude is
    ``sum(|taps|) * 255 < 2^16``), so no intermediate overflows.
    """
    if frac_x:
        horiz = sliding_window_view(window, 8, axis=1) @ SUBPEL_TAPS[frac_x]
        horiz = np.clip((horiz + 64) >> 7, 0, 255)
    else:
        horiz = window[:, TAPS_BEFORE : TAPS_BEFORE + w]
    if frac_y:
        vert = sliding_window_view(horiz, 8, axis=0) @ SUBPEL_TAPS[frac_y]
        vert = np.clip((vert + 64) >> 7, 0, 255)
    else:
        vert = horiz[TAPS_BEFORE : TAPS_BEFORE + h, :]
    return vert.astype(np.uint8)


def interpolate_block(
    ref: np.ndarray,
    y0: int,
    x0: int,
    frac_y: int,
    frac_x: int,
    h: int,
    w: int,
) -> np.ndarray:
    """Interpolate a (h, w) block at integer base (y0, x0) + fractional
    offset (frac_y, frac_x) in eighth-pels.

    Separable: the horizontal 8-tap pass runs over (h+7) rows, then the
    vertical pass reduces to h rows.  Matches libvpx's convolve8 rounding
    (add 64, shift 7, clip) at each stage.
    """
    if not (0 <= frac_x < 8 and 0 <= frac_y < 8):
        raise ValueError("fractional offsets must be in 0..7")
    if frac_x == 0 and frac_y == 0:
        return _clamped_window(ref, y0, x0, h, w).astype(np.uint8)
    window = _clamped_window(
        ref, y0 - TAPS_BEFORE, x0 - TAPS_BEFORE, h + 7, w + 7
    ).astype(np.int32)
    return _interpolate(window, frac_y, frac_x, h, w)


def motion_compensate_block(
    ref: np.ndarray,
    mb_row: int,
    mb_col: int,
    mv: MotionVector,
    size: int = MACROBLOCK,
) -> np.ndarray:
    """Build the motion-compensated predictor for one macroblock."""
    y0 = mb_row * size + mv.int_y
    x0 = mb_col * size + mv.int_x
    return interpolate_block(ref, y0, x0, mv.frac_y, mv.frac_x, size, size)


def reference_pixels_fetched(mv: MotionVector, size: int = MACROBLOCK) -> int:
    """Reference-frame pixels a hardware MC unit fetches for one block."""
    h = size + (7 if mv.frac_y else 0)
    w = size + (7 if mv.frac_x else 0)
    return h * w
