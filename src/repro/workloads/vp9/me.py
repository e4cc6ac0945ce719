"""Motion estimation (paper Section 7.2.2).

The encoder's inter-prediction search: for each macroblock, find the
motion vector minimizing the sum of absolute differences (SAD) against a
reference frame.  libvpx uses the diamond search algorithm [157]; a
full (exhaustive) search is provided as the verification oracle for the
tests.

Both searches read candidate SADs from a zero-copy
``sliding_window_view`` over the reference.  Their control flow (visit
order, tie-breaking, early termination) lives in the private walks
:func:`_diamond_walk` and :func:`_scan`, which take the candidate cost
as a callable; the test oracle (``tests/perf/kernel_oracle.py``) runs
the same walks over a per-pixel SAD and must return identical motion
vectors, costs and :class:`SearchStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.workloads.vp9.frame import MACROBLOCK
from repro.workloads.vp9.mc import MotionVector


@dataclass
class SearchStats:
    """Operation counts from one or more motion searches."""

    sad_evaluations: int = 0
    pixels_compared: int = 0

    def merge(self, other: "SearchStats") -> None:
        self.sad_evaluations += other.sad_evaluations
        self.pixels_compared += other.pixels_compared


def sad(a: np.ndarray, b: np.ndarray) -> int:
    """Sum of absolute differences between two equally-sized blocks."""
    if a.shape != b.shape:
        raise ValueError("SAD operands must have equal shape")
    return int(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


def _window_sads(
    current: np.ndarray,
    ref: np.ndarray,
    base_y: int,
    base_x: int,
    search_range: int,
    size: int,
) -> np.ndarray:
    """SADs of every candidate displacement in the search window.

    Returns a (2R+1, 2R+1) array indexed by (dy + R, dx + R); candidates
    whose block falls outside the frame hold -1.  The computation is one
    batched |diff| reduction over a stride-tricks window view of the
    reference, i.e. no per-candidate Python work.
    """
    r = search_range
    sads = np.full((2 * r + 1, 2 * r + 1), -1, dtype=np.int64)
    ylo = max(-r, -base_y)
    yhi = min(r, ref.shape[0] - size - base_y)
    xlo = max(-r, -base_x)
    xhi = min(r, ref.shape[1] - size - base_x)
    if ylo > yhi or xlo > xhi:
        return sads
    wins = sliding_window_view(ref, (size, size))[
        base_y + ylo : base_y + yhi + 1, base_x + xlo : base_x + xhi + 1
    ]
    diffs = np.abs(wins.astype(np.int32) - current.astype(np.int32))
    sads[ylo + r : yhi + r + 1, xlo + r : xhi + r + 1] = diffs.sum(
        axis=(2, 3), dtype=np.int64
    )
    return sads


#: Large-diamond and small-diamond step patterns (dy, dx).
_LDSP = ((0, -2), (-1, -1), (-2, 0), (-1, 1), (0, 2), (1, 1), (2, 0), (1, -1))
_SDSP = ((0, -1), (-1, 0), (0, 1), (1, 0))


def _diamond_walk(
    evaluate: Callable[[int, int], int | None], search_range: int
) -> tuple[MotionVector, int]:
    """The diamond walk over ``evaluate(dy, dx)``, a candidate's cost or
    None when its block falls outside the frame.

    Walks the large diamond until the best point is the center, then
    refines with the small diamond.  A better candidate re-centers the
    walk *within* a ring iteration (the remaining ring points shift), so
    candidates are inherently sequential.
    """
    best_dy, best_dx = 0, 0
    best_cost = evaluate(0, 0)
    if best_cost is None:
        return MotionVector(0, 0), 1 << 30
    # Large diamond until the center wins or the range is exhausted.
    while True:
        improved = False
        for dy, dx in _LDSP:
            ny, nx = best_dy + dy, best_dx + dx
            if abs(ny) > search_range or abs(nx) > search_range:
                continue
            cost = evaluate(ny, nx)
            if cost is not None and cost < best_cost:
                best_cost, best_dy, best_dx = cost, ny, nx
                improved = True
        if not improved:
            break
    # Small diamond refinement.
    for dy, dx in _SDSP:
        ny, nx = best_dy + dy, best_dx + dx
        if abs(ny) > search_range or abs(nx) > search_range:
            continue
        cost = evaluate(ny, nx)
        if cost is not None and cost < best_cost:
            best_cost, best_dy, best_dx = cost, ny, nx
    return MotionVector(dx=best_dx * 8, dy=best_dy * 8), best_cost


def _scan(
    cost_at: Callable[[int, int], int | None],
    search_range: int,
    stats: SearchStats,
    size: int,
) -> tuple[MotionVector, int]:
    """Exhaustive raster scan of the search window over ``cost_at(dy,
    dx)`` (None for a block outside the frame); ties go to the candidate
    nearest the origin (L1 distance)."""
    best = (MotionVector(0, 0), 1 << 30)
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            cost = cost_at(dy, dx)
            if cost is None:
                continue
            stats.sad_evaluations += 1
            stats.pixels_compared += size * size
            if cost < best[1] or (
                cost == best[1]
                and (abs(dy) + abs(dx))
                < (abs(best[0].int_y) + abs(best[0].int_x))
            ):
                best = (MotionVector(dx=dx * 8, dy=dy * 8), cost)
    return best


def diamond_search(
    current: np.ndarray,
    ref: np.ndarray,
    mb_row: int,
    mb_col: int,
    search_range: int = 16,
    stats: SearchStats | None = None,
    size: int = MACROBLOCK,
) -> tuple[MotionVector, int]:
    """Diamond search [157] for the best integer-pel motion vector.

    Walks the large diamond pattern until the best point is the center,
    then refines with the small diamond.  Returns (motion vector in
    eighth-pel units, best SAD).  Each visited candidate's SAD is one
    batched |diff| reduction over a zero-copy window view of the
    reference; the walk visits only tens of the ~(2R+1)^2 candidates, so
    no whole-window SAD map is computed.
    """
    stats = stats if stats is not None else SearchStats()
    base_y, base_x = mb_row * size, mb_col * size
    wins = sliding_window_view(ref, (size, size))
    cur_i32 = current.astype(np.int32)
    max_y = ref.shape[0] - size
    max_x = ref.shape[1] - size

    def evaluate(dy: int, dx: int) -> int | None:
        y, x = base_y + dy, base_x + dx
        if y < 0 or x < 0 or y > max_y or x > max_x:
            return None
        stats.sad_evaluations += 1
        stats.pixels_compared += size * size
        return int(np.abs(wins[y, x] - cur_i32).sum())

    return _diamond_walk(evaluate, search_range)


def full_search(
    current: np.ndarray,
    ref: np.ndarray,
    mb_row: int,
    mb_col: int,
    search_range: int = 8,
    stats: SearchStats | None = None,
    size: int = MACROBLOCK,
) -> tuple[MotionVector, int]:
    """Exhaustive integer-pel search (O(range^2) SADs), every candidate
    SAD batch-computed from stride-tricks windows."""
    stats = stats if stats is not None else SearchStats()
    base_y, base_x = mb_row * size, mb_col * size
    sad_map = _window_sads(current, ref, base_y, base_x, search_range, size)

    def cost_at(dy: int, dx: int) -> int | None:
        mapped = sad_map[dy + search_range, dx + search_range]
        return None if mapped < 0 else int(mapped)

    return _scan(cost_at, search_range, stats, size)


def multi_reference_search(
    current: np.ndarray,
    references: list[np.ndarray],
    mb_row: int,
    mb_col: int,
    search_range: int = 16,
    stats: SearchStats | None = None,
    size: int = MACROBLOCK,
) -> tuple[int, MotionVector, int]:
    """Search up to three reference frames (paper Figure 14: the encoder
    fetches three references).  Returns (ref index, mv, sad)."""
    if not references:
        raise ValueError("need at least one reference frame")
    best = None
    for idx, ref in enumerate(references[:3]):
        mv, cost = diamond_search(
            current, ref, mb_row, mb_col, search_range, stats, size
        )
        if best is None or cost < best[2]:
            best = (idx, mv, cost)
    return best
