"""Unit tests for motion estimation."""

import numpy as np
import pytest

from repro.workloads.vp9 import me
from repro.workloads.vp9.mc import MotionVector
from repro.workloads.vp9.me import (
    SearchStats,
    diamond_search,
    full_search,
    multi_reference_search,
    sad,
)


def shifted_scene(dy, dx, size=64, seed=0):
    """(reference, current) where current is reference translated by
    (dy, dx) -- i.e. content moved, so the best MV points back.

    The content is *smooth* (low-frequency, like real video): gradient-
    descent searches such as the diamond search need a SAD landscape that
    decreases toward the optimum, which white noise does not provide.
    """
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0, 255, size=(size // 4 + 4, size // 4 + 4))
    big = np.kron(coarse, np.ones((8, 8)))  # upsample 8x
    # Two box-blur passes smooth the block edges into gradients.
    for _ in range(2):
        big = (
            big
            + np.roll(big, 1, 0) + np.roll(big, -1, 0)
            + np.roll(big, 1, 1) + np.roll(big, -1, 1)
        ) / 5.0
    big = np.clip(big, 0, 255).astype(np.uint8)
    ref = big[size // 2 : size // 2 + size, size // 2 : size // 2 + size]
    cur = big[size // 2 + dy : size // 2 + dy + size,
              size // 2 + dx : size // 2 + dx + size]
    return np.ascontiguousarray(ref), np.ascontiguousarray(cur)


class TestSad:
    def test_identical_blocks(self, rng):
        b = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        assert sad(b, b) == 0

    def test_known_difference(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.full((4, 4), 3, dtype=np.uint8)
        assert sad(a, b) == 48

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sad(np.zeros((4, 4)), np.zeros((8, 8)))

    def test_no_uint8_overflow(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.full((4, 4), 255, dtype=np.uint8)
        assert sad(a, b) == 16 * 255


class TestDiamondSearch:
    @pytest.mark.parametrize("dy,dx", [(0, 0), (2, 3), (-4, 1), (5, -5), (-3, -3)])
    def test_finds_known_translation(self, dy, dx):
        ref, cur = shifted_scene(dy, dx)
        mv, cost = diamond_search(cur[16:32, 16:32], ref, 1, 1, search_range=8)
        assert (mv.int_y, mv.int_x) == (dy, dx)
        assert cost == 0

    def test_matches_full_search_on_translations(self):
        ref, cur = shifted_scene(3, -2)
        block = cur[16:32, 16:32]
        dmv, dcost = diamond_search(block, ref, 1, 1, search_range=8)
        fmv, fcost = full_search(block, ref, 1, 1, search_range=8)
        assert dcost == fcost == 0
        assert (dmv.int_y, dmv.int_x) == (fmv.int_y, fmv.int_x)

    def test_diamond_cost_close_to_optimum_on_noisy_content(self, rng):
        """Diamond search is greedy; on real content it should land within
        a modest factor of the exhaustive optimum."""
        ref = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        cur = np.clip(
            ref.astype(int) + rng.normal(0, 8, ref.shape), 0, 255
        ).astype(np.uint8)
        block = cur[16:32, 16:32]
        _, dcost = diamond_search(block, ref, 1, 1, search_range=8)
        _, fcost = full_search(block, ref, 1, 1, search_range=8)
        assert dcost <= max(3 * fcost, fcost + 512)

    def test_search_range_respected(self):
        ref, cur = shifted_scene(6, 6)
        mv, _ = diamond_search(cur[16:32, 16:32], ref, 1, 1, search_range=2)
        assert abs(mv.int_x) <= 2 and abs(mv.int_y) <= 2

    def test_reaches_the_range_edge(self):
        """A translation exactly at the search range is still a candidate."""
        ref, cur = shifted_scene(0, 4)
        mv, cost = diamond_search(cur[16:32, 16:32], ref, 1, 1, search_range=4)
        assert (mv.int_y, mv.int_x, cost) == (0, 4, 0)

    def test_ties_keep_the_candidate_nearest_the_origin(self):
        """On a flat frame every candidate costs the same, so both
        searches keep the zero vector."""
        ref = np.full((64, 64), 90, dtype=np.uint8)
        for search in (diamond_search, full_search):
            mv, cost = search(ref[16:32, 16:32], ref, 1, 1, search_range=4)
            assert (mv.dy, mv.dx, cost) == (0, 0, 0), search.__name__

    def test_walk_keeps_the_center_on_a_one_sided_tie(self):
        """The small diamond moves only to a strictly cheaper point.
        Cost 0 at the center and at (0, 1), more everywhere else: a
        walk that also moved on ties would end at (0, 1)."""

        def evaluate(dy, dx):
            if (dy, dx) in ((0, 0), (0, 1)):
                return 0
            return 1 + abs(dy) + abs(dx)

        assert me._diamond_walk(evaluate, 4) == (MotionVector(0, 0), 0)

    def test_walk_large_diamond_reaches_the_range_edge(self):
        """The target (2, 0) sits on the range edge, two steps from the
        center: only the large diamond reaches it.  A large diamond that
        skipped edge points would leave the small diamond at (1, 0)
        with cost 1."""

        def evaluate(dy, dx):
            return abs(dy - 2) + abs(dx)

        assert me._diamond_walk(evaluate, 2) == (MotionVector(dx=0, dy=16), 0)

    def test_stats_counted(self):
        ref, cur = shifted_scene(1, 1)
        stats = SearchStats()
        diamond_search(cur[16:32, 16:32], ref, 1, 1, stats=stats)
        assert stats.sad_evaluations > 0
        assert stats.pixels_compared == stats.sad_evaluations * 256

    def test_cheaper_than_full_search(self):
        ref, cur = shifted_scene(4, -3)
        ds, fs = SearchStats(), SearchStats()
        diamond_search(cur[16:32, 16:32], ref, 1, 1, search_range=8, stats=ds)
        full_search(cur[16:32, 16:32], ref, 1, 1, search_range=8, stats=fs)
        assert ds.sad_evaluations < fs.sad_evaluations / 3


class TestMultiReference:
    def test_picks_best_reference(self):
        ref_good, cur = shifted_scene(2, 2, seed=7)
        rng = np.random.default_rng(99)
        ref_bad = rng.integers(0, 256, size=ref_good.shape, dtype=np.uint8)
        block = cur[16:32, 16:32]
        idx, mv, cost = multi_reference_search(block, [ref_bad, ref_good], 1, 1)
        assert idx == 1
        assert cost == 0

    def test_at_most_three_references(self):
        ref, cur = shifted_scene(0, 0)
        refs = [ref] * 5
        stats = SearchStats()
        multi_reference_search(cur[16:32, 16:32], refs, 1, 1, stats=stats)
        # Zero-motion match found instantly in each of 3 refs.
        assert stats.sad_evaluations <= 3 * 30

    def test_no_references_rejected(self):
        with pytest.raises(ValueError):
            multi_reference_search(np.zeros((16, 16), dtype=np.uint8), [], 0, 0)
