"""Unit + property tests for texture tiling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import replay_trace
from repro.sim.trace import TraceRecorder
from repro.workloads.chrome.texture import (
    TILE_BYTES,
    TILE_H,
    TILE_W,
    linear_to_tiled,
    linear_to_tiled_traced,
    profile_texture_tiling,
    tiled_to_linear,
)


def bitmap(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)


class TestTiling:
    def test_tile_is_4kb(self):
        assert TILE_BYTES == 4096

    def test_roundtrip_exact(self):
        b = bitmap(128, 256)
        assert np.array_equal(tiled_to_linear(linear_to_tiled(b)), b)

    def test_roundtrip_non_multiple_size(self):
        b = bitmap(100, 70)
        assert np.array_equal(tiled_to_linear(linear_to_tiled(b)), b)

    def test_tile_grid_shape(self):
        t = linear_to_tiled(bitmap(64, 96))
        assert t.tile_rows == 64 // TILE_H
        assert t.tile_cols == 96 // TILE_W
        assert t.num_tiles == 6

    def test_tile_content_matches_source_region(self):
        b = bitmap(64, 64)
        t = linear_to_tiled(b)
        assert np.array_equal(t.tiles[1, 1], b[TILE_H:2 * TILE_H, TILE_W:2 * TILE_W])

    def test_padding_is_zero(self):
        b = bitmap(40, 40)
        t = linear_to_tiled(b)
        assert t.tile_rows == 2
        assert (t.tiles[1, 1][40 - TILE_H:, :, :] == 0).all()

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            linear_to_tiled(np.zeros((10, 10, 3), dtype=np.uint8))

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            linear_to_tiled(np.zeros((10, 10, 4), dtype=np.float32))

    @settings(max_examples=20)
    @given(
        h=st.integers(min_value=1, max_value=96),
        w=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_roundtrip_property(self, h, w, seed):
        b = bitmap(h, w, seed)
        assert np.array_equal(tiled_to_linear(linear_to_tiled(b)), b)


class TestTracedTiling:
    def test_trace_covers_all_bytes(self):
        b = bitmap(64, 64)
        rec = TraceRecorder(granularity=TILE_W * 4)
        linear_to_tiled_traced(b, rec)
        trace = rec.trace()
        bytes_touched = len(trace) * TILE_W * 4
        assert bytes_touched == 2 * b.nbytes  # read once + written once

    def test_traced_result_matches_untraced(self):
        b = bitmap(64, 96)
        rec = TraceRecorder()
        traced = linear_to_tiled_traced(b, rec)
        assert np.array_equal(traced.tiles, linear_to_tiled(b).tiles)

    def test_trace_validates_streaming_assumption(self):
        """Replaying the real tiling trace through the cache simulator
        confirms the analytic profile's locality class: every source line
        is read once and every destination line written back once (the
        working set is 2x the LLC, so nothing is reused).  The simulator
        additionally charges a read-for-ownership per destination line
        (write-allocate), which the analytic profile omits because the
        real kernel uses streaming stores."""
        b = bitmap(1024, 1024)  # 4 MB, 2x the LLC
        rec = TraceRecorder(granularity=64)
        linear_to_tiled_traced(b, rec)
        stats = replay_trace(rec.trace())
        lines = b.nbytes // 64
        assert stats.dram_line_writes == lines  # dst written back once
        assert stats.dram_line_reads == 2 * lines  # src + dst RFO
        profile = profile_texture_tiling(1024, 1024)
        assert profile.dram_bytes == pytest.approx((lines * 2) * 64, rel=0.01)


class TestProfile:
    def test_traffic_is_twice_the_bitmap(self):
        p = profile_texture_tiling(512, 512)
        assert p.dram_bytes == 2 * 512 * 512 * 4

    def test_memory_intensive(self):
        assert profile_texture_tiling(512, 512).mpki > 10

    def test_scales_quadratically(self):
        small = profile_texture_tiling(256, 256)
        large = profile_texture_tiling(512, 512)
        assert large.dram_bytes == pytest.approx(4 * small.dram_bytes)
