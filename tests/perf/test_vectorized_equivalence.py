"""Differential tests: every vectorized kernel against its scalar oracle.

Each workload kernel must be *bit-identical* to its per-pixel /
per-byte / per-access scalar oracle in ``tests/perf/kernel_oracle.py``:
same pixels, same compressed bytes, same (base, count, is_write) range
records, same stats dataclasses.  The timing replay's two serial engines
and the GEMM walk's loop are test oracles in ``tests/sim/oracle.py``;
the production batched timing engine must match both serial engines'
:class:`TimingResult` floats.  Hypothesis drives randomized inputs under
the central ``repro`` profile (pinned examples; ``soak`` for fuzzing —
see ``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.obs import recording
from repro.sim.batch import replay_timing_batch
from repro.sim.timing import TimingParameters, TimingSimulator
from repro.sim.trace import MemoryTrace, TraceRecorder
from repro.workloads.chrome import lzo
from repro.workloads.chrome.texture import compositing_trace, linear_to_tiled_traced
from repro.workloads.tensorflow.access_patterns import gemm_lhs_trace
from repro.workloads.vp9.deblock import DeblockStats, deblock_frame
from repro.workloads.vp9.frame import MACROBLOCK, Frame
from repro.workloads.vp9.mc import MotionVector, interpolate_block, motion_compensate_block
from repro.workloads.vp9.me import (
    SearchStats,
    diamond_search,
    full_search,
    multi_reference_search,
    sad,
)
from tests.perf import kernel_oracle
from tests.sim import oracle

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pixels(seed: int, h: int, w: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)


class TestMotionCompensation:
    @settings(max_examples=60)
    @given(
        seed=seeds,
        frac_y=st.integers(0, 7),
        frac_x=st.integers(0, 7),
        y0=st.integers(-12, 40),
        x0=st.integers(-12, 40),
        h=st.sampled_from([4, 8, 16, 32]),
        w=st.sampled_from([4, 8, 16, 32]),
    )
    def test_interpolate_block(self, seed, frac_y, frac_x, y0, x0, h, w):
        ref = _pixels(seed, 48, 48)
        fast = interpolate_block(ref, y0, x0, frac_y, frac_x, h, w)
        scalar = kernel_oracle.interpolate_block(ref, y0, x0, frac_y, frac_x, h, w)
        assert fast.dtype == scalar.dtype == np.uint8
        assert np.array_equal(fast, scalar)

    @settings(max_examples=20)
    @given(seed=seeds, dx=st.integers(-40, 40), dy=st.integers(-40, 40))
    def test_motion_compensate_block(self, seed, dx, dy):
        ref = _pixels(seed, 64, 64)
        mv = MotionVector(dx=dx, dy=dy)
        fast = motion_compensate_block(ref, 1, 1, mv)
        scalar = kernel_oracle.motion_compensate_block(ref, 1, 1, mv)
        assert np.array_equal(fast, scalar)


class TestDeblock:
    @settings(max_examples=30)
    @given(
        seed=seeds,
        h=st.sampled_from([16, 32, 48]),
        w=st.sampled_from([16, 32, 48]),
        threshold=st.integers(0, 48),
        smooth=st.booleans(),
    )
    def test_deblock_frame(self, seed, h, w, threshold, smooth):
        pixels = _pixels(seed, h, w)
        if smooth:
            # Low-gradient content so the filter condition actually fires.
            pixels = (pixels // 16 + 100).astype(np.uint8)
        frame = Frame(pixels=pixels)
        fast_stats, scalar_stats = DeblockStats(), DeblockStats()
        fast = deblock_frame(frame, threshold, fast_stats)
        scalar = kernel_oracle.deblock_frame(frame, threshold, scalar_stats)
        assert np.array_equal(fast.pixels, scalar.pixels)
        assert fast_stats == scalar_stats


class TestMotionEstimation:
    @settings(max_examples=30)
    @given(seed=seeds)
    def test_sad(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        b = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert sad(a, b) == kernel_oracle.sad_scalar(a, b)

    @settings(max_examples=25)
    @given(
        seed=seeds,
        mb_row=st.integers(0, 2),
        mb_col=st.integers(0, 2),
        search_range=st.sampled_from([4, 8, 16]),
        shift=st.integers(-3, 3),
    )
    def test_diamond_search(self, seed, mb_row, mb_col, search_range, shift):
        rng = np.random.default_rng(seed)
        cur_frame = rng.integers(0, 256, (48, 48), dtype=np.uint8)
        # The reference is a shifted copy plus noise, so the search has a
        # meaningful optimum to walk towards.
        ref = np.roll(cur_frame, (shift, -shift), axis=(0, 1))
        ref = np.clip(
            ref.astype(np.int32) + rng.integers(-4, 5, ref.shape), 0, 255
        ).astype(np.uint8)
        current = cur_frame[
            mb_row * MACROBLOCK : (mb_row + 1) * MACROBLOCK,
            mb_col * MACROBLOCK : (mb_col + 1) * MACROBLOCK,
        ]
        fast_stats, scalar_stats = SearchStats(), SearchStats()
        fast = diamond_search(current, ref, mb_row, mb_col, search_range, fast_stats)
        scalar = kernel_oracle.diamond_search(
            current, ref, mb_row, mb_col, search_range, scalar_stats
        )
        assert fast == scalar
        assert fast_stats == scalar_stats

    @settings(max_examples=15)
    @given(seed=seeds, search_range=st.sampled_from([2, 4, 8]))
    def test_full_search(self, seed, search_range):
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 256, (48, 48), dtype=np.uint8)
        current = rng.integers(0, 256, (MACROBLOCK, MACROBLOCK), dtype=np.uint8)
        fast_stats, scalar_stats = SearchStats(), SearchStats()
        fast = full_search(current, ref, 1, 1, search_range, fast_stats)
        scalar = kernel_oracle.full_search(
            current, ref, 1, 1, search_range, scalar_stats
        )
        assert fast == scalar
        assert fast_stats == scalar_stats

    @settings(max_examples=10)
    @given(seed=seeds)
    def test_multi_reference_search(self, seed):
        rng = np.random.default_rng(seed)
        refs = [rng.integers(0, 256, (32, 32), dtype=np.uint8) for _ in range(3)]
        current = rng.integers(0, 256, (MACROBLOCK, MACROBLOCK), dtype=np.uint8)
        fast = multi_reference_search(current, refs, 0, 0, 8)
        scalar = kernel_oracle.multi_reference_search(current, refs, 0, 0, 8)
        assert fast == scalar


class TestTextureTracing:
    @settings(max_examples=20)
    @given(seed=seeds, w=st.integers(1, 130), h=st.integers(1, 90))
    def test_linear_to_tiled_traced(self, seed, w, h):
        bitmap = np.random.default_rng(seed).integers(
            0, 256, (h, w, 4), dtype=np.uint8
        )
        rec_fast, rec_scalar = TraceRecorder(), TraceRecorder()
        fast = linear_to_tiled_traced(bitmap, rec_fast)
        scalar = kernel_oracle.linear_to_tiled_traced(bitmap, rec_scalar)
        assert np.array_equal(fast.tiles, scalar.tiles)
        # Identical compact range records, hence identical traces.
        assert rec_fast.range_records() == rec_scalar.range_records()
        tf, ts = rec_fast.trace(), rec_scalar.trace()
        assert np.array_equal(tf.addresses, ts.addresses)
        assert np.array_equal(tf.is_write, ts.is_write)

    @settings(max_examples=20)
    @given(w=st.integers(4, 130), h=st.integers(1, 90), tiled=st.booleans())
    def test_compositing_trace(self, w, h, tiled):
        fast = compositing_trace(w, h, tiled)
        scalar = kernel_oracle.compositing_trace(w, h, tiled)
        assert np.array_equal(fast.addresses, scalar.addresses)
        assert np.array_equal(fast.is_write, scalar.is_write)


class TestGemmTrace:
    """The batched GEMM LHS walk against the one-read-per-load loop."""

    @settings(max_examples=20)
    @given(
        m=st.integers(1, 70),
        k=st.integers(1, 200),
        n_blocks=st.integers(1, 3),
        panel_rows=st.integers(1, 17),
        granularity=st.integers(1, 80),
        packed=st.booleans(),
    )
    # A partial last panel, in both layouts.
    @example(m=7, k=64, n_blocks=2, panel_rows=4, granularity=16, packed=False)
    @example(m=7, k=64, n_blocks=2, panel_rows=4, granularity=16, packed=True)
    # k not a multiple of the access size, and an access wider than k.
    @example(m=8, k=33, n_blocks=1, panel_rows=4, granularity=16, packed=False)
    @example(m=5, k=10, n_blocks=2, panel_rows=2, granularity=64, packed=False)
    # One panel wider than the whole operand.
    @example(m=3, k=40, n_blocks=2, panel_rows=16, granularity=8, packed=False)
    # The cachesweep shape.
    @example(m=128, k=512, n_blocks=4, panel_rows=4, granularity=16, packed=False)
    @example(m=128, k=512, n_blocks=4, panel_rows=4, granularity=16, packed=True)
    def test_gemm_lhs_trace(self, m, k, n_blocks, panel_rows, granularity, packed):
        fast = gemm_lhs_trace(m, k, n_blocks, packed, panel_rows, granularity)
        loop = oracle.gemm_lhs_trace_loop(
            m, k, n_blocks, packed, panel_rows, granularity
        )
        assert len(fast) == len(loop) > 0
        assert fast.addresses.dtype == loop.addresses.dtype == np.uint64
        assert fast.is_write.dtype == loop.is_write.dtype == bool
        assert np.array_equal(fast.addresses, loop.addresses)
        assert np.array_equal(fast.is_write, loop.is_write)


def _lzo_corpus(rng: np.random.Generator, n: int, kind: int) -> bytes:
    if kind == 0:  # incompressible
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    if kind == 1:  # single-byte run: overlapping distance-1 matches
        return bytes([int(rng.integers(0, 256))]) * n
    # repeated phrases over a tiny alphabet: dense matching
    base = rng.integers(0, 4, max(1, n // 8), dtype=np.uint8).tobytes()
    out = bytearray()
    while len(out) < n:
        out += base[: int(rng.integers(1, len(base) + 1))]
    return bytes(out[:n])


class TestLzo:
    @settings(max_examples=40)
    @given(seed=seeds, n=st.integers(0, 4096), kind=st.integers(0, 2))
    def test_compress_decompress(self, seed, n, kind):
        data = _lzo_corpus(np.random.default_rng(seed), n, kind)
        comp_fast, cstats_fast = lzo.compress(data)
        comp_scalar, cstats_scalar = kernel_oracle.compress(data)
        assert comp_fast == comp_scalar
        assert cstats_fast == cstats_scalar
        out_fast, dstats_fast = lzo.decompress(comp_fast)
        out_scalar, dstats_scalar = kernel_oracle.decompress(comp_fast)
        assert out_fast == out_scalar == data
        assert dstats_fast == dstats_scalar

    @settings(max_examples=20)
    @given(data=st.binary(max_size=2048))
    def test_arbitrary_bytes_roundtrip(self, data):
        comp_fast, stats_fast = lzo.compress(data)
        comp_scalar, stats_scalar = kernel_oracle.compress(data)
        assert comp_fast == comp_scalar
        assert stats_fast == stats_scalar
        restored, _ = lzo.decompress(comp_fast)
        assert restored == data


class TestTimingReplay:
    @settings(max_examples=25)
    @given(
        seed=seeds,
        n=st.integers(0, 3000),
        footprint_log2=st.integers(10, 26),
        write_fraction=st.floats(0.0, 1.0),
        mshrs=st.sampled_from([1, 6, 10_000]),
    )
    def test_replay_fast_bit_identical(
        self, seed, n, footprint_log2, write_fraction, mshrs
    ):
        rng = np.random.default_rng(seed)
        trace = MemoryTrace(
            addresses=rng.integers(0, 1 << footprint_log2, n).astype(np.uint64),
            is_write=rng.random(n) < write_fraction,
        )
        params = TimingParameters(mshrs=mshrs)
        scalar = oracle.TimingSimulator(params=params).replay(trace)
        fast = oracle.TimingSimulator(params=params).replay_fast(trace)
        batched = replay_timing_batch(trace, [TimingSimulator(params=params)])
        # Dataclass equality: exact float cycles, not approximate.
        assert scalar == fast
        assert batched == [scalar]

    def test_streaming_trace(self):
        rec = TraceRecorder(granularity=8)
        rec.read(0, 256 * 1024)
        trace = rec.trace()
        scalar = oracle.TimingSimulator().replay(trace, instructions_per_access=0.5)
        fast = oracle.TimingSimulator().replay_fast(
            trace, instructions_per_access=0.5
        )
        assert scalar == fast
        assert replay_timing_batch(trace, [TimingSimulator()], 0.5) == [scalar]


class TestPathCounters:
    def test_kernels_publish_path_counters(self):
        """Each kernel has one engine, so none publishes a ``kernel.*``
        path counter; the timing replay still counts its replays."""
        ref = _pixels(3, 48, 48)
        frame = Frame(pixels=_pixels(4, 32, 32))
        bitmap = _pixels(5, 32, 128).reshape(32, 32, 4)
        with recording() as rec:
            interpolate_block(ref, 0, 0, 3, 3, 16, 16)
            deblock_frame(frame)
            diamond_search(ref[:16, :16], ref, 0, 0, 8)
            full_search(ref[:16, :16], ref, 0, 0, 2)
            linear_to_tiled_traced(bitmap, TraceRecorder())
            compositing_trace(32, 32, tiled=True)
            lzo.decompress(lzo.compress(b"abcd" * 64)[0])
            replay_timing_batch(
                MemoryTrace(
                    addresses=np.arange(64, dtype=np.uint64) * np.uint64(64),
                    is_write=np.zeros(64, dtype=bool),
                ),
                [TimingSimulator()],
            )
        counters = rec.counters.as_dict()
        assert not [name for name in counters if name.startswith("kernel.")]
        assert counters["sim.timing.fast_path"] == 1
        assert counters["sim.timing.dram_misses"] == 64
