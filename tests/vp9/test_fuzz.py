"""Fuzz/robustness properties: decoders must never crash on garbage.

Every parser in the codebase that consumes untrusted bytes -- the VP9
frame decoder, the LZO decompressor, the range decoder -- must either
decode *something* or raise ValueError.  No IndexError, OverflowError,
or infinite loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.chrome.lzo import decompress as lzo_decompress
from repro.workloads.vp9.decoder import Vp9Decoder
from repro.workloads.vp9.encoder import EncodedFrame, encode_video
from repro.workloads.vp9.entropy import RangeDecoder, RangeEncoder
from repro.workloads.vp9.video import synthetic_video

garbage = st.binary(min_size=0, max_size=512)


class TestLzoFuzz:
    @settings(max_examples=60)
    @given(data=garbage)
    def test_decompress_never_crashes(self, data):
        try:
            restored, stats = lzo_decompress(data)
            assert stats.output_bytes == len(restored)
        except ValueError:
            pass


class TestRangeDecoderFuzz:
    @settings(max_examples=40)
    @given(data=garbage, probs=st.lists(st.integers(1, 255), min_size=1,
                                        max_size=64))
    def test_decode_any_bytes(self, data, probs):
        dec = RangeDecoder(data)
        for p in probs:
            assert dec.decode(p) in (0, 1)


class TestVp9DecoderFuzz:
    @pytest.fixture(scope="class")
    def key_frame(self):
        clip = synthetic_video(48, 48, 2, motion=1.0, seed=1)
        encoded, _ = encode_video(clip)
        return encoded

    @settings(max_examples=25)
    @given(noise=st.binary(min_size=8, max_size=256),
           seed=st.integers(0, 1000))
    def test_corrupted_inter_frame(self, key_frame, noise, seed):
        """Random corruption of a real inter frame: decode or ValueError."""
        rng = np.random.default_rng(seed)
        data = bytearray(key_frame[1].data)
        for b in noise:
            data[int(rng.integers(0, len(data)))] ^= b or 1
        decoder = Vp9Decoder()
        decoder.decode_frame(key_frame[0])
        bad = EncodedFrame(bytes(data), False, 48, 48)
        try:
            frame = decoder.decode_frame(bad)
            assert frame.width == 48
        except ValueError:
            pass

    @settings(max_examples=15)
    @given(data=st.binary(min_size=6, max_size=128))
    def test_pure_garbage_key_frame(self, data):
        """Fully random bytes presented as a key frame."""
        decoder = Vp9Decoder()
        bad = EncodedFrame(bytes(data), True, 48, 48)
        try:
            decoder.decode_frame(bad)
        except ValueError:
            pass


class TestEncoderLiteralBounds:
    def test_oversized_literal_rejected(self):
        enc = RangeEncoder()
        with pytest.raises(ValueError):
            enc.encode_literal(16, 4)
        with pytest.raises(ValueError):
            enc.encode_literal(-1, 4)
        with pytest.raises(ValueError):
            enc.encode_literal(0, -1)
