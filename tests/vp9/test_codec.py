"""Integration tests: the full encoder/decoder loop."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.vp9.decoder import Vp9Decoder, decode_video
from repro.workloads.vp9.encoder import EncodedFrame, Vp9Encoder, encode_video
from repro.workloads.vp9.frame import Frame
from repro.workloads.vp9.video import synthetic_video


@pytest.fixture(scope="module")
def clip():
    return synthetic_video(64, 64, 6, motion=2.7, objects=3, noise=1.0, seed=11)


@pytest.fixture(scope="module")
def coded(clip):
    encoded, encoder = encode_video(clip, qstep=16)
    decoded, decoder = decode_video(encoded)
    return encoded, encoder, decoded, decoder


class TestRoundtrip:
    def test_decoder_matches_encoder_reconstruction(self, clip, coded):
        """The decoder output is bit-exact with the encoder's own
        reconstruction (drift-free closed loop)."""
        encoded, encoder, decoded, _ = coded
        assert np.array_equal(
            encoder.last_reconstructed.pixels, decoded[-1].pixels
        )

    def test_quality_reasonable(self, clip, coded):
        _, _, decoded, _ = coded
        for original, restored in zip(clip, decoded):
            assert original.psnr(restored) > 30.0

    def test_finer_quantization_improves_quality(self, clip):
        coarse = decode_video(encode_video(clip, qstep=64)[0])[0]
        fine = decode_video(encode_video(clip, qstep=4)[0])[0]
        assert clip[-1].psnr(fine[-1]) > clip[-1].psnr(coarse[-1])

    def test_finer_quantization_costs_bits(self, clip):
        coarse, _ = encode_video(clip, qstep=64)
        fine, _ = encode_video(clip, qstep=4)
        assert sum(len(f.data) for f in fine) > sum(len(f.data) for f in coarse)

    def test_compression_achieved(self, clip, coded):
        encoded, _, _, _ = coded
        raw = 64 * 64
        for frame in encoded[1:]:
            assert len(frame.data) < raw / 2

    def test_inter_frames_smaller_than_key(self, coded):
        encoded, _, _, _ = coded
        key = len(encoded[0].data)
        inter = [len(f.data) for f in encoded[1:]]
        assert max(inter) < key

    def test_static_video_nearly_free(self):
        frames = [Frame.blank(64, 64, 90) for _ in range(4)]
        encoded, _ = encode_video(frames)
        for f in encoded[1:]:
            assert len(f.data) < 100


class TestStructure:
    def test_first_frame_is_key(self, coded):
        encoded, _, _, _ = coded
        assert encoded[0].is_key
        assert not any(f.is_key for f in encoded[1:])

    def test_inter_prediction_used(self, coded):
        _, encoder, _, decoder = coded
        assert encoder.stats.inter_macroblocks > 0
        assert decoder.stats.inter_macroblocks == encoder.stats.inter_macroblocks

    def test_subpel_blocks_tracked(self, coded):
        _, encoder, _, decoder = coded
        assert decoder.stats.subpel_blocks == encoder.stats.subpel_blocks

    def test_stats_macroblock_count(self, clip, coded):
        _, _, _, decoder = coded
        per_frame = (64 // 16) ** 2
        assert decoder.stats.macroblocks == per_frame * len(clip)

    def test_reference_pixels_tracked(self, coded):
        _, _, _, decoder = coded
        assert decoder.stats.reference_pixels > 0
        assert 0.0 < decoder.stats.reference_pixels_per_pixel < 3.5

    def test_reference_list_bounded(self, coded):
        _, encoder, _, decoder = coded
        assert len(encoder.references) <= 3
        assert len(decoder.references) <= 3


class TestErrors:
    def test_inter_frame_without_key_rejected(self, clip):
        encoded, _ = encode_video(clip)
        decoder = Vp9Decoder()
        with pytest.raises(ValueError):
            decoder.decode_frame(encoded[1])

    def test_invalid_qstep(self):
        with pytest.raises(ValueError):
            Vp9Encoder(qstep=0)
        with pytest.raises(ValueError):
            Vp9Encoder(qstep=500)

    def test_corrupt_stream_detected_or_decodes(self, clip):
        """Flipping bytes in the payload must never crash: either a
        ValueError (detected corruption) or a (wrong) decoded frame."""
        encoded, _ = encode_video(clip[:2])
        corrupt = bytearray(encoded[1].data)
        for i in range(4, min(len(corrupt), 24)):
            corrupt[i] ^= 0xFF
        bad = EncodedFrame(bytes(corrupt), encoded[1].is_key,
                           encoded[1].width, encoded[1].height)
        decoder = Vp9Decoder()
        decoder.decode_frame(encoded[0])
        try:
            frame = decoder.decode_frame(bad)
            assert frame.width == 64
        except ValueError:
            pass


class TestNonSquare:
    def test_rectangular_video(self):
        frames = synthetic_video(96, 48, 3, motion=1.5, seed=2)
        encoded, encoder = encode_video(frames)
        decoded, _ = decode_video(encoded)
        assert decoded[0].width == 96 and decoded[0].height == 48
        assert np.array_equal(encoder.last_reconstructed.pixels, decoded[-1].pixels)


class TestCodecProperty:
    """Property-based fuzzing of the full codec loop."""

    def test_roundtrip_over_random_parameters(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=8)
        @given(
            qstep=st.sampled_from([4, 16, 48, 120]),
            motion=st.floats(min_value=0.0, max_value=5.0),
            seed=st.integers(min_value=0, max_value=100),
            mb_w=st.integers(min_value=2, max_value=5),
            mb_h=st.integers(min_value=2, max_value=4),
        )
        def check(qstep, motion, seed, mb_w, mb_h):
            clip = synthetic_video(
                mb_w * 16, mb_h * 16, 3, motion=motion, seed=seed
            )
            encoded, encoder = encode_video(clip, qstep=qstep)
            decoded, _ = decode_video(encoded)
            assert np.array_equal(
                encoder.last_reconstructed.pixels, decoded[-1].pixels
            )
            assert clip[-1].psnr(decoded[-1]) > 18.0

        check()


#: The ``codec`` command's clips: (width, height, frames), each run as
#: ``repro codec --width W --height H --frames N --qstep 8``.
GOLDEN_CLIPS = [(64, 64, 4), (96, 48, 5)]
GOLDEN_PATH = Path(__file__).parent / "golden_codec.json"


def codec_run(width: int, height: int, frames: int) -> dict:
    """What the ``codec`` command computes for one clip: digests of the
    bitstream and the decoded pixels, and both sides' full stats."""
    clip = synthetic_video(width, height, frames, motion=2.5, seed=1)
    encoded, encoder = encode_video(clip, qstep=8)
    decoded, decoder = decode_video(encoded)
    bitstream = hashlib.sha256()
    for frame in encoded:
        bitstream.update(b"K" if frame.is_key else b"I")
        bitstream.update(len(frame.data).to_bytes(8, "little"))
        bitstream.update(frame.data)
    pixels = hashlib.sha256()
    for frame in decoded:
        pixels.update(np.ascontiguousarray(frame.pixels).tobytes())
    return {
        "bitstream_sha256": bitstream.hexdigest(),
        "decoded_sha256": pixels.hexdigest(),
        "encoder_stats": dataclasses.asdict(encoder.stats),
        "decoder_stats": dataclasses.asdict(decoder.stats),
    }


class TestCodecGolden:
    """Pins the ``codec`` command's output byte for byte.

    Motion compensation, deblocking and motion estimation feed only this
    command, so the golden catches a kernel or search-walk change that
    moves both sides of a differential test at once.  Regenerate after
    an intentional codec change with
    ``REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/vp9/test_codec.py``.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        return {"%dx%dx%d" % clip: codec_run(*clip) for clip in GOLDEN_CLIPS}

    def test_codec_matches_golden(self, runs):
        got = json.dumps(runs, indent=1, sort_keys=True) + "\n"
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN_PATH.write_text(got)
        assert runs == json.loads(GOLDEN_PATH.read_text()), (
            "codec output drifted from tests/vp9/golden_codec.json -- if the "
            "change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
        )

    def test_golden_clips_exercise_every_kernel(self, runs):
        """Sub-pel blocks, split macroblocks, deblock filtering and a
        three-reference search all run, so the golden covers them."""
        for name, clip in runs.items():
            encoder, decoder = clip["encoder_stats"], clip["decoder_stats"]
            assert decoder["subpel_blocks"] > 0, name
            assert decoder["split_macroblocks"] > 0, name
            assert decoder["deblock"]["edges_filtered"] > 0, name
            assert encoder["deblock"] == decoder["deblock"], name
            assert encoder["search"]["sad_evaluations"] > 0, name
        # From the fourth frame on, the encoder searches three references.
        assert min(frames for _, _, frames in GOLDEN_CLIPS) >= 4
