"""VP9 video playback and capture (paper Sections 6 and 7).

A from-scratch, simplified VP9-class codec plus analytical models of the
hardware encoder/decoder:

* :mod:`.frame` / :mod:`.video` -- frames and synthetic test video;
* :mod:`.bitio` / :mod:`.entropy` -- bit I/O and the adaptive binary
  range (boolean) coder;
* :mod:`.transform` -- integer-friendly DCT transforms + quantization;
* :mod:`.predict` -- intra prediction modes;
* :mod:`.mc` -- motion compensation with 8-tap sub-pixel interpolation
  (the decoder's dominant PIM target);
* :mod:`.me` -- diamond-search motion estimation with SAD matching (the
  encoder's dominant PIM target);
* :mod:`.deblock` -- the deblocking filter;
* :mod:`.encoder` / :mod:`.decoder` -- the full encode/decode loops
  (bit-exact reconstruction roundtrip);
* :mod:`.profiles` -- analytic kernel profiles and the Figure 10/11/15
  workload decompositions;
* :mod:`.hardware` -- the hardware codec off-chip traffic and energy
  models (Figures 12, 16, 21);
* :mod:`.targets` -- the Figure 20 PIM targets.
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".frame": ("Frame", "MACROBLOCK"),
    ".video": ("synthetic_video",),
    ".bitio": ("BitWriter", "BitReader"),
    ".entropy": ("RangeEncoder", "RangeDecoder", "AdaptiveBit"),
    ".transform": (
        "forward_dct",
        "inverse_dct",
        "quantize_coefficients",
        "dequantize_coefficients",
    ),
    ".predict": ("intra_predict", "INTRA_MODES"),
    ".mc": (
        "MotionVector",
        "interpolate_block",
        "motion_compensate_block",
        "SUBPEL_TAPS",
    ),
    ".me": ("diamond_search", "full_search", "sad"),
    ".deblock": ("deblock_frame",),
    ".encoder": ("Vp9Encoder", "EncodedFrame", "EncoderStats"),
    ".decoder": ("Vp9Decoder", "DecoderStats"),
    ".profiles": (
        "decoder_functions",
        "encoder_functions",
        "profile_sub_pixel_interpolation",
        "profile_deblocking_filter",
        "profile_motion_estimation",
    ),
    ".hardware": (
        "HardwareDecoderModel",
        "HardwareEncoderModel",
        "CodecTraffic",
        "PimPlacement",
    ),
    ".targets": ("video_pim_targets",),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
