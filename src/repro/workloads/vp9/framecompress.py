"""Lossless reference-frame compression (paper Sections 6.3.1, 7.3.1).

The hardware VP9 codec can store reference/reconstructed frames in a
losslessly compressed format to cut the off-chip pixel traffic; the
paper's Figures 12/16/21 evaluate the codec with and without it.  The
hardware model (:mod:`repro.workloads.vp9.hardware`) summarizes the
effect as ``FRAME_COMPRESSION_FACTOR = 0.6`` (compressed frames keep
~60% of the raw bytes).

This module implements the scheme functionally so that constant is
*measured*, not asserted: per 8x8 block, pixels are predicted from their
left neighbour (DPCM), and the residuals are entropy-packed with a
per-block fixed-width bit packing (the width chosen per block, as
hardware schemes do to keep random block access cheap).  The test suite
verifies (a) lossless round-trips and (b) that compression of codec
output frames lands near the modeled 0.6 factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._sum import left_sum
from repro.workloads.vp9.frame import Frame

BLOCK = 8
#: Per-block header: 4 bits of residual bit-width.
HEADER_BITS = 4


@dataclass(frozen=True)
class CompressedFrame:
    """A losslessly compressed frame."""

    data: bytes
    width: int
    height: int

    @property
    def compressed_bytes(self) -> int:
        return len(self.data)

    @property
    def raw_bytes(self) -> int:
        return self.width * self.height

    @property
    def compression_factor(self) -> float:
        """Compressed size / raw size (the hardware model's factor)."""
        if self.raw_bytes == 0:
            return 0.0
        return self.compressed_bytes / self.raw_bytes


def _dpcm_residuals(block: np.ndarray) -> np.ndarray:
    """Left-neighbour DPCM; first column predicts from the row above
    (and 128 for the very first pixel)."""
    block = block.astype(np.int16)
    residual = np.empty_like(block)
    residual[:, 1:] = block[:, 1:] - block[:, :-1]
    residual[1:, 0] = block[1:, 0] - block[:-1, 0]
    residual[0, 0] = block[0, 0] - 128
    return residual


def _undo_dpcm(residual: np.ndarray) -> np.ndarray:
    out = np.empty_like(residual)
    # First column: vertical prediction chain seeded by 128.
    first_col = np.concatenate([[residual[0, 0] + 128], residual[1:, 0]])
    out[:, 0] = np.cumsum(first_col)
    # Remaining columns: horizontal prediction chain per row.
    for x in range(1, residual.shape[1]):
        out[:, x] = out[:, x - 1] + residual[:, x]
    return out


def _bits_needed(residual: np.ndarray) -> int:
    """Signed bit-width needed for the non-DC residuals of the block
    (the first pixel is always stored raw)."""
    flat = residual.reshape(-1)[1:]
    max_abs = int(np.abs(flat).max()) if flat.size else 0
    if max_abs == 0:
        return 0
    width = int(max_abs).bit_length() + 1  # sign bit
    return min(width, 9)


def compress_frame(frame: Frame) -> CompressedFrame:
    """Losslessly compress one frame (8x8 DPCM + per-block bit packing)."""
    pixels = frame.pixels
    h, w = pixels.shape
    bits: list[int] = []
    for by in range(0, h, BLOCK):
        for bx in range(0, w, BLOCK):
            block = pixels[by : by + BLOCK, bx : bx + BLOCK]
            residual = _dpcm_residuals(block)
            width = _bits_needed(residual)
            if width >= 9:
                # Incompressible block: store raw (escape width 15).
                bits.append(15)
                for value in block.reshape(-1):
                    bits.append(int(value))
                continue
            bits.append(width)
            bits.append(int(block[0, 0]))  # DC pixel stored raw
            if width == 0:
                continue
            offset = 1 << (width - 1)
            for value in residual.reshape(-1)[1:]:
                bits.append(int(value) + offset)
    # Bit-pack: each entry is (value, width) pairs flattened; we rebuild
    # widths on decode from the headers, so pack into a plain bitstream.
    packed = _pack(bits, pixels.shape)
    return CompressedFrame(data=packed, width=w, height=h)


def _pack(symbols: list[int], shape) -> bytes:
    """Pack the header/value symbol stream into bytes.

    The stream structure is deterministic given the frame size, so the
    packer re-derives each symbol's width exactly as the unpacker will.
    """
    h, w = shape
    out = bytearray()
    acc = 0
    filled = 0

    def put(value: int, width: int):
        nonlocal acc, filled
        acc = (acc << width) | (value & ((1 << width) - 1))
        filled += width
        while filled >= 8:
            filled -= 8
            out.append((acc >> filled) & 0xFF)
    idx = 0
    for _ in range((h // BLOCK) * (w // BLOCK)):
        header = symbols[idx]
        idx += 1
        put(header, HEADER_BITS)
        if header == 15:
            for _ in range(BLOCK * BLOCK):
                put(symbols[idx], 8)
                idx += 1
        else:
            put(symbols[idx], 8)  # raw DC pixel
            idx += 1
            if header > 0:
                for _ in range(BLOCK * BLOCK - 1):
                    put(symbols[idx], header)
                    idx += 1
    if filled:
        out.append((acc << (8 - filled)) & 0xFF)
    return bytes(out)


def decompress_frame(compressed: CompressedFrame) -> Frame:
    """Exact inverse of :func:`compress_frame`."""
    w, h = compressed.width, compressed.height
    data = compressed.data
    pos = 0  # bit position

    def take(width: int) -> int:
        nonlocal pos
        value = 0
        for _ in range(width):
            byte = data[pos >> 3] if (pos >> 3) < len(data) else 0
            value = (value << 1) | ((byte >> (7 - (pos & 7))) & 1)
            pos += 1
        return value

    pixels = np.empty((h, w), dtype=np.uint8)
    for by in range(0, h, BLOCK):
        for bx in range(0, w, BLOCK):
            header = take(HEADER_BITS)
            if header == 15:
                raw = np.array(
                    [take(8) for _ in range(BLOCK * BLOCK)], dtype=np.uint8
                ).reshape(BLOCK, BLOCK)
                pixels[by : by + BLOCK, bx : bx + BLOCK] = raw
                continue
            dc = take(8)
            if header == 0:
                residual = np.zeros((BLOCK, BLOCK), dtype=np.int16)
            else:
                offset = 1 << (header - 1)
                rest = (
                    np.array(
                        [take(header) for _ in range(BLOCK * BLOCK - 1)],
                        dtype=np.int16,
                    )
                    - offset
                )
                residual = np.concatenate([[0], rest]).reshape(BLOCK, BLOCK)
            residual[0, 0] = dc - 128  # DC was stored raw
            block = _undo_dpcm(residual)
            pixels[by : by + BLOCK, bx : bx + BLOCK] = np.clip(block, 0, 255).astype(
                np.uint8
            )
    return Frame(pixels=pixels)


def measure_compression_factor(frames: list[Frame]) -> float:
    """Average compressed/raw ratio over a frame list (validates the
    hardware model's FRAME_COMPRESSION_FACTOR constant)."""
    if not frames:
        raise ValueError("need at least one frame")
    factors = [compress_frame(f).compression_factor for f in frames]
    return left_sum(factors) / len(factors)
