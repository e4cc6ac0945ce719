"""The scalar workload kernels, kept as differential oracles.

Each PIM-target kernel in ``repro.workloads`` has one production engine,
written with NumPy array arithmetic or slice operations.  This module
keeps the per-pixel / per-byte loops those engines replaced, with the
entry points' signatures, as the reference
``tests/perf/test_vectorized_equivalence.py`` and
``tests/validate/test_fuzz_decoders.py`` compare them against:

* :func:`interpolate_block` / :func:`motion_compensate_block` -- 8-tap
  sub-pixel interpolation accumulated over Python integers (``vp9.mc``);
* :func:`deblock_frame` -- the deblocking filter one edge pixel at a
  time (``vp9.deblock``);
* :func:`sad_scalar` and the three searches -- motion estimation over a
  per-pixel SAD of sliced blocks, run by the production walks
  ``me._diamond_walk`` and ``me._scan`` (``vp9.me``);
* :func:`linear_to_tiled_traced` / :func:`compositing_trace` -- the
  texture tracers with one ``TraceRecorder`` call per range
  (``chrome.texture``);
* :func:`compress` / :func:`decompress` -- LZO with a dict probe table,
  a per-position hash and byte-at-a-time match extension, and the
  production token parser ``lzo._decompress`` (every bound and
  output-cap check) with a byte-at-a-time match copy (``chrome.lzo``).

The scalar kernels are moved unchanged from those modules.
pytest does not collect this module: its name has no ``test_`` prefix.
"""

from __future__ import annotations

import numpy as np

from repro.sim.trace import MemoryTrace, TraceRecorder
from repro.workloads.chrome import lzo
from repro.workloads.chrome.lzo import MAX_DISTANCE, MIN_MATCH, LzoStats
from repro.workloads.chrome.texture import (
    BYTES_PER_PIXEL,
    TILE_BYTES,
    TILE_H,
    TILE_W,
    TiledTexture,
    _check_bitmap,
    linear_to_tiled,
)
from repro.workloads.vp9 import me
from repro.workloads.vp9.deblock import EDGE_SPACING, DeblockStats
from repro.workloads.vp9.frame import MACROBLOCK, Frame
from repro.workloads.vp9.mc import (
    SUBPEL_TAPS,
    TAPS_BEFORE,
    MotionVector,
    _clamped_window,
)
from repro.workloads.vp9.me import SearchStats


def _round_shift_clip(acc: int) -> int:
    value = (acc + 64) >> 7
    return 0 if value < 0 else (255 if value > 255 else value)


def _interpolate_scalar(
    window: np.ndarray, frac_y: int, frac_x: int, h: int, w: int
) -> np.ndarray:
    """Per-pixel scalar oracle: explicit 8-tap accumulation with Python
    integers, mirroring libvpx's convolve8 loop structure."""
    rows = window.tolist()
    if frac_x:
        taps = SUBPEL_TAPS[frac_x].tolist()
        horiz = [
            [
                _round_shift_clip(sum(taps[t] * row[x + t] for t in range(8)))
                for x in range(w)
            ]
            for row in rows
        ]
    else:
        horiz = [row[TAPS_BEFORE : TAPS_BEFORE + w] for row in rows]
    if frac_y:
        taps = SUBPEL_TAPS[frac_y].tolist()
        vert = [
            [
                _round_shift_clip(
                    sum(taps[t] * horiz[y + t][x] for t in range(8))
                )
                for x in range(w)
            ]
            for y in range(h)
        ]
    else:
        vert = horiz[TAPS_BEFORE : TAPS_BEFORE + h]
    return np.array(vert, dtype=np.uint8)


def interpolate_block(
    ref: np.ndarray, y0: int, x0: int, frac_y: int, frac_x: int, h: int, w: int
) -> np.ndarray:
    """:func:`repro.workloads.vp9.mc.interpolate_block`, per pixel."""
    if frac_x == 0 and frac_y == 0:
        return _clamped_window(ref, y0, x0, h, w).astype(np.uint8)
    window = _clamped_window(
        ref, y0 - TAPS_BEFORE, x0 - TAPS_BEFORE, h + 7, w + 7
    ).astype(np.int32)
    return _interpolate_scalar(window, frac_y, frac_x, h, w)


def motion_compensate_block(
    ref: np.ndarray,
    mb_row: int,
    mb_col: int,
    mv: MotionVector,
    size: int = MACROBLOCK,
) -> np.ndarray:
    """:func:`repro.workloads.vp9.mc.motion_compensate_block`, per pixel."""
    y0 = mb_row * size + mv.int_y
    x0 = mb_col * size + mv.int_x
    return interpolate_block(ref, y0, x0, mv.frac_y, mv.frac_x, size, size)


def _filter_edges_scalar(
    pixels: np.ndarray, threshold: int, stats: DeblockStats
) -> np.ndarray:
    """Per-pixel scalar oracle for ``deblock._filter_edges``."""
    h, w = pixels.shape
    work = [[int(v) for v in row] for row in pixels.tolist()]
    for x in range(EDGE_SPACING, w, EDGE_SPACING):
        xq1 = x + 1 if x + 1 < w else x
        for row in work:
            p1, p0, q0, q1 = row[x - 2], row[x - 1], row[x], row[xq1]
            stats.edges_checked += 1
            step = abs(p0 - q0)
            if not (
                0 < step <= threshold
                and abs(p1 - p0) <= threshold
                and abs(q0 - q1) <= threshold
            ):
                continue
            stats.edges_filtered += 1
            stats.pixels_modified += 2
            avg = (p1 + p0 + q0 + q1 + 2) >> 2
            row[x - 1] = (p0 + avg + 1) >> 1
            row[x] = (q0 + avg + 1) >> 1
    return np.clip(np.array(work, dtype=np.int32), 0, 255).astype(np.uint8)


def deblock_frame(
    frame: Frame, threshold: int = 12, stats: DeblockStats | None = None
) -> Frame:
    """:func:`repro.workloads.vp9.deblock.deblock_frame`, per pixel:
    vertical edges, then horizontal edges of the result."""
    stats = stats if stats is not None else DeblockStats()
    vertical = _filter_edges_scalar(frame.pixels, threshold, stats)
    horizontal = _filter_edges_scalar(vertical.T, threshold, stats).T
    return Frame(pixels=np.ascontiguousarray(horizontal))


def sad_scalar(a: np.ndarray, b: np.ndarray) -> int:
    """Per-pixel scalar oracle for :func:`repro.workloads.vp9.me.sad`."""
    if a.shape != b.shape:
        raise ValueError("SAD operands must have equal shape")
    total = 0
    for row_a, row_b in zip(a.tolist(), b.tolist()):
        for va, vb in zip(row_a, row_b):
            total += abs(va - vb)
    return total


def _block_at(ref: np.ndarray, y: int, x: int, size: int) -> np.ndarray | None:
    """The (size, size) reference block at pixel (y, x), or None if it
    falls outside the frame."""
    if y < 0 or x < 0 or y + size > ref.shape[0] or x + size > ref.shape[1]:
        return None
    return ref[y : y + size, x : x + size]


def diamond_search(
    current: np.ndarray,
    ref: np.ndarray,
    mb_row: int,
    mb_col: int,
    search_range: int = 16,
    stats: SearchStats | None = None,
    size: int = MACROBLOCK,
) -> tuple[MotionVector, int]:
    """:func:`repro.workloads.vp9.me.diamond_search` over per-pixel SADs."""
    stats = stats if stats is not None else SearchStats()
    base_y, base_x = mb_row * size, mb_col * size

    def evaluate(dy: int, dx: int) -> int | None:
        block = _block_at(ref, base_y + dy, base_x + dx, size)
        if block is None:
            return None
        stats.sad_evaluations += 1
        stats.pixels_compared += size * size
        return sad_scalar(current, block)

    return me._diamond_walk(evaluate, search_range)


def full_search(
    current: np.ndarray,
    ref: np.ndarray,
    mb_row: int,
    mb_col: int,
    search_range: int = 8,
    stats: SearchStats | None = None,
    size: int = MACROBLOCK,
) -> tuple[MotionVector, int]:
    """:func:`repro.workloads.vp9.me.full_search` over per-pixel SADs."""
    stats = stats if stats is not None else SearchStats()
    base_y, base_x = mb_row * size, mb_col * size

    def cost_at(dy: int, dx: int) -> int | None:
        block = _block_at(ref, base_y + dy, base_x + dx, size)
        return None if block is None else sad_scalar(current, block)

    return me._scan(cost_at, search_range, stats, size)


def multi_reference_search(
    current: np.ndarray,
    references: list[np.ndarray],
    mb_row: int,
    mb_col: int,
    search_range: int = 16,
    stats: SearchStats | None = None,
    size: int = MACROBLOCK,
) -> tuple[int, MotionVector, int]:
    """:func:`repro.workloads.vp9.me.multi_reference_search` over the
    oracle diamond search."""
    best = None
    for idx, ref in enumerate(references[:3]):
        mv, cost = diamond_search(
            current, ref, mb_row, mb_col, search_range, stats, size
        )
        if best is None or cost < best[2]:
            best = (idx, mv, cost)
    return best


def linear_to_tiled_traced(
    bitmap: np.ndarray,
    recorder: TraceRecorder,
    src_base: int = 0,
    dst_base: int = 1 << 28,
) -> TiledTexture:
    """:func:`repro.workloads.chrome.texture.linear_to_tiled_traced`, one
    read + one write call per tile row."""
    _check_bitmap(bitmap)
    height, width = bitmap.shape[:2]
    pitch = width * BYTES_PER_PIXEL
    rows = (height + TILE_H - 1) // TILE_H
    cols = (width + TILE_W - 1) // TILE_W
    for tr in range(rows):
        for tc in range(cols):
            tile_base = dst_base + (tr * cols + tc) * TILE_BYTES
            for y in range(TILE_H):
                src_y = tr * TILE_H + y
                if src_y >= height:
                    continue
                src_off = src_base + src_y * pitch + tc * TILE_W * BYTES_PER_PIXEL
                chunk = min(TILE_W, width - tc * TILE_W) * BYTES_PER_PIXEL
                recorder.read(src_off, chunk)
                recorder.write(tile_base + y * TILE_W * BYTES_PER_PIXEL, chunk)
    return linear_to_tiled(bitmap)


def compositing_trace(
    width: int, height: int, tiled: bool, base: int = 0
) -> MemoryTrace:
    """:func:`repro.workloads.chrome.texture.compositing_trace`, one read
    call per sampled quad."""
    quad = 4 * BYTES_PER_PIXEL  # a 4-texel sampling quad
    rec = TraceRecorder(granularity=quad)
    pitch = width * BYTES_PER_PIXEL
    cols = (width + TILE_W - 1) // TILE_W
    if tiled:
        for tr in range((height + TILE_H - 1) // TILE_H):
            for tc in range(cols):
                tile_base = base + (tr * cols + tc) * TILE_BYTES
                for xq in range(0, TILE_W, 4):
                    for y in range(TILE_H):
                        rec.read(
                            tile_base
                            + y * TILE_W * BYTES_PER_PIXEL
                            + xq * BYTES_PER_PIXEL,
                            quad,
                        )
    else:
        for xq in range(0, width, 4):
            for y in range(height):
                rec.read(base + y * pitch + xq * BYTES_PER_PIXEL, quad)
    return rec.trace()


def _hash4(data: bytes, pos: int) -> int:
    word = (
        data[pos]
        | (data[pos + 1] << 8)
        | (data[pos + 2] << 16)
        | (data[pos + 3] << 24)
    )
    return ((word * lzo._HASH_MULT) & 0xFFFFFFFF) >> 18  # 14-bit table


def compress(data: bytes) -> tuple[bytes, LzoStats]:
    """:func:`repro.workloads.chrome.lzo.compress`, hashing and comparing
    byte by byte."""
    stats = LzoStats(input_bytes=len(data))
    out = bytearray()
    table: dict[int, int] = {}
    literal_start = 0
    pos = 0
    n = len(data)
    while pos + MIN_MATCH <= n:
        h = _hash4(data, pos)
        stats.hash_lookups += 1
        candidate = table.get(h, -1)
        table[h] = pos
        if (
            candidate >= 0
            and pos - candidate <= MAX_DISTANCE
            and data[candidate : candidate + MIN_MATCH] == data[pos : pos + MIN_MATCH]
        ):
            # Extend the match as far as it goes.
            length = MIN_MATCH
            stats.compare_bytes += MIN_MATCH
            while pos + length < n and data[candidate + length] == data[pos + length]:
                length += 1
                stats.compare_bytes += 1
            lzo._flush_literals(data, literal_start, pos, out, stats)
            lzo._emit_match(length, pos - candidate, out, stats)
            pos += length
            literal_start = pos
        else:
            pos += 1
    lzo._flush_literals(data, literal_start, n, out, stats)
    stats.output_bytes = len(out)
    return bytes(out), stats


def _copy_match_bytewise(out: bytearray, distance: int, length: int) -> None:
    # Byte-by-byte copy: LZ77 matches may overlap themselves.
    start = len(out) - distance
    for i in range(length):
        out.append(out[start + i])


def decompress(compressed: bytes) -> tuple[bytes, LzoStats]:
    """:func:`repro.workloads.chrome.lzo.decompress`, copying each match
    one byte at a time."""
    return lzo._decompress(compressed, _copy_match_bytewise)
