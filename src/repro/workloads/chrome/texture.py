"""Texture tiling (paper Section 4.2.2).

After rasterization, Chrome's graphics driver converts each linear
rasterized bitmap into a *tiled* texture layout so the GPU's compositor
gets good 2-D locality: the Intel HD Graphics driver splits the bitmap
into 4 kB tiles (32x32 pixels at 4 bytes/pixel).  The conversion itself
has poor locality -- it reads the bitmap linearly but writes each output
tile from rows that are ``width * 4`` bytes apart -- and the bitmaps
(e.g. 1024x1024 RGBA = 4 MB) exceed the LLC, so nearly every byte moves
over the off-chip channel twice.

This module implements the actual conversion (both directions), an
instrumented variant that records its memory trace, and the analytic
profile used by the characterization pipeline.  Both tracers compute
their range records with array arithmetic; the one-call-per-range loops
they replaced are the test oracle (``tests/perf/kernel_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.profile import KernelProfile

if TYPE_CHECKING:  # annotation-only; the kernels import NumPy in their bodies
    import numpy as np

    from repro.sim.trace import MemoryTrace, TraceRecorder

#: Tile geometry: 32x32 pixels * 4 B/pixel = 4096 B, one page-sized tile,
#: matching the Intel i965 driver behaviour the paper emulates.
TILE_W = 32
TILE_H = 32
BYTES_PER_PIXEL = 4
TILE_BYTES = TILE_W * TILE_H * BYTES_PER_PIXEL


@dataclass(frozen=True)
class TiledTexture:
    """A bitmap reorganized into GPU-friendly 4 kB tiles."""

    tiles: np.ndarray  # (rows, cols, TILE_H, TILE_W, 4) uint8
    width: int  # original bitmap width in pixels
    height: int  # original bitmap height in pixels

    @property
    def tile_rows(self) -> int:
        return int(self.tiles.shape[0])

    @property
    def tile_cols(self) -> int:
        return int(self.tiles.shape[1])

    @property
    def num_tiles(self) -> int:
        return self.tile_rows * self.tile_cols


def _check_bitmap(bitmap: np.ndarray) -> None:
    import numpy as np

    if bitmap.ndim != 3 or bitmap.shape[2] != BYTES_PER_PIXEL:
        raise ValueError(
            "bitmap must be HxWx4 (RGBA) uint8, got shape %r" % (bitmap.shape,)
        )
    if bitmap.dtype != np.uint8:
        raise ValueError("bitmap must be uint8, got %s" % bitmap.dtype)


def linear_to_tiled(bitmap: np.ndarray) -> TiledTexture:
    """Convert a linear RGBA bitmap into 4 kB tiles (texture tiling).

    Edges are zero-padded to whole tiles, as real drivers allocate whole
    tiles and ignore the slack.
    """
    import numpy as np

    _check_bitmap(bitmap)
    height, width = bitmap.shape[:2]
    rows = (height + TILE_H - 1) // TILE_H
    cols = (width + TILE_W - 1) // TILE_W
    padded = np.zeros((rows * TILE_H, cols * TILE_W, BYTES_PER_PIXEL), dtype=np.uint8)
    padded[:height, :width] = bitmap
    tiles = (
        padded.reshape(rows, TILE_H, cols, TILE_W, BYTES_PER_PIXEL)
        .swapaxes(1, 2)
        .copy()
    )
    return TiledTexture(tiles=tiles, width=width, height=height)


def tiled_to_linear(texture: TiledTexture) -> np.ndarray:
    """Convert a tiled texture back to the linear bitmap (untiling)."""
    rows, cols = texture.tile_rows, texture.tile_cols
    padded = (
        texture.tiles.swapaxes(1, 2)
        .reshape(rows * TILE_H, cols * TILE_W, BYTES_PER_PIXEL)
    )
    return padded[: texture.height, : texture.width].copy()


def linear_to_tiled_traced(
    bitmap: np.ndarray,
    recorder: TraceRecorder,
    src_base: int = 0,
    dst_base: int = 1 << 28,
) -> TiledTexture:
    """Tiling with its memory accesses recorded tile-row by tile-row.

    The access pattern is the defining feature: the source is read in
    ``TILE_W * 4``-byte chunks strided by the full bitmap pitch, while the
    destination tile is written contiguously -- exactly the pattern that
    produces one LLC miss per source chunk on large bitmaps.

    The whole frame's range records are computed with array arithmetic
    and emitted as one :meth:`TraceRecorder.record_ranges` batch, in the
    order of one read + one write per tile row.
    """
    import numpy as np

    _check_bitmap(bitmap)
    height, width = bitmap.shape[:2]
    pitch = width * BYTES_PER_PIXEL
    rows = (height + TILE_H - 1) // TILE_H
    cols = (width + TILE_W - 1) // TILE_W
    # (rows, cols, TILE_H) offset grids in (tr, tc, y) iteration order.
    tr, tc, y = np.meshgrid(
        np.arange(rows), np.arange(cols), np.arange(TILE_H), indexing="ij"
    )
    src_y = tr * TILE_H + y
    valid = (src_y < height).ravel()
    src_off = (
        src_base + src_y * pitch + tc * TILE_W * BYTES_PER_PIXEL
    ).ravel()[valid]
    dst_off = (
        dst_base
        + (tr * cols + tc) * TILE_BYTES
        + y * TILE_W * BYTES_PER_PIXEL
    ).ravel()[valid]
    chunk = (
        np.minimum(TILE_W, width - tc * TILE_W) * BYTES_PER_PIXEL
    ).ravel()[valid]
    n = src_off.shape[0]
    # Each tile row reads its source chunk, then writes it into the tile.
    bases = np.empty(2 * n, dtype=np.int64)
    bases[0::2], bases[1::2] = src_off, dst_off
    sizes = np.repeat(chunk, 2)
    writes = np.zeros(2 * n, dtype=bool)
    writes[1::2] = True
    recorder.record_ranges(bases, sizes, writes)
    return linear_to_tiled(bitmap)


def compositing_trace(
    width: int, height: int, tiled: bool, base: int = 0
) -> "MemoryTrace":
    """The GPU compositor's access stream over one texture, sampled in
    *vertical* order (a rotated/scaled composite -- the access direction
    the paper says texture tiling exists to serve: "compositing accesses
    each texture in both the horizontal and vertical directions").

    The sampler walks 4-texel quads down quad-columns:

    * **linear** layout: the walk follows screen order -- full-height
      quad-columns.  Consecutive samples are ``width * 4`` bytes apart,
      and a fetched 64 B line is only reused three quad-columns later,
      after the whole column of lines (64 B x height) has passed through
      the cache -- far beyond a GPU texture cache, so every quad misses;
    * **tiled** layout: the driver reorganized the texture precisely so
      the rasterizer can process **tile-locally**; the same vertical
      sampling happens 32 rows at a time inside one resident 4 kB tile.
    """
    import numpy as np

    from repro.sim.trace import TraceRecorder

    quad = 4 * BYTES_PER_PIXEL  # a 4-texel sampling quad
    rec = TraceRecorder(granularity=quad)
    pitch = width * BYTES_PER_PIXEL
    cols = (width + TILE_W - 1) // TILE_W
    if tiled:
        tr, tc, xq, y = np.meshgrid(
            np.arange((height + TILE_H - 1) // TILE_H),
            np.arange(cols),
            np.arange(0, TILE_W, 4),
            np.arange(TILE_H),
            indexing="ij",
        )
        offsets = (
            base
            + (tr * cols + tc) * TILE_BYTES
            + y * TILE_W * BYTES_PER_PIXEL
            + xq * BYTES_PER_PIXEL
        ).ravel()
    else:
        xq, y = np.meshgrid(
            np.arange(0, width, 4), np.arange(height), indexing="ij"
        )
        offsets = (base + y * pitch + xq * BYTES_PER_PIXEL).ravel()
    rec.record_ranges(
        offsets,
        np.full(offsets.shape[0], quad, dtype=np.int64),
        np.zeros(offsets.shape[0], dtype=bool),
    )
    return rec.trace()


def profile_texture_tiling(
    width: int, height: int, bytes_per_pixel: int = BYTES_PER_PIXEL
) -> KernelProfile:
    """Analytic profile of tiling one ``width x height`` bitmap.

    Tiling is memcopy plus address swizzling: the per-byte ALU work is the
    tile-coordinate arithmetic (shift/mask per chunk, amortized over
    16-byte moves), and every byte is read once and written once with no
    reuse (streaming).  The swizzled writes vectorize almost fully.
    """
    bytes_moved = float(width * height * bytes_per_pixel)
    return KernelProfile.streaming(
        name="texture_tiling",
        bytes_read=bytes_moved,
        bytes_written=bytes_moved,
        ops_per_byte=0.3,
        instruction_overhead=0.1,
        simd_fraction=0.9,
        notes="linear bitmap -> 4 kB tiles (Section 4.2.2)",
    )
