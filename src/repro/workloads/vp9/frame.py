"""Video frames.

The codec operates on 8-bit luma frames decomposed into 16x16-pixel
macroblocks (the paper's MC granularity).  Chroma is omitted: every PIM
target in Sections 6-7 is analyzed on the luma path, and carrying 4:2:0
chroma would only rescale the traffic numbers by a constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only; the kernels import NumPy in their bodies
    import numpy as np

#: Macroblock edge length (pixels); motion vectors are per macroblock.
MACROBLOCK = 16


@dataclass
class Frame:
    """One 8-bit grayscale video frame."""

    pixels: np.ndarray  # (h, w) uint8

    def __post_init__(self):
        import numpy as np

        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 2:
            raise ValueError("Frame expects a 2-D (h, w) array")
        if self.pixels.dtype != np.uint8:
            raise ValueError("Frame pixels must be uint8")
        h, w = self.pixels.shape
        if h % MACROBLOCK or w % MACROBLOCK:
            raise ValueError(
                "frame dimensions %dx%d must be multiples of %d" % (w, h, MACROBLOCK)
            )

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def mb_rows(self) -> int:
        return self.height // MACROBLOCK

    @property
    def mb_cols(self) -> int:
        return self.width // MACROBLOCK

    @property
    def num_macroblocks(self) -> int:
        return self.mb_rows * self.mb_cols

    def macroblock(self, row: int, col: int) -> np.ndarray:
        """The (row, col) macroblock as a 16x16 view."""
        if not (0 <= row < self.mb_rows and 0 <= col < self.mb_cols):
            raise IndexError("macroblock (%d, %d) out of range" % (row, col))
        y, x = row * MACROBLOCK, col * MACROBLOCK
        return self.pixels[y : y + MACROBLOCK, x : x + MACROBLOCK]

    def set_macroblock(self, row: int, col: int, block: np.ndarray) -> None:
        y, x = row * MACROBLOCK, col * MACROBLOCK
        self.pixels[y : y + MACROBLOCK, x : x + MACROBLOCK] = block

    def copy(self) -> "Frame":
        return Frame(pixels=self.pixels.copy())

    def psnr(self, other: "Frame") -> float:
        """Peak signal-to-noise ratio against another frame (dB)."""
        import numpy as np

        if self.pixels.shape != other.pixels.shape:
            raise ValueError("frame size mismatch")
        diff = self.pixels.astype(np.float64) - other.pixels.astype(np.float64)
        mse = float(np.mean(diff * diff))
        if mse == 0:
            return float("inf")
        return 10.0 * np.log10(255.0 * 255.0 / mse)

    @staticmethod
    def blank(width: int, height: int, value: int = 128) -> "Frame":
        import numpy as np

        return Frame(pixels=np.full((height, width), value, dtype=np.uint8))


#: Standard resolutions used by the paper's evaluation.
RESOLUTIONS = {
    "HD": (1280, 720),
    "4K": (3840, 2160),
}
