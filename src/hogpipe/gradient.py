"""Streaming central-difference gradient stage.

Models the first hardware stage: pixels arrive one per step in row-major
order and pass through two row buffers plus a 3x3 window, realized here as
a single ring holding the last 2*width + 3 pixels (the same storage, one
array). After a warm-up of one full row plus two pixels the stage emits
exactly one (gx, gy) pair of plain ints per step, as a hardware stage hands
on its two registers; the pair belongs to the pixel one row and two columns
behind the stream head, so every neighbor it needs (including the pixel
directly below) is already buffered. Pairs come out in row-major order, so
a pair's position is its emission count; it carries no coordinate.

Differences are gx = I(r, c+1) - I(r, c-1) and gy = I(r+1, c) - I(r-1, c)
with coordinates clamped to the frame (replicate-edge border policy). After
the last pixel of a frame, drain() runs the remaining warm-up's worth of
steps to flush the tail; a W x H frame yields exactly W*H pairs over
W*H + latency steps. A bool, or a pixel that is not an integer in LUMA's
0..255, is refused with LayoutError, as luma8 refuses a whole frame, and
one past the frame's W*H with DimensionError, as drain refuses a short one.

warmup_steps is the one latency formula and frame_gradients the one array
difference (on pad_frame's output); the vectorized and golden paths use them.
"""

import operator
from typing import Iterator, Optional

import numpy as np

from .errors import DimensionError, LayoutError
from .fixq import LUMA

_LUMA_MAX = LUMA.raw_max  # bound once: push_pixel checks every pixel against it


def warmup_steps(width: int) -> int:
    """Steps before the first emission: one row plus two pixels."""
    return width + 2


def luma8(luma) -> np.ndarray:
    """The frame as an array, if uint8 (not scanned) or integers in LUMA's
    range; else LayoutError. Every gradient then lies within +-LUMA.raw_max."""
    luma = np.asarray(luma)
    if luma.dtype != np.uint8 and not (
        luma.dtype.kind in "iu" and (luma.size == 0 or 0 <= luma.min() <= luma.max() <= _LUMA_MAX)
    ):
        raise LayoutError(f"luma must hold 8-bit values 0..{_LUMA_MAX}, got {luma.dtype}")
    return luma


def pad_frame(luma: np.ndarray, out: np.ndarray) -> None:
    """Copy the frame into out, one pixel larger per side, replicating edges."""
    out[1:-1, 1:-1] = luma
    out[0], out[-1] = out[1], out[-2]
    out[:, 0], out[:, -1] = out[:, 1], out[:, -2]


def frame_gradients(padded: np.ndarray, top: int, gx: np.ndarray, gy: np.ndarray) -> None:
    """(gx, gy) of the frame's rows from `top` on, into gx and gy; reads pad_frame's out."""
    p = padded[top : top + gx.shape[0] + 2]
    np.subtract(p[1:-1, 2:], p[1:-1, :-2], out=gx)
    np.subtract(p[2:, 1:-1], p[:-2, 1:-1], out=gy)


class GradientStage:
    def __init__(self, width: int, height: int):
        if width < 3 or height < 3:
            raise DimensionError("gradient window needs a frame of at least 3x3")
        self.width = width
        self.height = height
        self._cap = 2 * width + 3
        self._ring = [0] * self._cap
        self._latency = warmup_steps(width)
        self._total = width * height
        self.pushed = 0  # pixels in so far, one step each
        self.emitted = 0  # pairs out so far; the next pair's row-major position

    @property
    def buffered_pixels(self) -> int:
        """Live pixels held: at most two rows plus the window constant."""
        return min(self.pushed, self._cap)

    def _emit(self) -> tuple[int, int]:
        w, cap, ring = self.width, self._cap, self._ring
        m = self.emitted
        r, c = divmod(m, w)
        here = ring[m % cap]
        left = ring[(m - 1) % cap] if c > 0 else here
        right = ring[(m + 1) % cap] if c < w - 1 else here
        up = ring[(m - w) % cap] if r > 0 else here
        down = ring[(m + w) % cap] if r < self.height - 1 else here
        self.emitted += 1
        return right - left, down - up

    def push_pixel(self, luma: int) -> Optional[tuple[int, int]]:
        """One stream step. Returns (gx, gy) once warm-up has passed, else None."""
        try:
            px = operator.index(luma)
        except TypeError:
            px = -1  # not an integer
        if not 0 <= px <= _LUMA_MAX or luma is True or luma is False:
            raise LayoutError(f"luma must hold 8-bit values 0..{_LUMA_MAX}, got {luma!r}")
        n = self.pushed
        if n == self._total:
            raise DimensionError(f"pixel {n + 1} is past the end of a {n}-pixel frame")
        self._ring[n % self._cap] = px
        self.pushed = n = n + 1
        if n > self._latency:
            return self._emit()
        return None

    def drain(self) -> Iterator[tuple[int, int]]:
        """Flush steps after the frame's last pixel; one emission per step."""
        if self.pushed != self._total:
            raise DimensionError(f"drain after {self.pushed} pixels, frame has {self._total}")
        while self.emitted < self._total:
            yield self._emit()
