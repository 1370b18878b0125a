"""Streaming central-difference gradient stage.

Models the first hardware stage: pixels arrive one per step in row-major
order and pass through two row buffers plus a 3x3 window, realized here as
a single ring holding the last 2*width + 3 pixels. After a warm-up of one
full row plus two pixels the stage emits exactly one (gx, gy) pair of plain
ints per step, as a hardware stage hands on its two registers; the pair
belongs to the pixel one row and two columns behind the stream head, so
every neighbor it needs is already buffered. Pairs come out in row-major
order, so a pair's position is its emission count.

gx = I(r, c+1) - I(r, c-1) and gy = I(r+1, c) - I(r-1, c), coordinates
clamped to the frame (replicate-edge border). After the last pixel,
drain() flushes the tail, one pair per step: a W x H frame yields W*H
pairs over W*H + latency steps. A bool, or a pixel that is not an integer
in LUMA's 0..255, is refused with LayoutError, as luma8 refuses a frame,
and one past the frame's W*H with DimensionError. A pixel of class exactly
int needs only the range check; any other goes through operator.index.

The stage is a generator coroutine (PEP 342) that keeps its ring and one
step count, the sends taken, in locals, as a hardware stage keeps registers.
In rows 0..H-3 every step takes a pixel: there, once column 0 has opened
the row, its ring offsets are set once and columns 1..W-1 run as one loop
with no counter, modulo or border test, the step count being the row's
first step plus the column. The warm-up, column 0, the last two rows (where
drain's steps arrive) and a restart mid-row take a per-step body.
push_pixel is a Port: on a stage it is the coroutine's send, so a pixel
costs no Python frame but the coroutine's; on the class it is a plain
(stage, pixel) callable that a tracer can wrap. A refused pixel, or
anything else raised out of a step, restarts the coroutine on the kept
ring and step count, then raises, so a port read from the stage before the
error is spent.

warmup_steps is the one latency formula and frame_gradients the one array
difference (on pad_frame's output); the vectorized and golden paths use them.
"""

import operator
from inspect import getgeneratorlocals
from typing import Iterator

import numpy as np

from .errors import DimensionError, LayoutError
from .fixq import LUMA

_LUMA_MAX = LUMA.raw_max  # bound once: the stage checks every pixel against it


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


def _pixel(luma) -> int:
    """luma as a pixel: an integer in LUMA's range, not a bool; else LayoutError."""
    try:
        px = -1 if luma.__class__ is bool else operator.index(luma)
    except TypeError:
        px = -1  # not an integer
    if not 0 <= px <= _LUMA_MAX:
        raise LayoutError(f"luma must hold 8-bit values 0..{_LUMA_MAX}, got {luma!r}")
    return px


class Port:
    """A coroutine stage's input. Read on a stage, it is the stage
    coroutine's send; read on the class, it is itself, a plain
    (stage, item) callable that a tracer or monkeypatch can wrap.

    An error out of a send ends that coroutine, and the stage goes on in a
    new one, so read the port again after an error: the spent send raises
    StopIteration, which map and for take as the end of their input."""

    def __get__(self, stage, cls=None):
        return self if stage is None else stage._send

    def __call__(self, stage, item):
        return stage._send(item)


_FLUSH = object()  # drain's step: the next pair out, no pixel in


class GradientStage:
    push_pixel = Port()  # a pixel in; its step's (gx, gy) out once warm, else None

    def __init__(self, width: int, height: int):
        if width < 3 or height < 3:
            raise DimensionError("gradient window needs a frame of at least 3x3")
        self.width = width
        self.height = height
        self._ring = [0] * (2 * width + 3)
        self._total = width * height
        self._start(0)

    def _start(self, step: int) -> None:
        self._gen = self._run(step)
        self._send = self._gen.send
        next(self._gen)

    @property
    def _steps(self) -> int:
        """Sends taken: _run's step (a whole row's first step) plus its column c."""
        frame = getgeneratorlocals(self._gen)
        return frame["step"] + frame["c"]

    # pixels in so far, one step each, and pairs out so far, the next pair's position
    pushed = property(lambda self: min(self._steps, self._total))
    emitted = property(lambda self: max(self._steps - warmup_steps(self.width), 0))

    @property
    def buffered_pixels(self) -> int:
        """Live pixels held: at most two rows plus the window constant."""
        return min(self.pushed, len(self._ring))

    def _run(self, step: int):  # step and c: read by name in _steps
        w, ring, total = self.width, self._ring, self._total
        cap, latency, last_row, last_col = len(ring), warmup_steps(w), self.height - 1, w - 1
        c, out = 0, None
        try:
            while True:
                e = step - latency  # this step's pair, once warm
                r, col = divmod(e, w)
                if col == 1 and 0 <= r < last_row - 1:  # a whole row: every step takes a pixel
                    step, e = step - 1, e - 1  # the row's first step; (r, 0) took the body below
                    # column c's slots: here, store, left, right, down and up at offset + c,
                    # each in -cap..cap-1 for c in 1..W-1, so a negative index wraps once
                    k = e % cap - cap
                    ks, kl, kr, kd = k + latency, k - 1, k + 1, k + w
                    ku = (e - w) % cap - cap if r else k  # row 0: up is here
                    for c in range(1, w):
                        px = yield out
                        if px.__class__ is not int or not 0 <= px <= _LUMA_MAX:
                            px = _pixel(px)  # the full check; an exact int in range needs none
                        ring[ks + c] = px
                        out = ring[kr + c] - ring[kl + c], ring[kd + c] - ring[ku + c]
                    out = ring[k + c] - ring[kl + c], out[1]  # column W - 1: right is here
                    step, c = step + w, 0
                    continue
                px = yield out
                if px is not _FLUSH:
                    if px.__class__ is not int or not 0 <= px <= _LUMA_MAX:
                        px = _pixel(px)
                    if step >= total:
                        raise DimensionError(
                            f"pixel {total + 1} is past the end of a {total}-pixel frame"
                        )
                    ring[step % cap] = px
                step += 1
                if e < 0:
                    continue  # warming up: out is still None
                p = e % cap  # the pair at (r, col); negative indices wrap the ring
                here = ring[p]
                left = ring[p - 1] if col else here
                right = ring[p + 1 - cap] if col < last_col else here
                up = ring[p - w] if r else here
                down = ring[p + w - cap] if r < last_row else here
                out = right - left, down - up
        except (Exception, KeyboardInterrupt):  # refused or interrupted: go on from here
            self._start(step + c)
            raise

    def drain(self) -> Iterator[tuple[int, int]]:
        """Flush steps after the frame's last pixel; one emission per step."""
        if self.pushed != self._total:
            raise DimensionError(f"drain after {self.pushed} pixels, frame has {self._total}")
        for _ in range(self._total - self.emitted):
            yield self._send(_FLUSH)
