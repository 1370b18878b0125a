"""Streaming central-difference gradient stage.

Models the first hardware stage: pixels arrive one per step in row-major
order and pass through two row buffers plus a 3x3 window, 2*width + 3 live
pixels. After a warm-up of one full row plus two pixels the stage emits
exactly one (gx, gy) pair of plain ints per step, as a hardware stage hands
on its two registers; the pair belongs to the pixel one row and two columns
behind the stream head. Pairs come out in row-major order, so a pair's
position is its emission count.

gx = I(r, c+1) - I(r, c-1) and gy = I(r+1, c) - I(r-1, c), coordinates
clamped to the frame (replicate-edge border). After the last pixel,
drain() flushes the tail, one pair per step: a W x H frame yields W*H
pairs over W*H + latency steps. A bool, or a pixel that is not an integer
in LUMA's 0..255, is refused with LayoutError, as luma8 refuses a frame,
and one past the frame's W*H with DimensionError.

The stage is a generator coroutine (PEP 342): one loop over pair rows, in
which send n hands out pair divmod(n - warmup_steps(W), W), so the warm-up
is rows -2 and -1, whose pairs are None. It keeps three row lists: the row
above the pair, the pair's own row, and a head that fills with the row
below, then two pixels of the row after. A row is whole before its first
pair, so its gx are one difference of the edge-replicated row; a step
checks its pixel inline, stores it in the head and takes gy from the rows
above and below (the row itself at the top and bottom edges). Anything but
an exact int in range within the frame goes to _pixel, which refuses it or
passes drain's flush as a 0 that no pair reads. The one count is the step,
the sends taken: the row's first step plus its column, read from the
suspended frame. push_pixel is a Port: on a stage it is the coroutine's
send, so a pixel costs no Python frame but the coroutine's; on the class it
is a plain (stage, pixel) callable that a tracer can wrap. A refused pixel,
or anything else raised out of a step, restarts the coroutine on the kept
rows and step count, then raises, so a port read before the error is spent.

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
        self._total = width * height
        # the row above the next pair, its own row, and the head: the row below + 2
        self._rows = [0] * width, [0] * width, [0] * (width + 2)
        self._start(0)

    def _start(self, step: int) -> None:
        self._gen = self._run(step)
        self._send = self._gen.send
        next(self._gen)

    @property
    def steps(self) -> int:
        """Sends taken, pixels and flushes: _run's step (its row's first) plus its column c."""
        frame = getgeneratorlocals(self._gen)
        return frame["step"] + frame["c"]

    # pixels in so far, one step each, and pairs out so far, the next pair's position
    pushed = property(lambda self: min(self.steps, self._total))
    emitted = property(lambda self: max(self.steps - warmup_steps(self.width), 0))

    @property
    def buffered_pixels(self) -> int:
        """Live pixels of the hardware window: at most two rows plus the window constant."""
        return min(self.pushed, 2 * self.width + 3)

    def _pixel(self, px, step: int) -> int:
        """The inline check's slow path: drain's flush as a 0, else px if an integer in
        LUMA's range, not a bool (else LayoutError), within the frame (else DimensionError)."""
        if px is _FLUSH:
            return 0
        try:
            luma = -1 if px.__class__ is bool else operator.index(px)
        except TypeError:
            luma = -1  # not an integer
        if not 0 <= luma <= _LUMA_MAX:
            raise LayoutError(f"luma must hold 8-bit values 0..{_LUMA_MAX}, got {px!r}")
        if step >= (total := self._total):
            raise DimensionError(f"pixel {total + 1} is past the end of a {total}-pixel frame")
        return luma

    def _run(self, step: int):  # step and c: read by name in steps
        w, total, last_row = self.width, self._total, self.height - 1
        up, row, head = self._rows
        r, c = divmod(step - warmup_steps(w), w)  # the next pair; rows -2 and -1 warm up
        step, out = step - c, None  # step: the first step of pair row r
        try:
            while True:
                p = [row[0], *row, row[-1]]  # the whole row is in: its gx at once
                gx = list(map(operator.sub, p[2:], p))
                above, below, warm = up if r else row, head if r < last_row else row, r >= 0
                for c in range(c, w):
                    px = yield out
                    if px.__class__ is not int or not 0 <= px <= _LUMA_MAX or step + c >= total:
                        px = self._pixel(px, step + c)
                    head[c + 2] = px
                    out = (gx[c], below[c] - above[c]) if warm else None
                self._rows = up, row, head = row, head[:w], head[w:] + up
                r, c, step = r + 1, 0, step + w
        except (Exception, KeyboardInterrupt):  # refused or interrupted: go on from here
            self._start(step + c)
            raise

    def drain(self) -> Iterator[tuple[int, int]]:
        """Flush steps after the frame's last pixel; one emission per step."""
        if self.pushed != self._total:
            raise DimensionError(f"drain after {self.pushed} pixels, frame has {self._total}")
        for _ in range(self._total - self.emitted):
            yield self._send(_FLUSH)
