"""Streaming 8x8 cell histogram accumulation.

Votes arrive in pixel row-major order, each a (low bin, packed weight)
pair read from voting.vote_table; a vote's pixel position is its
sequence number. One partial histogram per cell column is enough state
for the whole frame: a cell's 64 pixels span eight consecutive row
segments, so only the cells of the current cell-row are ever partially
filled. The vote for a cell's last pixel (local (7, 7)) closes it: its
nine totals are split into their low and high sides, each high side
added one bin up, and the nine bins handed on as a plain list of ints;
a fresh partial takes the cell's place for the cell below. Cells come
out in row-major order, so a cell's position is its emission count.

CellAccumulator is a generator coroutine whose loops are the scan's
counters; accumulate is its gradient.Port, the coroutine's send on a
stage and a plain (stage, vote) callable on the class. A malformed vote
is not counted: the stage goes on in a new coroutine from the same vote.

Bins are CELL_ACC accumulators, MAG widened by the bits of a cell's vote
count (16.6 at the defaults); the polar table build checks that a full
cell of the peak magnitude fits. CELL_SIZE comes from fixq, next to the
CELL_ACC headroom it sizes. frame_votes is the one array vote gather, for
the vectorized and golden paths; as line buffers do, it works in strips
of cell rows, in one workspace per frame shape. It keys each pixel's vote
by its low bin, as the table does: add_votes bincounts a strip's packed
fixed weights once, splits the totals into their low and high sides and
adds the high side one bin up (8 wraps to 0) with voting.fold_sides, as
the cell close does.
"""

from functools import lru_cache

import numpy as np

from .cordic import GRID_SIDE, grid_index
from .errors import DimensionError
from .fixq import CELL_SIZE
from .gradient import Port, frame_gradients, pad_frame
from .voting import BIN_COUNT, VoteTable, fold_sides, split_packed

STRIP_CELL_ROWS = 8  # cell rows per frame_votes strip: 64 pixel rows


def cells_per_frame(width: int, height: int) -> tuple[int, int]:
    """Cell grid (cols, rows) for a frame; dimensions must divide by 8."""
    if width % CELL_SIZE or height % CELL_SIZE:
        raise DimensionError(
            f"{width}x{height} is not a multiple of the {CELL_SIZE}-pixel cell size"
        )
    if width == 0 or height == 0:
        raise DimensionError("empty frame")
    return width // CELL_SIZE, height // CELL_SIZE


@lru_cache(maxsize=4)  # one instance per frame shape
class _Workspace:
    """One frame shape's padded frame and, for one strip, buffers a pixel each."""

    def __init__(self, h: int, w: int):
        n = min(h, STRIP_CELL_ROWS * CELL_SIZE) * w
        self.padded = np.empty((h + 2, w + 2), dtype=np.int16)
        self.flat, self.keys = np.empty((2, n // w, w), dtype=np.intp)
        r = np.arange(n // w, dtype=np.int32)[:, None] // CELL_SIZE * (w // CELL_SIZE)
        self.base = ((r + np.arange(w, dtype=np.int32) // CELL_SIZE) * BIN_COUNT).ravel()
        self.bins = np.empty(n, np.int8)
        # one row per row of a table's weights: the fixed path gathers one, the golden two
        self.weights = np.empty((2, n))


def frame_votes(luma: np.ndarray, table: VoteTable):
    """Per strip of STRIP_CELL_ROWS cell rows, yield (rows, keys, *gathered):
    the strip's cell rows, each pixel's key at its low bin in that slice of
    a (rows, cols, 9) grid, and its float64 weight from each row of the
    table's weights. Views into the shape's shared workspace: consume each
    first; not thread-safe."""
    h, w = luma.shape  # cells_per_frame(w, h) checked by the caller
    ws = _Workspace(h, w)
    pad_frame(luma, ws.padded)
    for top in range(0, h // CELL_SIZE, STRIP_CELL_ROWS):
        rows = slice(top, min(top + STRIP_CELL_ROWS, h // CELL_SIZE))
        n = (rows.stop - top) * CELL_SIZE * w
        gx, gy = ws.flat[: n // w], ws.keys[: n // w]
        frame_gradients(ws.padded, top * CELL_SIZE, gx, gy)
        # grid_index is linear: gx * GRID_SIDE + gy + grid_index(0, 0)
        np.add(np.multiply(gx, GRID_SIDE, out=gx), gy, out=gx)
        flat = np.add(gx, grid_index(0, 0), out=gx).ravel()
        keys = ws.keys.reshape(-1)[:n]
        # flat is in range; raise mode would take through a temporary
        np.add(ws.base[:n], np.take(table.lo_bin, flat, out=ws.bins[:n], mode="clip"), out=keys)
        yield rows, keys, *(
            np.take(weights, flat, out=buf[:n], mode="clip")
            for weights, buf in zip(table.weights, ws.weights)
        )


def strip_totals(strip: np.ndarray, keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-key weight totals of one frame_votes strip, shaped like strip."""
    return np.bincount(keys, weights, strip.size).reshape(strip.shape)


def add_votes(cells: np.ndarray, rows: slice, keys: np.ndarray, packed: np.ndarray) -> None:
    """Add one frame_votes strip of packed fixed weights into cells[rows]:
    a key's low-side total at its bin, its high-side total one bin up."""
    strip = cells[rows]
    totals = fold_sides(*split_packed(strip_totals(strip, keys, packed)))
    np.add(strip, totals, out=strip, casting="unsafe")


class CellAccumulator:
    """One cell-row ring of partial histograms (width/8 entries)."""

    accumulate = Port()  # a (lo_bin, packed) vote in; a closed cell's bins out, else None

    def __init__(self, width: int, height: int):
        cols, _ = cells_per_frame(width, height)
        self._partials = [[0] * BIN_COUNT for _ in range(cols)]  # partial bin sums per cell column
        self._start(0, 0, 0)

    def _start(self, y: int, col: int, k: int) -> None:
        self._send = self._run(y, col, k).send
        self._send(None)  # run it to its first yield

    @property
    def partial_count(self) -> int:
        return len(self._partials)

    def _run(self, y: int, col: int, k: int):  # the next vote's pixel row, cell and pixel in it
        partials, out = self._partials, None
        try:
            while True:  # a cell row
                for y in range(y, CELL_SIZE):  # a pixel row of it
                    for col in range(col, len(partials)):  # one cell's 8 pixels of that row
                        totals = partials[col]
                        for k in range(k, CELL_SIZE):
                            lo_bin, packed = yield out
                            totals[lo_bin] += packed
                            out = None
                        if y == CELL_SIZE - 1:  # that vote closed the cell; out on its send
                            partials[col] = [0] * BIN_COUNT
                            bins = fold_sides(*split_packed(np.array(totals)))
                            out = bins.astype(np.int64).tolist()
                        k = 0
                    col = 0
                y = 0
        except (Exception, KeyboardInterrupt):  # a malformed vote, uncounted: go on from it
            self._start(y, col, k)
            raise
