"""Streaming 8x8 cell histogram accumulation.

Votes arrive in pixel row-major order as bare (lo_bin, hi_bin, lo_weight,
hi_weight) ints; a vote's pixel position is its sequence number, which
the accumulator counts. One partial histogram per cell column is enough
state for the whole frame: a cell's 64 pixels span eight consecutive row
segments, so only the cells of the current cell-row are ever partially
filled. When the vote for a cell's last pixel (local position (7, 7))
arrives, the finished cell's nine bins are handed on as a plain list and
a fresh partial takes its place for the cell below; cells come out in
row-major order, so a cell's position is its emission count.

Bins are unsigned accumulators at 6 fractional bits with 16 integer bits
of headroom; 64 maximal magnitudes cannot overflow. frame_votes is the
one whole-frame vote gather, for the vectorized and golden paths.
"""

import numpy as np

from .cordic import grid_index
from .errors import DimensionError
from .gradient import frame_gradients
from .voting import BIN_COUNT, VoteTable

CELL_SIZE = 8


def cells_per_frame(width: int, height: int) -> tuple[int, int]:
    """Cell grid (cols, rows) for a frame; dimensions must divide by 8."""
    if width % CELL_SIZE or height % CELL_SIZE:
        raise DimensionError(
            f"{width}x{height} is not a multiple of the {CELL_SIZE}-pixel cell size"
        )
    if width == 0 or height == 0:
        raise DimensionError("empty frame")
    return width // CELL_SIZE, height // CELL_SIZE


def frame_votes(luma: np.ndarray, table: VoteTable):
    """Yield (keys, weights) of every pixel's low vote, then of its high
    vote: the weight the table holds for the pixel's gradient, keyed by
    the voted bin's flat index in a (rows, cols, 9) cell grid."""
    h, w = luma.shape
    cols, _ = cells_per_frame(w, h)
    flat = grid_index(*frame_gradients(luma)).ravel()
    rows = np.arange(h, dtype=np.int32)[:, None] // CELL_SIZE * cols
    base = ((rows + np.arange(w, dtype=np.int32) // CELL_SIZE) * BIN_COUNT).ravel()
    yield base + table.lo_bin[flat], table.lo_weight[flat]
    yield base + table.hi_bin[flat], table.hi_weight[flat]


class CellAccumulator:
    """One cell-row ring of partial histograms (width/8 entries)."""

    def __init__(self, width: int, height: int):
        cols, _ = cells_per_frame(width, height)
        self.width = width
        # one list of partial bin sums per cell column
        self._partials = [[0] * BIN_COUNT for _ in range(cols)]
        self._next = 0  # sequence number, row-major, of the next vote

    @property
    def partial_count(self) -> int:
        return len(self._partials)

    def accumulate(
        self, lo_bin: int, hi_bin: int, lo_weight: int, hi_weight: int
    ) -> list[int] | None:
        """Fold the next pixel's vote in; returns the finished cell's bins
        on its last pixel, else None. The list is handed over, not copied:
        the accumulator never touches it again."""
        r, c = divmod(self._next, self.width)
        self._next += 1
        col = c // CELL_SIZE
        bins = self._partials[col]
        bins[lo_bin] += lo_weight
        bins[hi_bin] += hi_weight
        if c % CELL_SIZE == CELL_SIZE - 1 and r % CELL_SIZE == CELL_SIZE - 1:
            # this vote closes the cell's last 8-pixel row segment
            self._partials[col] = [0] * BIN_COUNT
            return bins
        return None
