"""Streaming 8x8 cell histogram accumulation.

Votes arrive in pixel row-major order. One partial histogram per cell
column is enough state for the whole frame: a cell's 64 pixels span eight
consecutive row segments, so only the cells of the current cell-row are
ever partially filled. When the vote for a cell's last pixel (local
position (7, 7)) arrives, the finished histogram is emitted and that
partial is zeroed for reuse by the cell below it.

Bins are unsigned accumulators at 6 fractional bits with 16 integer bits
of headroom; 64 maximal magnitudes cannot overflow. cell_bin_base is the
one whole-frame pixel-to-cell index, for the vectorized and golden paths.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OrderError
from .voting import BIN_COUNT, BinVote

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


def cell_bin_base(width: int, height: int) -> np.ndarray:
    """For every pixel in row-major order, the flat index of bin 0 of its
    cell in a (cell_rows, cell_cols, 9) histogram, as int32."""
    cols, _ = cells_per_frame(width, height)
    rows = np.arange(height, dtype=np.int32)[:, None] // CELL_SIZE
    cells = rows * cols + np.arange(width, dtype=np.int32) // CELL_SIZE
    return (cells * BIN_COUNT).ravel()


@dataclass(frozen=True)
class CellHistogram:
    bins: tuple[int, ...]  # 9 raw accumulator values (U16.6)
    cell_row: int
    cell_col: int


class CellAccumulator:
    """One cell-row ring of partial histograms (width/8 entries)."""

    def __init__(self, width: int, height: int):
        cols, _ = cells_per_frame(width, height)
        self.width = width
        # one list of partial bin sums per cell column
        self._partials = [[0] * BIN_COUNT for _ in range(cols)]
        self._next = 0  # expected pixel sequence number

    @property
    def partial_count(self) -> int:
        return len(self._partials)

    def accumulate(self, v: BinVote) -> CellHistogram | None:
        """Fold one vote in; returns the finished histogram on a cell's
        last pixel, else None. Votes must arrive in row-major order."""
        seq = v.row * self.width + v.col
        if seq != self._next:
            raise OrderError(
                f"vote for ({v.row}, {v.col}) out of order, "
                f"expected sequence {self._next}"
            )
        self._next += 1
        col = v.col // CELL_SIZE
        bins = self._partials[col]
        bins[v.lo_bin] += v.lo_weight
        bins[v.hi_bin] += v.hi_weight
        if v.col % CELL_SIZE == CELL_SIZE - 1 and v.row % CELL_SIZE == CELL_SIZE - 1:
            # this vote closes the cell's last 8-pixel row segment
            self._partials[col] = [0] * BIN_COUNT
            return CellHistogram(tuple(bins), v.row // CELL_SIZE, col)
        return None
