"""Streaming 2x2 block assembly and L2 normalization.

A block is four cell histograms from a 2x2 cell neighborhood, concatenated
row-major (top-left, top-right, bottom-left, bottom-right) with the nine
bins innermost, then L2-normalized as out = v / sqrt(sum(v^2) + eps^2)
with eps = 1e-3. The epsilon sits inside the square root, so an all-zero
neighborhood maps to the zero vector without a special case.

Blocks overlap with a stride of one cell: a cells_rows x cells_cols grid
yields (cells_rows - 1) x (cells_cols - 1) blocks. Streaming assembly
keeps a ring of one cell row plus one cell; the block at (r-1, c-1) is
emitted the moment cell (r, c) arrives. Cells and blocks carry no
coordinate: each one's row-major position is its count.

Normalization happens in double precision on the dequantized accumulator
values by normalize_grid, which the streaming path calls on a 2x2 grid per
block and the batch path on the whole frame. That one code path keeps the
two element-exactly interchangeable. block_quads owns the block layout
for it and for the golden model.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .fixq import MAG

BLOCK_EPSILON = 1e-3
BLOCK_VALUES = 36


def block_count(cell_cols: int, cell_rows: int) -> int:
    """Overlapping 2x2 blocks in a cell_cols x cell_rows cell grid."""
    return (cell_cols - 1) * (cell_rows - 1)


def block_quads(cells: np.ndarray) -> np.ndarray:
    """Every overlapping 2x2 neighborhood of a (rows, cols, 9) cell grid,
    concatenated tl, tr, bl, br with the bins innermost: the one block
    layout, a (rows - 1, cols - 1, 36) array."""
    return np.concatenate(
        [cells[:-1, :-1], cells[:-1, 1:], cells[1:, :-1], cells[1:, 1:]], axis=2
    )


def normalize_grid(cells: np.ndarray) -> np.ndarray:
    """Every overlapping 2x2 block of a raw (rows, cols, 9) cell grid,
    L2-normalized: a (rows - 1, cols - 1, 36) float64 array."""
    quads = block_quads(cells.astype(np.float64) / MAG.scale)
    denom = np.sqrt(np.sum(np.square(quads), axis=2) + BLOCK_EPSILON * BLOCK_EPSILON)
    return quads / denom[..., None]


class BlockAssembler:
    """Turns a row-major stream of cell bins into a row-major stream of
    normalized blocks, through a ring of cells_cols + 1 cells."""

    def __init__(self, cells_cols: int):
        if cells_cols < 1:
            raise ShapeMismatch("need at least one cell column")
        self.cells_cols = cells_cols
        self._cap = cells_cols + 1
        self._ring: list = [None] * self._cap
        self._next = 0  # cells in so far; the next cell's row-major position

    @property
    def buffered_cells(self) -> int:
        """Live cells held: at most one cell row plus one."""
        return min(self._next, self._cap)

    def add(self, bins: list[int]) -> np.ndarray | None:
        """Take the next cell's nine raw bins; returns the 36 normalized
        values of the block it completes, else None."""
        n, cols, cap, ring = self._next, self.cells_cols, self._cap, self._ring
        self._next += 1
        out = None
        if n > cols and n % cols:
            # slot n % cap still holds cell n - cols - 1, the top-left
            tl, tr, bl = ring[n % cap], ring[(n - cols) % cap], ring[(n - 1) % cap]
            grid = np.array([[tl, tr], [bl, bins]], dtype=np.int64)
            out = normalize_grid(grid)[0, 0]
        ring[n % cap] = bins
        return out


@dataclass(frozen=True)
class HogFrame:
    """Full-frame feature output.

    cells holds the raw integer bin accumulators, one histogram per 8x8
    cell; blocks holds the normalized descriptors, block (r, c) built from
    cells (r, c), (r, c+1), (r+1, c), (r+1, c+1).
    """

    cells: np.ndarray  # int64, (cell_rows, cell_cols, 9) raw accumulators
    blocks: np.ndarray  # float64, (cell_rows - 1, cell_cols - 1, 36)

    def cell_values(self) -> np.ndarray:
        """Cell accumulators dequantized to real magnitude units."""
        return self.cells.astype(np.float64) / MAG.scale
