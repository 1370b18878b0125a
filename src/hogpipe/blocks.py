"""Streaming 2x2 block assembly and L2 normalization.

A block is four cell histograms from a 2x2 cell neighborhood, concatenated
row-major (top-left, top-right, bottom-left, bottom-right) with the nine
bins innermost, then L2-normalized as out = v / sqrt(sum(v^2) + eps^2)
with eps = 1e-3. The epsilon sits inside the square root, so an all-zero
neighborhood maps to the zero vector without a special case.

Blocks overlap with a stride of one cell: a cells_rows x cells_cols grid
yields (cells_rows - 1) x (cells_cols - 1) blocks. Streaming assembly
buffers exactly one row of cells plus one cell; the block at (r-1, c-1)
is emitted the moment cell (r, c) arrives.

Normalization happens in double precision on the dequantized accumulator
values by normalize_grid, which the streaming path calls on a 2x2 grid per
block and the batch path on the whole frame. That one code path keeps the
two element-exactly interchangeable. block_quads owns the block layout
for it and for the golden model.
"""

from dataclasses import dataclass

import numpy as np

from .cells import CellHistogram
from .errors import OrderError, ShapeMismatch
from .fixq import MAG

BLOCK_EPSILON = 1e-3
BLOCK_VALUES = 36


def block_count(cell_cols: int, cell_rows: int) -> int:
    """Overlapping 2x2 blocks in a cell_cols x cell_rows cell grid."""
    return (cell_cols - 1) * (cell_rows - 1)


@dataclass(frozen=True)
class BlockDescriptor:
    values: np.ndarray  # 36 float64, L2-normalized
    block_row: int
    block_col: int


def normalize_block(
    tl: CellHistogram,
    tr: CellHistogram,
    bl: CellHistogram,
    br: CellHistogram,
    epsilon: float = BLOCK_EPSILON,
) -> BlockDescriptor:
    """Normalize one 2x2 cell neighborhood into a block descriptor."""
    if not (
        tr.cell_row == tl.cell_row
        and bl.cell_row == tl.cell_row + 1
        and br.cell_row == tl.cell_row + 1
        and tr.cell_col == tl.cell_col + 1
        and bl.cell_col == tl.cell_col
        and br.cell_col == tl.cell_col + 1
    ):
        raise ShapeMismatch("cells do not form a 2x2 neighborhood")
    grid = np.array([[tl.bins, tr.bins], [bl.bins, br.bins]], dtype=np.int64)
    return BlockDescriptor(
        normalize_grid(grid, epsilon)[0, 0], tl.cell_row, tl.cell_col
    )


def block_quads(cells: np.ndarray) -> np.ndarray:
    """Every overlapping 2x2 neighborhood of a (rows, cols, 9) cell grid,
    concatenated tl, tr, bl, br with the bins innermost: the one block
    layout, a (rows - 1, cols - 1, 36) array."""
    return np.concatenate(
        [cells[:-1, :-1], cells[:-1, 1:], cells[1:, :-1], cells[1:, 1:]], axis=2
    )


def normalize_grid(cells: np.ndarray, epsilon: float = BLOCK_EPSILON) -> np.ndarray:
    """Every overlapping 2x2 block of a raw (rows, cols, 9) cell grid,
    L2-normalized: a (rows - 1, cols - 1, 36) float64 array."""
    quads = block_quads(cells.astype(np.float64) / MAG.scale)
    denom = np.sqrt(np.sum(np.square(quads), axis=2) + epsilon * epsilon)
    return quads / denom[..., None]


class BlockAssembler:
    """Turns a row-major cell stream into a row-major block stream."""

    def __init__(self, cells_cols: int, epsilon: float = BLOCK_EPSILON):
        if cells_cols < 1:
            raise ShapeMismatch("need at least one cell column")
        self.cells_cols = cells_cols
        self.epsilon = epsilon
        self._prev_row: list[CellHistogram | None] = [None] * cells_cols
        self._prev_cell: CellHistogram | None = None
        self._next = 0  # expected cell sequence number

    @property
    def buffered_cells(self) -> int:
        n = sum(1 for c in self._prev_row if c is not None)
        return n + (1 if self._prev_cell is not None else 0)

    def add(self, cell: CellHistogram) -> BlockDescriptor | None:
        r, c = cell.cell_row, cell.cell_col
        if r * self.cells_cols + c != self._next:
            raise OrderError(
                f"cell ({r}, {c}) out of order, expected sequence {self._next}"
            )
        self._next += 1
        out = None
        if r >= 1 and c >= 1:
            out = normalize_block(
                self._prev_row[c - 1],
                self._prev_row[c],
                self._prev_cell,
                cell,
                self.epsilon,
            )
        if c == 0:
            if self._prev_cell is not None:
                # retire the last cell of the previous row into the row buffer
                self._prev_row[self.cells_cols - 1] = self._prev_cell
        else:
            self._prev_row[c - 1] = self._prev_cell
        self._prev_cell = cell
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
