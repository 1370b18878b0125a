"""Streaming 2x2 block assembly and L2 normalization.

A block is four cell histograms from a 2x2 cell neighborhood, concatenated
row-major (top-left, top-right, bottom-left, bottom-right) with the nine
bins innermost, then L2-normalized as out = v / sqrt(sum(v^2) + eps^2)
with eps = 1e-3. The epsilon sits inside the square root, so an all-zero
neighborhood maps to the zero vector without a special case.

Blocks overlap with a stride of one cell: block_grid is the one shape of
the blocks of a cell grid, (rows - 1, cols - 1). Streaming assembly
keeps a ring of one cell row plus one cell; the block at (r-1, c-1) is
emitted the moment cell (r, c) arrives. Cells and blocks carry no
coordinate: each one's row-major position is its count.

Every path squares each cell once, as a hardware block stage does, and
sums a block's four per-cell square sums; dequantize (raw cells to values)
and block_norm (the divisor) take a Python number or an array.
normalize_blocks divides arrays; BlockAssembler keeps plain floats, so a
cell costs no small-array call but block_norm's. A raw cell is below
CELL_ACC.raw_max < 2**22, so its value's square is a multiple of 2**-12
below 2**32 and a block's sum of 36 is one below 2**38: 50 bits, exact in
float64 in any order. sqrt and / are correctly rounded in numpy and Python
alike, so streamed and batch blocks agree element-exactly. block_corners
owns the block layout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .fixq import MAG
from .voting import BIN_COUNT

BLOCK_EPSILON = 1e-3
BLOCK_VALUES = 4 * BIN_COUNT  # the bins of a block's 2x2 cells
_SCALE = MAG.scale  # bound once: BlockAssembler.add converts each bin alone


def block_grid(cell_rows: int, cell_cols: int) -> tuple[int, int]:
    """(rows, cols) of the overlapping 2x2 blocks of a cell grid."""
    return cell_rows - 1, cell_cols - 1


def block_corners(cells: np.ndarray) -> tuple:
    """The four views of a (rows, cols, ...) cell grid whose entry (r, c) is
    a corner of block (r, c), in the one block layout's order: tl, tr, bl, br."""
    return cells[:-1, :-1], cells[:-1, 1:], cells[1:, :-1], cells[1:, 1:]


def dequantize(raw):
    """Raw cell accumulators in real magnitude units; an int or an int array."""
    return raw / _SCALE


def block_norm(square_sums):
    """The divisor of blocks with these square sums, a float or an array."""
    return np.sqrt(square_sums + BLOCK_EPSILON * BLOCK_EPSILON)


def normalize_blocks(values: np.ndarray, square_sums: np.ndarray) -> np.ndarray:
    """Every overlapping 2x2 block of a (rows, cols, 9) grid of cell values,
    divided by its norm from the (rows - 1, cols - 1) block square sums, in
    place in the one output copy: a (rows - 1, cols - 1, 36) float64 array."""
    blocks = np.concatenate(block_corners(values), axis=-1)
    blocks /= block_norm(square_sums)[..., None]
    return blocks


def normalize_grid(cells: np.ndarray) -> np.ndarray:
    """Every overlapping 2x2 block of a raw (rows, cols, 9) cell grid,
    L2-normalized: a (rows - 1, cols - 1, 36) float64 array."""
    values = dequantize(cells)
    squares = np.einsum("...i,...i", values, values)
    return normalize_blocks(values, sum(block_corners(squares)))


class BlockAssembler:
    """Turns a row-major stream of cell bins into a row-major stream of
    normalized blocks through a ring of cells_cols + 1 (floats, square sum) cells."""

    def __init__(self, cells_cols: int):
        if cells_cols < 1:
            raise DimensionError("need at least one cell column")
        self.cells_cols = cells_cols
        self._cap = cells_cols + 1
        self._ring: list = [None] * self._cap
        self._next = 0  # cells in so far; the next cell's row-major position

    @property
    def buffered_cells(self) -> int:
        """Live cells held: at most one cell row plus one."""
        return min(self._next, self._cap)

    def add(self, bins: list[int]) -> list[float] | None:
        """Take the next cell's nine raw bins; returns the 36 normalized
        values of the block it completes, as a list of floats, else None."""
        n, cols, cap, ring = self._next, self.cells_cols, self._cap, self._ring
        self._next += 1
        values = list(map(dequantize, bins))
        tl = ring[n % cap]  # cell n - cols - 1, the top-left of a block
        ring[n % cap] = br = values, sum([v * v for v in values])  # squared once, as it closes
        if n > cols and n % cols:
            tr, bl = ring[(n - cols) % cap], ring[(n - 1) % cap]
            norm = float(block_norm(tl[1] + tr[1] + bl[1] + br[1]))  # float / float, not numpy's
            return [v / norm for v in tl[0] + tr[0] + bl[0] + values]
        return None


@dataclass(frozen=True)
class HogFrame:
    """Full-frame feature output.

    cells holds the raw integer bin accumulators, one histogram per 8x8
    cell; blocks holds the normalized descriptors, block (r, c) built from
    cells (r, c), (r, c+1), (r+1, c), (r+1, c+1).
    """

    cells: np.ndarray  # int64, (cell_rows, cell_cols, 9) raw accumulators
    blocks: np.ndarray  # float64, (cell_rows - 1, cell_cols - 1, 36)
