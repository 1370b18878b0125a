"""Sliding-window linear scoring over a block feature map.

The detection window is 64x128 pixels: 8x16 cells, so 7x15 overlapping
blocks and 7*15*36 = 3780 features. A window's feature vector reads its
block region row-major with the 36 descriptor values innermost, matching
the layout of HogFrame.blocks, and its score is that vector's dot product
with the weights plus bias. Windows slide on the cell grid; no
non-maximum suppression.

score_window computes one window's dot product directly and is the
oracle. detect scores every window at once from the fact that a window's
score is a sum over its 15x7 blocks of block . W[by, bx]: one matrix
product gives every block's dot product with each of the 105 per-block
weight vectors, and 105 shifted slice-adds of those products build the
whole score grid. Identical windows therefore get bit-identical scores,
but the summation order differs from score_window's, so the two agree
to about 1e-14 relative rather than exactly, and a window whose score
lies within a few ulp of the threshold may pass in one and not the other.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .blocks import BLOCK_VALUES, block_grid
from .errors import CountMismatch, FormatError, OutOfBoundsError
from .fixq import CELL_SIZE

WINDOW_CELL_COLS = 8
WINDOW_CELL_ROWS = 16

_MAGIC = "hog-svm"
_VERSION = "v1"


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray  # float64, feature_count entries
    bias: float = 0.0
    threshold: float = 0.0
    window_cell_cols: ClassVar[int] = WINDOW_CELL_COLS
    window_cell_rows: ClassVar[int] = WINDOW_CELL_ROWS

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        object.__setattr__(self, "weights", w)
        # a NaN score would silently fail every threshold test; -inf passes all
        if not (np.isfinite(w).all() and math.isfinite(self.bias)) or math.isnan(self.threshold):
            raise FormatError("weights and bias must be finite and the threshold not NaN")
        expect = self.feature_count
        if w.size != expect:
            raise CountMismatch(
                f"window of {self.window_cell_cols}x{self.window_cell_rows} cells "
                f"needs {expect} weights, got {w.size}"
            )

    @property
    def feature_count(self) -> int:
        return math.prod(block_grid(self.window_cell_rows, self.window_cell_cols)) * BLOCK_VALUES


@dataclass(frozen=True)
class Detection:
    x: int  # top-left pixel of the window
    y: int
    score: float


def score_window(frame, cell_x: int, cell_y: int, model: SvmModel) -> float:
    """Score one window whose top-left cell is (cell_x, cell_y)."""
    blocks = frame.blocks
    bh, bw = block_grid(model.window_cell_rows, model.window_cell_cols)
    rows, cols = blocks.shape[0], blocks.shape[1]
    if cell_x < 0 or cell_y < 0 or cell_x + bw > cols or cell_y + bh > rows:
        raise OutOfBoundsError(
            f"window at cell ({cell_x}, {cell_y}) exceeds the "
            f"{cols}x{rows} block grid"
        )
    feats = blocks[cell_y : cell_y + bh, cell_x : cell_x + bw].ravel()
    return float(feats @ model.weights) + model.bias


def detect(frame, model: SvmModel, stride_cells: int = 1) -> list[Detection]:
    """Score every window position at the given cell stride; return the
    above-threshold ones, best first, (y, x) breaking ties."""
    if stride_cells < 1:
        raise ValueError("stride must be at least one cell")
    blocks = frame.blocks
    rows, cols = blocks.shape[:2]
    bh, bw = block_grid(model.window_cell_rows, model.window_cell_cols)
    ny, nx = rows - bh + 1, cols - bw + 1
    if ny < 1 or nx < 1:
        return []
    # per[by, bx, r, c]: block (r, c) dotted with the window's weights for
    # its block (by, bx); the window at (y, x) sums per[by, bx, y + by, x + bx]
    per = model.weights.reshape(-1, BLOCK_VALUES) @ blocks.reshape(-1, BLOCK_VALUES).T
    per = per.reshape(bh, bw, rows, cols)
    scores = np.zeros((ny, nx))
    for by in range(bh):
        for bx in range(bw):
            scores += per[by, bx, by : by + ny, bx : bx + nx]
    scores = scores[::stride_cells, ::stride_cells] + model.bias
    ys, xs = np.nonzero(scores > model.threshold)
    hit_scores = scores[ys, xs]
    # nonzero is row-major, so a stable sort keeps (y, x) among equal scores
    order = np.argsort(-hit_scores, kind="stable")
    step = stride_cells * CELL_SIZE
    columns = (xs[order] * step).tolist(), (ys[order] * step).tolist(), hit_scores[order].tolist()
    return [Detection(*hit) for hit in zip(*columns)]


def save_model(model: SvmModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{_MAGIC} {_VERSION} {model.weights.size}\n")
        for w in model.weights:
            # repr of a python float roundtrips exactly
            f.write(f"{float(w)!r}\n")
        f.write(f"bias {float(model.bias)!r}\n")
        f.write(f"threshold {float(model.threshold)!r}\n")


def load_model(path) -> SvmModel:
    """Read the text weight format: a `hog-svm v1 <n>` header, one weight per
    line, then `bias <b>` and `threshold <t>` trailers, valued as SvmModel requires."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except UnicodeDecodeError as e:
        raise FormatError(f"model file is not UTF-8 text: {e}") from None
    if not lines:
        raise FormatError("empty model file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != _MAGIC or head[1] != _VERSION:
        raise FormatError(f"bad header: {lines[0]!r}")
    try:
        declared = int(head[2])
    except ValueError:
        raise FormatError(f"bad weight count: {head[2]!r}") from None
    if declared < 0:
        raise FormatError(f"negative weight count: {declared}")
    body = lines[1:]
    if len(body) != declared + 2:
        raise CountMismatch(
            f"header declares {declared} weights, file has {len(body) - 2} "
            "plus trailers"
        )
    try:
        weights = np.array([float(ln) for ln in body[:declared]], dtype=np.float64)
    except ValueError as e:
        raise FormatError(f"malformed weight: {e}") from None
    bias = _trailer(body[declared], "bias")
    threshold = _trailer(body[declared + 1], "threshold")
    return SvmModel(weights=weights, bias=bias, threshold=threshold)


def _trailer(line: str, name: str) -> float:
    parts = line.split()
    if len(parts) != 2 or parts[0] != name:
        raise FormatError(f"expected `{name} <value>`, got {line!r}")
    try:
        return float(parts[1])
    except ValueError:
        raise FormatError(f"malformed {name}: {parts[1]!r}") from None
