"""Sliding-window linear scoring over a block feature map.

The detection window is 64x128 pixels: 8x16 cells, so 7x15 overlapping
blocks and 7*15*36 = 3780 features. A window's feature vector reads its
block region row-major with the 36 descriptor values innermost, matching
the layout of HogFrame.blocks, and the score is a plain dot product plus
bias. Windows slide on the cell grid; no non-maximum suppression.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK_VALUES
from .cells import CELL_SIZE
from .errors import CountMismatch, FormatError, OutOfBoundsError

WINDOW_CELL_COLS = 8
WINDOW_CELL_ROWS = 16

_MAGIC = "hog-svm"
_VERSION = "v1"


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray  # float64, (cols-1)*(rows-1)*36 entries
    bias: float = 0.0
    threshold: float = 0.0
    window_cell_cols: int = WINDOW_CELL_COLS
    window_cell_rows: int = WINDOW_CELL_ROWS

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        object.__setattr__(self, "weights", w)
        expect = self.feature_count
        if w.size != expect:
            raise CountMismatch(
                f"window of {self.window_cell_cols}x{self.window_cell_rows} cells "
                f"needs {expect} weights, got {w.size}"
            )

    @property
    def feature_count(self) -> int:
        return (
            (self.window_cell_cols - 1)
            * (self.window_cell_rows - 1)
            * BLOCK_VALUES
        )


@dataclass(frozen=True)
class Detection:
    x: int  # top-left pixel of the window
    y: int
    score: float


def score_window(frame, cell_x: int, cell_y: int, model: SvmModel) -> float:
    """Score one window whose top-left cell is (cell_x, cell_y)."""
    blocks = frame.blocks
    bw = model.window_cell_cols - 1
    bh = model.window_cell_rows - 1
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
    cell_rows, cell_cols = blocks.shape[0] + 1, blocks.shape[1] + 1
    out = []
    for cy in range(0, cell_rows - model.window_cell_rows + 1, stride_cells):
        for cx in range(0, cell_cols - model.window_cell_cols + 1, stride_cells):
            s = score_window(frame, cx, cy, model)
            if s > model.threshold:
                out.append(Detection(cx * CELL_SIZE, cy * CELL_SIZE, s))
    out.sort(key=lambda d: (-d.score, d.y, d.x))
    return out


def save_model(model: SvmModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{_MAGIC} {_VERSION} {model.weights.size}\n")
        for w in model.weights:
            # repr of a python float roundtrips exactly
            f.write(f"{float(w)!r}\n")
        f.write(f"bias {float(model.bias)!r}\n")
        f.write(f"threshold {float(model.threshold)!r}\n")


def load_model(path) -> SvmModel:
    """Read the text weight format: a `hog-svm v1 <n>` header, one weight
    per line, then `bias <b>` and `threshold <t>` trailers. Weights and
    bias must be finite and the threshold not NaN, since a NaN score
    would silently fail every threshold test."""
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
    if not (np.isfinite(weights).all() and math.isfinite(bias)):
        raise FormatError("weights and bias must be finite")
    if math.isnan(threshold):
        raise FormatError("threshold is NaN")
    return SvmModel(weights=weights, bias=bias, threshold=threshold)


def _trailer(line: str, name: str) -> float:
    parts = line.split()
    if len(parts) != 2 or parts[0] != name:
        raise FormatError(f"expected `{name} <value>`, got {line!r}")
    try:
        return float(parts[1])
    except ValueError:
        raise FormatError(f"malformed {name}: {parts[1]!r}") from None
