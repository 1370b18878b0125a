"""Double-precision whole-frame reference model and the comparator that
measures how far the fixed-point pipeline drifts from it.

The golden model follows every geometry decision of the streaming pipeline
(replicated borders, bin centers at 10 + 20k degrees, 8x8 cells, 2x2
blocks at stride one, epsilon inside the square root) in plain float64,
so a diff against it isolates quantization error. Gradients, cell index
and block layout come from the owners the fixed path also calls.

Accumulation uses exactly-rounded sums (math.fsum) for cell bins and for
block denominators. fsum is order-independent, which makes the vectorized
grouping here bit-identical to a naive per-pixel loop over the same
frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK_EPSILON, BLOCK_VALUES, HogFrame, block_quads
from .cells import cell_bin_base, cells_per_frame
from .errors import ShapeMismatch
from .fixq import MAG
from .gradient import frame_gradients
from .voting import BIN_COUNT


@dataclass(frozen=True)
class GoldenHog:
    cells: np.ndarray  # float64, (cell_rows, cell_cols, 9) real-valued bins
    blocks: np.ndarray  # float64, (cell_rows - 1, cell_cols - 1, 36)


@dataclass(frozen=True)
class DiffReport:
    """Fixed-vs-golden accuracy summary.

    mean_rel_err averages, over blocks, the L1 distance between the two
    descriptors divided by the golden descriptor's L1 mass (floored at
    epsilon so empty blocks do not divide by zero). max_abs_err is the
    worst single descriptor element anywhere in the frame.
    """

    mean_rel_err: float
    max_abs_err: float
    block_count: int
    per_stage: dict[str, float] | None = None

    def as_text(self) -> str:
        lines = [
            f"blocks={self.block_count}",
            f"mean_rel_err={self.mean_rel_err:.9g}",
            f"max_abs_err={self.max_abs_err:.9g}",
        ]
        if self.per_stage:
            for name in sorted(self.per_stage):
                lines.append(f"{name}={self.per_stage[name]:.9g}")
        return "\n".join(lines)


def golden_polar(
    gx: np.ndarray, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact magnitude and orientation folded to [0, 180) degrees."""
    mag = np.sqrt((gx * gx + gy * gy).astype(np.float64))
    ang = np.degrees(np.arctan2(gy.astype(np.float64), gx.astype(np.float64)))
    ang = np.where(ang < 0.0, ang + 180.0, ang)
    ang = np.where(ang == 180.0, 0.0, ang)
    return mag, ang


def golden_hog(luma: np.ndarray, epsilon: float = BLOCK_EPSILON) -> GoldenHog:
    luma = np.asarray(luma)
    h, w = luma.shape
    cc, cr = cells_per_frame(w, h)

    gx, gy = frame_gradients(luma)
    mag, ang = golden_polar(gx, gy)

    # real-valued center-interpolated votes
    t = ((ang - 10.0) % 180.0) / 20.0
    t_floor = np.floor(t)
    hi_w = mag * (t - t_floor)
    lo_w = mag - hi_w
    lo_bin = t_floor.astype(np.int64) % BIN_COUNT
    hi_bin = (lo_bin + 1) % BIN_COUNT

    # group votes by (cell, bin) and reduce each group with fsum so the
    # result does not depend on traversal order
    base = cell_bin_base(w, h)
    keys = np.concatenate([base + lo_bin.ravel(), base + hi_bin.ravel()])
    weights = np.concatenate([lo_w.ravel(), hi_w.ravel()])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    weights = weights[order]
    bounds = np.searchsorted(keys, np.arange(cr * cc * BIN_COUNT + 1))

    cells = np.empty(cr * cc * BIN_COUNT, dtype=np.float64)
    wl = weights.tolist()
    for k in range(cells.size):
        cells[k] = math.fsum(wl[bounds[k] : bounds[k + 1]])
    cells = cells.reshape(cr, cc, BIN_COUNT)

    quads = block_quads(cells)
    blocks = np.empty_like(quads)
    eps_sq = epsilon * epsilon
    for i in range(quads.shape[0]):
        for j in range(quads.shape[1]):
            v = quads[i, j]
            denom = math.sqrt(math.fsum((v * v).tolist()) + eps_sq)
            blocks[i, j] = v / denom
    return GoldenHog(cells=cells, blocks=blocks)


def _block_tensor(x) -> np.ndarray:
    b = getattr(x, "blocks", x)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim < 1 or b.shape[-1] != BLOCK_VALUES:
        raise ShapeMismatch(f"not a block tensor: shape {b.shape}")
    return b.reshape(-1, BLOCK_VALUES)


def _cell_values(x) -> np.ndarray | None:
    c = getattr(x, "cells", None)
    if c is None:
        return None
    c = np.asarray(c)
    if c.dtype.kind in "iu":
        # raw fixed-point accumulators
        return c.astype(np.float64) / MAG.scale
    return c.astype(np.float64)


def compare(
    fixed: HogFrame | GoldenHog | np.ndarray,
    gold: GoldenHog | HogFrame | np.ndarray,
    epsilon: float = BLOCK_EPSILON,
    per_stage: bool = False,
) -> DiffReport:
    """Blockwise diff of two feature frames (or bare block tensors)."""
    fb = _block_tensor(fixed)
    gb = _block_tensor(gold)
    if fb.shape != gb.shape:
        raise ShapeMismatch(f"block shapes differ: {fb.shape} vs {gb.shape}")
    if fb.shape[0] == 0:
        return DiffReport(0.0, 0.0, 0)
    diff = np.abs(fb - gb)
    rel = diff.sum(axis=1) / np.maximum(np.abs(gb).sum(axis=1), epsilon)
    stage = None
    if per_stage:
        fc, gc = _cell_values(fixed), _cell_values(gold)
        stage = {"block_max_abs_err": float(diff.max())}
        if fc is not None and gc is not None and fc.shape == gc.shape:
            stage["cell_max_abs_err"] = float(np.max(np.abs(fc - gc)))
    return DiffReport(
        mean_rel_err=float(rel.mean()),
        max_abs_err=float(diff.max()),
        block_count=fb.shape[0],
        per_stage=stage,
    )
