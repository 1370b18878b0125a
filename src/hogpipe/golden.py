"""Double-precision whole-frame reference model and the comparator that
measures how far the fixed-point pipeline drifts from it.

The golden model follows every geometry decision of the streaming pipeline
(replicated borders, bin centers at 10 + 20k degrees, 8x8 cells, 2x2
blocks at stride one, epsilon inside the square root) in plain float64,
so a diff against it isolates quantization error. Gradients, the vote
gather and block layout come from the owners the fixed path also calls.

Votes are gathered by cells.frame_votes from golden_vote_table, a
voting.VoteTable of golden_votes over the full gradient grid, memoized
and built on the first golden call. Cell bins sum each vote weight's
coarse and fine limbs with bincounts, which is exact, then add the two
limb totals once, rounding as math.fsum would. Block denominators
split each square into four limbs on fixed grids, sum each limb exactly
and round the four totals once, again as math.fsum of the squares would.
Both are order-independent, so the vectorized reduction is bit-identical
to a naive per-pixel loop.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocks import BLOCK_EPSILON, BLOCK_VALUES, HogFrame, block_quads
from .cells import add_votes, cells_per_frame, frame_votes
from .cordic import gradient_grid
from .errors import ShapeMismatch
from .gradient import luma8
from .voting import BIN_COUNT, VoteTable


@dataclass(frozen=True)
class GoldenHog:
    cells: np.ndarray  # float64, (cell_rows, cell_cols, 9) real-valued bins
    blocks: np.ndarray  # float64, (cell_rows - 1, cell_cols - 1, 36)


@dataclass(frozen=True)
class DiffReport:
    """Fixed-vs-golden accuracy summary.

    mean_rel_err averages, over blocks, the L1 distance between the two
    descriptors divided by the golden descriptor's L1 mass (floored at
    BLOCK_EPSILON so empty blocks do not divide by zero). max_abs_err is the
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


# Vote weights are below 2**9 on a 2**-61 grid (golden_vote_table checks every
# gradient pair) and a bin gets at most 64, so for LIMB_BITS in 14..38 both
# limb totals are exact in any order and one add rounds their sum once, as
# math.fsum does.
LIMB_BITS = 26


def exact_bincount(votes, shape) -> np.ndarray:
    """Per-key totals of frame_votes strips in a grid of the given shape, rounded
    once from the exact sum; each strip's weights are overwritten by a limb."""
    coarse, fine, part = np.zeros(shape), np.zeros(shape), None
    for rows, keys, weights in votes:
        # one limb buffer, sized by the first strip: no later one is larger
        part = np.empty_like(weights) if part is None else part[: weights.size]
        np.floor(np.multiply(weights, 2.0**LIMB_BITS, out=part), out=part)
        add_votes(coarse, rows, keys, np.multiply(part, 2.0**-LIMB_BITS, out=part))
        add_votes(fine, rows, keys, np.subtract(weights, part, out=weights))
    return coarse + fine


def check_vote_weights(weights: np.ndarray) -> None:
    """Reject weights outside exact_bincount's precondition: each must be
    >= 0, below 2**9 and a whole multiple of 2**-61."""
    scaled = weights * 2.0**61
    if not (
        np.all(weights >= 0.0)
        and np.all(weights < 2.0**9)
        and np.array_equal(scaled, np.floor(scaled))
    ):
        raise ValueError(
            "golden vote weights must lie in [0, 2**9) on a 2**-61 grid "
            "for exact limb sums"
        )


# A golden cell value rounds a sum of at most 64 such weights, so it is a
# multiple of 2**-61 below 2**15 (64 * 360.6 = 23,080 in practice) and its
# rounded square is a multiple of 2**-122 below 2**30. Cutting the square at
# grids 2**-17, 2**-64 and 2**-111 leaves four limbs of at most 47 bits; 36
# of them add at most 6 bits, so each limb's total is exact in any order,
# and one fsum of the four totals rounds the sum once.
_SQUARE_CUTS = (17, 64, 111)


def exact_square_sums(rows: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis of golden cell values, rounded once
    from the exact total as math.fsum of the squares is."""
    rest = np.square(rows)
    limbs = []
    for cut in _SQUARE_CUTS:
        top = np.floor(rest * 2.0**cut) * 2.0**-cut
        rest -= top
        limbs.append(top.sum(axis=-1))
    limbs.append(rest.sum(axis=-1))
    totals = np.stack(limbs, axis=-1).reshape(-1, len(limbs)).tolist()
    return np.array(list(map(math.fsum, totals))).reshape(rows.shape[:-1])


def golden_votes(gx: np.ndarray, gy: np.ndarray):
    """Real-valued center-interpolated votes, ordered as voting.vote_raw's:
    (lo_bin, hi_bin, lo_weight, hi_weight)."""
    mag, ang = golden_polar(gx, gy)
    t = ((ang - 10.0) % 180.0) / 20.0
    t_floor = np.floor(t)
    hi_w = mag * (t - t_floor)
    lo_w = mag - hi_w
    lo_bin = t_floor.astype(np.int64) % BIN_COUNT
    hi_bin = (lo_bin + 1) % BIN_COUNT
    return lo_bin, hi_bin, lo_w, hi_w


@lru_cache(maxsize=1)
def golden_vote_table() -> VoteTable:
    """golden_votes over the full gradient grid. The build rejects weights
    that would break exact_bincount's exact sums."""
    lo, hi, lo_w, hi_w = golden_votes(*gradient_grid())
    check_vote_weights(lo_w)
    check_vote_weights(hi_w)
    return VoteTable(lo, hi, lo_w, hi_w)


def golden_hog(luma: np.ndarray, epsilon: float = BLOCK_EPSILON) -> GoldenHog:
    luma = luma8(luma)
    h, w = luma.shape
    cc, cr = cells_per_frame(w, h)
    cells = exact_bincount(frame_votes(luma, golden_vote_table()), (cr, cc, BIN_COUNT))
    quads = block_quads(cells)
    denom = np.sqrt(exact_square_sums(quads) + epsilon * epsilon)
    blocks = quads / denom[..., None]
    return GoldenHog(cells=cells, blocks=blocks)


def _block_tensor(x) -> np.ndarray:
    b = getattr(x, "blocks", x)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim < 1 or b.shape[-1] != BLOCK_VALUES:
        raise ShapeMismatch(f"not a block tensor: shape {b.shape}")
    return b.reshape(-1, BLOCK_VALUES)


def _cell_values(x) -> np.ndarray | None:
    if isinstance(x, HogFrame):
        return x.cell_values()
    return getattr(x, "cells", None)


def compare(
    fixed: HogFrame | GoldenHog | np.ndarray,
    gold: GoldenHog | HogFrame | np.ndarray,
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
    rel = diff.sum(axis=1) / np.maximum(np.abs(gb).sum(axis=1), BLOCK_EPSILON)
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
