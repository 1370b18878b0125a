"""Double-precision whole-frame reference model and the comparator that
measures how far the fixed-point pipeline drifts from it.

The golden model follows every geometry decision of the streaming pipeline
(replicated borders, bin centers at 10 + 20k degrees, 8x8 cells, 2x2
blocks at stride one, epsilon inside the square root) in plain float64,
so a diff against it isolates quantization error. Gradients, bin centers,
vote gather and block layout come from the fixed path's owners.

Votes are gathered by cells.frame_votes from golden_vote_table, a
voting.VoteTable of golden_votes over the full gradient grid, memoized
and built on the first golden call; as on the fixed path, each pixel's
two weights are keyed by its low bin. Cell bins sum each weight's coarse
and fine limbs with bincounts, which is exact, the high side's totals
folded one bin up (voting.fold_sides), then add the two limb totals once,
rounding as math.fsum would. Block square sums split each cell value's
square into limbs on grids derived from the formats, sum each limb
exactly per cell and then per 2x2 block, and round the limb totals as
math.fsum of the block's squares would; blocks.normalize_blocks divides
as on the fixed paths. Both sums are order-independent, so the
vectorized reduction is bit-identical to a naive per-pixel loop.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocks import (
    BLOCK_EPSILON, BLOCK_VALUES, HogFrame, block_corners, dequantize, normalize_blocks
)
from .cells import cells_per_frame, frame_votes, strip_totals
from .cordic import gradient_grid
from .errors import DimensionError
from .fixq import CELL_SIZE, LUMA
from .gradient import luma8
from .voting import BIN_COUNT, BIN_WIDTH, VoteTable, fold_sides


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


# A vote weight is below 2**_TOP, the bit length of the largest magnitude
# (2**9 for LUMA's 0..255), and a bin gets at most 2**_VOTES, one per pixel
# of a cell (2**6 for CELL_SIZE 8). Rounding a weight to the nearest multiple
# of 2**-LIMB_BITS leaves a coarse limb of at most 2**_TOP; a bin's coarse
# limbs total at most 2**(_TOP + _VOTES + LIMB_BITS) steps, within 2**53 for
# LIMB_BITS up to _LIMB_MAX (38). The signed fine limbs, of at most
# 2**-(LIMB_BITS + 1), total within 2**53 steps of 2**-_GRID (2**-74 at
# LIMB_BITS 26), the finest grid they add exactly. golden_vote_table checks
# that every weight lies on it, so both totals are exact in any order, and
# one add rounds their sum once, as math.fsum does.
LIMB_BITS = 26
_TOP = int(np.hypot(LUMA.raw_max, LUMA.raw_max)).bit_length()
_VOTES = (CELL_SIZE * CELL_SIZE - 1).bit_length()
_GRID = 54 + LIMB_BITS - _VOTES
_LIMB_MAX = 53 - _TOP - _VOTES


def exact_bincount(votes, shape) -> np.ndarray:
    """Totals of frame_votes strips of low-bin keys with low and high weights,
    in a grid of the given shape whose last axis is the bins: a key's low
    weights at its bin, its high weights one bin up, rounded once from the
    exact sum. Each strip's weights are overwritten by a limb."""
    # (low, high) x (coarse, fine) limb totals
    sides, part = np.zeros((2, 2, *shape)), None
    for rows, keys, *weights in votes:
        # one limb buffer, sized by the first strip: no later one is larger
        part = np.empty_like(keys, float) if part is None else part[: keys.size]
        for (coarse, fine), w in zip(sides, weights):
            # w + 2**(52 - LIMB_BITS) lies in a binade whose step is
            # 2**-LIMB_BITS, so the add rounds w to its nearest multiple
            np.add(w, 2.0 ** (52 - LIMB_BITS), out=part)
            np.subtract(part, 2.0 ** (52 - LIMB_BITS), out=part)
            coarse[rows] += strip_totals(coarse[rows], keys, part)
            fine[rows] += strip_totals(fine[rows], keys, np.subtract(w, part, out=w))
    (lo_coarse, lo_fine), (hi_coarse, hi_fine) = sides
    return fold_sides(lo_coarse, hi_coarse) + fold_sides(lo_fine, hi_fine)


def check_vote_weights(weights: np.ndarray) -> None:
    """Reject a LIMB_BITS above _LIMB_MAX, or weights outside exact_bincount's
    precondition: each must be >= 0, below 2**_TOP and a multiple of 2**-_GRID."""
    if LIMB_BITS > _LIMB_MAX:
        raise ValueError(f"LIMB_BITS = {LIMB_BITS} is above {_LIMB_MAX}: coarse limb totals round")
    scaled = weights * 2.0**_GRID
    in_range = np.all(weights >= 0.0) and np.all(weights < 2.0**_TOP)
    if not (in_range and np.array_equal(scaled, np.floor(scaled))):
        grid = f"[0, 2**{_TOP}) on the 2**-{_GRID} grid of LIMB_BITS = {LIMB_BITS}"
        raise ValueError(f"golden vote weights must lie in {grid} for exact limb sums")


# A golden cell value rounds a sum of at most 2**_VOTES weights, so it is a
# multiple of 2**-_GRID below 2**(_TOP + _VOTES) (2**15 at the defaults;
# 64 * 360.6 = 23,080 in practice), and its rounded square is a multiple of
# 2**-(2 * _GRID) below 2**(2 * (_TOP + _VOTES)). Cutting the square at the
# grids of _SQUARE_CUTS (2**-17, 2**-64 and 2**-111 at the defaults) leaves
# limbs of at most _SQUARE_LIMB bits (47), so a block's BLOCK_VALUES (36) of
# each, summed per cell and then over its four cells, total exactly, and one
# vectorised expansion rounds the limb totals, as math.fsum would.
_SQUARE_LIMB = 53 - (BLOCK_VALUES - 1).bit_length()
_SQUARE_CUTS = tuple(range(_SQUARE_LIMB - 2 * (_TOP + _VOTES), 2 * _GRID, _SQUARE_LIMB))


def _two_sum(a, b):
    """a + b rounded, and its exact rounding error (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def fsum_arrays(terms) -> np.ndarray:
    """Elementwise sum of same-shape float64 arrays, rounded once from the
    exact total as math.fsum of each element's terms is; no partial sum
    may overflow."""
    # grow a non-overlapping expansion (Shewchuk 1997), one term at a time:
    # parts runs from the smallest component up to the rounded total, and
    # a component may be zero
    parts = []
    for q in terms:
        grown = []
        for p in parts:
            q, err = _two_sum(q, p)
            grown.append(err)
        parts = [*grown, q]
    # signs[k]: sign of the largest nonzero component among parts[:k]
    signs = [np.zeros_like(parts[0])]
    for p in parts[:-1]:
        signs.append(np.where(p != 0.0, np.sign(p), signs[-1]))
    # math.fsum's walk down from the top: add components while the sum is
    # exact; where one leaves a nonzero error lo, stop, and keep the sign
    # of what lies below it
    hi, lo, tail = parts[-1], np.zeros_like(parts[-1]), signs[0]
    for y, below in zip(parts[-2::-1], signs[-2::-1]):
        total = hi + y
        err = y - (total - hi)
        walking = lo == 0.0
        hi = np.where(walking, total, hi)
        lo = np.where(walking, err, lo)
        tail = np.where(walking, below, tail)
    # fsum's half-way correction: lo is half an ulp of hi and the rest
    # lies on its side, so the exact total rounds away from hi
    away = hi + 2.0 * lo
    return np.where((lo * tail > 0.0) & (away - hi == 2.0 * lo), away, hi)


def exact_square_sums(cells: np.ndarray) -> np.ndarray:
    """Sum of squares of each 2x2 block's 36 values in a (rows, cols, 9)
    grid of golden cell values, rounded once from the exact total as
    math.fsum of the squares is; a (rows - 1, cols - 1) array."""
    # each square's limbs, the rest last; their bin sums are exact in any
    # order, so one matrix product with ones takes them
    parts = np.empty((len(_SQUARE_CUTS) + 1, *cells.shape))
    rest = np.square(cells, out=parts[-1])
    for part, cut in zip(parts, _SQUARE_CUTS):
        np.floor(np.multiply(rest, 2.0**cut, out=part), out=part)
        part *= 2.0**-cut
        rest -= part
    limbs = np.moveaxis(parts @ np.ones(cells.shape[-1]), 0, -1)  # (rows, cols, 4)
    totals = np.moveaxis(sum(block_corners(limbs)), -1, 0)
    return fsum_arrays(totals[::-1])  # smallest limb first


def golden_votes(gx: np.ndarray, gy: np.ndarray):
    """Real-valued center-interpolated votes keyed by the low bin:
    (lo_bin, lo_weight, hi_weight), the high bin being the next one."""
    mag, ang = golden_polar(gx, gy)
    t = ((ang - BIN_WIDTH / 2) % 180.0) / BIN_WIDTH
    t_floor = np.floor(t)
    hi_w = mag * (t - t_floor)
    lo_w = mag - hi_w
    return t_floor.astype(np.int64) % BIN_COUNT, lo_w, hi_w


@lru_cache(maxsize=1)
def golden_vote_table() -> VoteTable:
    """golden_votes over the full gradient grid. The build rejects weights
    that would break exact_bincount's exact sums."""
    lo, *weights = golden_votes(*gradient_grid())
    weights = np.stack(weights)
    check_vote_weights(weights)
    return VoteTable(lo, weights)


def golden_hog(luma: np.ndarray, epsilon: float = BLOCK_EPSILON) -> GoldenHog:
    """The exact cells and blocks; epsilon may only be BLOCK_EPSILON."""
    if epsilon != BLOCK_EPSILON:
        raise ValueError(f"the block epsilon is fixed at {BLOCK_EPSILON}, got {epsilon}")
    luma = luma8(luma)
    h, w = luma.shape
    cc, cr = cells_per_frame(w, h)
    cells = exact_bincount(frame_votes(luma, golden_vote_table()), (cr, cc, BIN_COUNT))
    return GoldenHog(cells=cells, blocks=normalize_blocks(cells, exact_square_sums(cells)))


def compare(fixed: HogFrame, gold: GoldenHog, per_stage: bool = False) -> DiffReport:
    """Blockwise diff of a fixed-point frame against the golden one."""
    if fixed.blocks.shape != gold.blocks.shape:
        raise DimensionError(
            f"block shapes differ: {fixed.blocks.shape} vs {gold.blocks.shape}"
        )
    fb = fixed.blocks.reshape(-1, BLOCK_VALUES)
    gb = gold.blocks.reshape(-1, BLOCK_VALUES)
    if fb.shape[0] == 0:
        return DiffReport(0.0, 0.0, 0)
    diff = np.abs(fb - gb)
    rel = diff.sum(axis=1) / np.maximum(np.abs(gb).sum(axis=1), BLOCK_EPSILON)
    max_abs_err = float(diff.max())
    stage = None
    if per_stage:
        stage = {
            "block_max_abs_err": max_abs_err,
            "cell_max_abs_err": float(np.max(np.abs(dequantize(fixed.cells) - gold.cells))),
        }
    return DiffReport(
        mean_rel_err=float(rel.mean()),
        max_abs_err=max_abs_err,
        block_count=fb.shape[0],
        per_stage=stage,
    )
