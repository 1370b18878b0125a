"""Center-interpolated orientation voting.

BIN_COUNT = 9 bins of BIN_WIDTH = 20 degrees cover [0, 180), cordic.RAW_180
in raw units; bin k is centered at 10 + 20k. A magnitude splits linearly
between the two nearest centers: with t = (angle - 10) / 20 wrapped mod 9,
the integer part picks the low bin, the fractional part weights the high bin
(the next center, wrapping 8 -> 0), and the low bin receives the remainder
so the two weights always sum to the magnitude exactly in raw units.

The divide by the bin width is a multiply by a pre-quantized reciprocal,
round(2^24 / BIN_WIDTH), derived from BIN_WIDTH (838861 at 20 degrees).
Twenty-four fractional bits keep the worst-case weight error under one
MAG ulp against a real-valued voter even at the maximum magnitude; the
narrower 16-bit reciprocal provably cannot. The high weight is rounded
to nearest even from the raw product by fixq.rne_shift. vote_raw is the
one fixed-point voter, with golden_votes' output (lo_bin, lo_weight,
hi_weight). Its one caller, vote_table, runs it once over the polar table;
the streaming and vectorized paths both read that table. VoteTable is the
one table type over the gradient grid; the golden model fills it too.

The high bin is always hi_bin(low bin), the next one (8 wraps to 0), so
every path keys a pixel's vote by its low bin alone and adds the high
side's totals one bin up; fold_sides is that one fold. VoteTable stores
that one format: the low bins and the weights keyed by them. vote_table
packs a pair's two MAG raw weights into one float64, lo_weight + hi_weight
* 2**PACK_BITS, so one read or gather and one add sum both sides;
split_packed takes a packed weight or total apart again, exactly.
"""

from functools import lru_cache

import numpy as np

from .cordic import RAW_180, CordicConfig, polar_table
from .fixq import ANG, CELL_ACC, rne_shift

BIN_COUNT = 9
BIN_WIDTH = 180 // BIN_COUNT  # degrees
# A side's total over one cell is at most CELL_ACC.raw_max; vote_table
# refuses a CELL_ACC that reaches the shift, so a packed cell total stays
# below 2**48 < 2**53 and float64 adds it and splits it exactly.
PACK_BITS = 24

_RAW_CENTER0 = BIN_WIDTH * ANG.scale // 2  # first bin center
_RECIP_BITS = 24  # fractional bits of the bin width's reciprocal
_RECIP_WIDTH = round(2**_RECIP_BITS / BIN_WIDTH)
# angle offset * _RECIP_WIDTH carries the bin fraction at 13 + 24 frac bits
_FRAC_BITS = ANG.frac_bits + _RECIP_BITS
_FRAC_MASK = (1 << _FRAC_BITS) - 1


def vote_raw(mag, ang):
    """Split MAG raw magnitudes at ANG raw angles between the low bin and
    its hi_bin; Python ints or integer arrays in (ang int64), (lo_bin,
    lo_weight, hi_weight) of the same kind out."""
    t = ((ang - _RAW_CENTER0) % RAW_180) * _RECIP_WIDTH
    lo = t >> _FRAC_BITS
    hi_w = rne_shift(mag * (t & _FRAC_MASK), _FRAC_BITS)
    return lo, mag - hi_w, hi_w


def hi_bin(lo_bin):
    """The high bin of a vote with this low bin: the next center, 8 wrapping to 0."""
    return (lo_bin + 1) % BIN_COUNT


class VoteTable:
    """Votes for every (gx, gy) pair of the gradient grid, laid out like the
    PolarTable for cordic.grid_index: lo_bin, the int8 low bins, and
    weights, a float64 (k, 261121) array of the weights keyed by them.
    vote_table has k = 1, the packed fixed weight; the golden model k = 2,
    its low and high weights."""

    def __init__(self, lo_bin: np.ndarray, weights: np.ndarray):
        self.lo_bin, self.weights = lo_bin.astype(np.int8), weights


def split_packed(t):
    """The (lo, hi) sides of a packed weight or a sum of them, a float or a
    float64 array; exact while each side is below 2**PACK_BITS."""
    # floor of a multiply: on arrays numpy's float floor_divide is about
    # eight times slower
    hi = np.floor(t * 2.0**-PACK_BITS)
    return t - hi * 2.0**PACK_BITS, hi


_PREV = np.argsort(hi_bin(np.arange(BIN_COUNT)))  # bin _PREV[k]'s high side is bin k


def fold_sides(lo, hi):
    """Bin totals from per-bin low and high sides, arrays whose last axis
    is the bins: each bin's low side plus the high side of the bin below."""
    return lo + hi[..., _PREV]


@lru_cache(maxsize=4)
def vote_table(cfg: CordicConfig) -> VoteTable:
    if CELL_ACC.raw_max >= 1 << PACK_BITS:
        raise ValueError(f"CELL_ACC cell totals reach the {PACK_BITS}-bit packing shift")
    polar = polar_table(cfg)
    # allocated before the build's temporaries rather than after them:
    # perfbench's extract_vga run then peaks about 1.4 MB lower in RSS
    weights = np.empty((1, polar.mag_raw.size))
    # int64 inside the build only: ang * _RECIP_WIDTH overflows int32, and
    # the int32 magnitudes widen with it
    lo, lo_w, hi_w = vote_raw(polar.mag_raw, polar.ang_raw.astype(np.int64))
    np.multiply(hi_w, 2.0**PACK_BITS, out=weights[0])
    weights[0] += lo_w
    return VoteTable(lo, weights)
