"""Center-interpolated orientation voting.

Nine bins of width 20 degrees cover [0, 180); bin k is centered at
10 + 20k. A magnitude splits linearly between the two nearest centers:
with t = (angle - 10) / 20 wrapped mod 9, the integer part picks the low
bin, the fractional part weights the high bin (the next center, wrapping
8 -> 0), and the low bin receives the remainder so the two weights always
sum to the magnitude exactly in raw units.

The divide by the 20-degree bin width is a multiply by a pre-quantized
reciprocal, round(2^24 / 20) = 838861. Twenty-four fractional bits keep the
worst-case weight error under one MAG ulp against a real-valued voter even
at the maximum magnitude; the narrower 16-bit reciprocal provably cannot.
The high weight is rounded to nearest even from the raw product.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cordic import CordicConfig, PolarGradient, polar_table
from .fixq import ANG, rne_shift

BIN_COUNT = 9
BIN_WIDTH_DEG = 20

_RAW_CENTER0 = 10 * ANG.scale  # first bin center
_RAW_SPAN = 180 * ANG.scale
# round(2^24 / 20): reciprocal of the bin width at 24 fractional bits
_RECIP_WIDTH = 838861
# u * _RECIP_WIDTH carries the bin fraction at 13 + 24 fractional bits
_FRAC_BITS = ANG.frac_bits + 24


@dataclass(frozen=True)
class BinVote:
    lo_bin: int
    hi_bin: int
    lo_weight: int  # MAG raw
    hi_weight: int  # MAG raw
    row: int
    col: int


def vote(p: PolarGradient) -> BinVote:
    """Split one polar gradient's magnitude between its two nearest bins."""
    u = (p.orientation - _RAW_CENTER0) % _RAW_SPAN
    t = u * _RECIP_WIDTH
    lo = t >> _FRAC_BITS
    frac = t & ((1 << _FRAC_BITS) - 1)
    hi_w = rne_shift(p.magnitude * frac, _FRAC_BITS)
    lo_w = p.magnitude - hi_w
    return BinVote(lo, (lo + 1) % BIN_COUNT, lo_w, hi_w, p.row, p.col)


def vote_arrays(
    mag_raw: np.ndarray, ang_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized voter, integer-identical to vote(). Returns
    (lo_bin, hi_bin, lo_weight, hi_weight) arrays."""
    u = (ang_raw - _RAW_CENTER0) % _RAW_SPAN
    t = u * np.int64(_RECIP_WIDTH)
    lo = t >> _FRAC_BITS
    frac = t & ((np.int64(1) << _FRAC_BITS) - 1)
    prod = mag_raw * frac
    q = prod >> _FRAC_BITS
    r = prod & ((np.int64(1) << _FRAC_BITS) - 1)
    half = np.int64(1) << (_FRAC_BITS - 1)
    hi_w = q + ((r > half) | ((r == half) & ((q & 1) == 1)))
    lo_w = mag_raw - hi_w
    return lo, (lo + 1) % BIN_COUNT, lo_w, hi_w


class VoteTable:
    """Memoized votes over the full gradient grid.

    For every (gx, gy) pair the two bin indices and the two raw weights,
    laid out like the PolarTable for flat gathers at cordic.grid_index. Weights
    are stored as float64 so histogram bincounts need no conversion pass;
    the values are integers far below 2^53, so nothing is lost.
    """

    def __init__(self, cfg: CordicConfig):
        polar = polar_table(cfg)
        lo, hi, lo_w, hi_w = vote_arrays(polar.mag_raw, polar.ang_raw)
        self.lo_bin = lo.astype(np.int32)
        self.hi_bin = hi.astype(np.int32)
        self.lo_weight = lo_w.astype(np.float64)
        self.hi_weight = hi_w.astype(np.float64)


@lru_cache(maxsize=4)
def vote_table(cfg: CordicConfig) -> VoteTable:
    return VoteTable(cfg)
