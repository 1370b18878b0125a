"""Vectoring CORDIC: integer gradient pair to (magnitude, orientation).

The conversion mirrors a hardware vectoring CORDIC. The input vector is
mapped into the first quadrant (negating both components leaves the folded
orientation unchanged, mirroring x does so up to a 180-t reflection), then
left-justified so the larger component sits at bit 20. Sixteen shift-add
iterations drive y to zero while accumulating the rotation angle from a
table of arctan(2^-i) values held in ANG raw units (degrees, 13 fractional
bits). Shifts truncate (arithmetic right shift) exactly as hardware shifters
do; intermediates stay inside a 24-bit signed range.

The iterated x converges to gain * sqrt(gx^2 + gy^2) with gain ~1.64676.
Multiplying by the pre-quantized reciprocal (16 fractional bits) compensates
the gain; the compensated value is rounded to nearest even only at the final
U10.6 interface quantization. Orientation is folded to [0, 180) degrees:
negative angles gain 180, and 180 itself is 0.

The scalar and array code paths perform identical integer operations and
are exhaustively asserted equal (polar_raw is the oracle); both round
through fixq.rne_shift. A PolarTable memoizes the full 511x511 gradient
grid at grid_index, built from the gx, gy >= 0 quadrant by the fold's two
exact symmetries (magnitude by |gx|, |gy|; angle t to 180 - t where
gx * gy < 0). voting.vote_table votes it once for both the streaming and
the vectorized path; the streaming model reads the PolarTable itself only
for its polar tap.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fixq import ANG, CELL_ACC, MAG, rne_shift

RAW_180 = 180 * ANG.scale

# Inputs are left-justified so max(|gx|, |gy|) occupies bit 20; with the
# CORDIC gain the iterated x stays below 2^23 (24-bit signed headroom).
_NORM_BIT = 20

_BITLEN = tuple(v.bit_length() for v in range(256))
_BITLEN_NP = np.array(_BITLEN, dtype=np.int64)

# Gradient components span [-255, 255], so every reachable pair sits on a
# GRID_SIDE x GRID_SIDE grid, flattened with gx major.
GRID_SIDE = 511


def grid_index(gx, gy):
    """Flat grid index of a gradient pair; ints or integer arrays."""
    return (gx + 255) * GRID_SIDE + (gy + 255)


def gradient_grid() -> tuple[np.ndarray, np.ndarray]:
    """Every gradient pair as flat int64 (gx, gy) arrays in grid_index order."""
    side = np.arange(-255, 256, dtype=np.int64)
    return np.repeat(side, GRID_SIDE), np.tile(side, GRID_SIDE)


@dataclass(frozen=True)
class CordicConfig:
    """Iteration count plus the derived angle table and gain reciprocal.

    angle_table[i] is arctan(2^-i) in degrees rounded half to even to ANG
    raw units, always derived from the iteration count. gain_reciprocal is
    1/gain at 16 fractional bits, the gain taken over the configured number
    of iterations; passing it overrides that, which only the polar table's
    headroom refusal needs.
    """

    iterations: int = 16
    angle_table: tuple[int, ...] = field(init=False)
    gain_reciprocal: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 14:
            raise ValueError("need at least 14 iterations for the accuracy targets")
        table = tuple(
            round(math.degrees(math.atan(2.0**-i)) * ANG.scale)
            for i in range(self.iterations)
        )
        object.__setattr__(self, "angle_table", table)
        if not self.gain_reciprocal:
            gain = 1.0
            for i in range(self.iterations):
                gain *= math.sqrt(1.0 + 2.0 ** (-2 * i))
            object.__setattr__(self, "gain_reciprocal", round((1.0 / gain) * 65536))


def polar_raw(gx: int, gy: int, cfg: CordicConfig) -> tuple[int, int, float]:
    """Scalar CORDIC core on one gradient pair.

    Returns (magnitude raw U10.6, orientation raw ANG, precise compensated
    magnitude before the U10.6 rounding). (0, 0) maps to (0, 0) by
    convention.
    """
    if gx == 0 and gy == 0:
        return 0, 0, 0.0
    # negating both components changes nothing after the fold; use that to
    # put gy > 0, or gy == 0 with gx > 0, so symmetry is exact by routing
    if gy < 0 or (gy == 0 and gx < 0):
        gx, gy = -gx, -gy
    mirror = gx < 0
    if mirror:
        gx = -gx
    shift = _NORM_BIT + 1 - _BITLEN[max(gx, gy)]
    x = gx << shift
    y = gy << shift
    z = 0
    for i, step in enumerate(cfg.angle_table):
        xs = x >> i
        ys = y >> i
        if y < 0:
            x -= ys
            y += xs
            z -= step
        else:
            x += ys
            y -= xs
            z += step
    if mirror:
        z = RAW_180 - z
    ang = z % RAW_180
    comp = x * cfg.gain_reciprocal
    precise = comp / 2.0 ** (shift + 16)
    mag = rne_shift(comp, shift + 16 - MAG.frac_bits)
    return mag, ang, precise


def polar_raw_arrays(
    gx: np.ndarray, gy: np.ndarray, cfg: CordicConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized CORDIC core, integer-for-integer identical to polar_raw.

    Inputs are int arrays in [-255, 255]; outputs are int64 magnitude raw,
    int64 orientation raw, and float64 precise compensated magnitude.
    """
    gx = gx.astype(np.int64)
    gy = gy.astype(np.int64)
    zero = (gx == 0) & (gy == 0)
    flip = (gy < 0) | ((gy == 0) & (gx < 0))
    gx = np.where(flip, -gx, gx)
    gy = np.where(flip, -gy, gy)
    mirror = gx < 0
    gx = np.where(mirror, -gx, gx)
    m = np.maximum(np.maximum(gx, gy), 1)
    shift = _NORM_BIT + 1 - _BITLEN_NP[m]
    x = gx << shift
    y = gy << shift
    z = np.zeros_like(x)
    for i, step in enumerate(cfg.angle_table):
        xs = x >> i
        ys = y >> i
        neg = y < 0
        x = np.where(neg, x - ys, x + ys)
        y = np.where(neg, y + xs, y - xs)
        z = np.where(neg, z - step, z + step)
    z = np.where(mirror, RAW_180 - z, z)
    ang = np.where(zero, 0, z % RAW_180)
    comp = x * np.int64(cfg.gain_reciprocal)
    precise = np.where(zero, 0.0, comp / np.exp2((shift + 16).astype(np.float64)))
    mag = np.where(zero, 0, rne_shift(comp, shift + 16 - MAG.frac_bits))
    return mag, ang, precise


def _unfold(q: np.ndarray) -> np.ndarray:
    """Quadrant indexed [|gx|, |gy|] to the full grid, valued at |gx|, |gy|."""
    q = np.concatenate([q[::-1], q[1:]])
    return np.concatenate([q[:, ::-1], q[:, 1:]], axis=1)


class PolarTable:
    """Memoized CORDIC over the full gradient grid, indexed by grid_index.

    Pure-function memoization, built from one quadrant by the fold's two
    exact symmetries: lookups are exhaustively identical to the scalar
    core. Constant data, not pipeline buffer state. The build rejects a
    config whose largest magnitude overflows MAG, or whose full cell of it
    would overflow CELL_ACC, so no later stage can saturate.
    """

    def __init__(self, cfg: CordicConfig):
        from .cells import CELL_SIZE  # deferred: cells -> voting -> cordic

        # run the core on gx, gy >= 0 only; the quadrant holds the peak
        mid = GRID_SIDE // 2  # grid position of a zero component
        mag, ang, _ = polar_raw_arrays(*np.indices((mid + 1, mid + 1)), cfg)
        peak = int(mag.max())
        if peak > MAG.raw_max or CELL_SIZE * CELL_SIZE * peak > CELL_ACC.raw_max:
            raise ValueError(
                f"peak magnitude {peak} raw overflows MAG or a "
                f"{CELL_SIZE}x{CELL_SIZE} cell of CELL_ACC"
            )
        mag, ang = _unfold(mag), _unfold(ang)
        # where gx * gy < 0 the core mirrors x: angle t becomes 180 - t
        ang[:mid, mid + 1 :] = (RAW_180 - ang[:mid, mid + 1 :]) % RAW_180
        ang[mid + 1 :, :mid] = (RAW_180 - ang[mid + 1 :, :mid]) % RAW_180
        self.mag_raw = mag.ravel()
        self.ang_raw = ang.ravel()

    def lookup(self, gx: int, gy: int) -> tuple[int, int]:
        i = grid_index(gx, gy)
        return int(self.mag_raw[i]), int(self.ang_raw[i])


@lru_cache(maxsize=4)
def polar_table(cfg: CordicConfig) -> PolarTable:
    return PolarTable(cfg)
