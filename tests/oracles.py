"""Independent reference implementations used only by the test suite.

Everything here is written per-definition, favouring clarity over speed, and
imports nothing from the package: every constant (bin centers, the bin
width reciprocal, the angle table, the gain reciprocal, the rounding rule)
is derived or spelled out here. These are the oracles the
streaming/vectorized implementations are judged against.
"""

import functools
import math
import re

import numpy as np


def ref_decode_pgm(path):
    """Minimal independent binary-PGM reader: regex header, raw payload."""
    blob = open(path, "rb").read()
    m = re.match(rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", blob)
    if not m:
        raise ValueError("not a simple P5 file")
    w, h, maxval = (int(g) for g in m.groups())
    assert maxval == 255
    data = blob[m.end() :]
    assert len(data) == w * h
    return w, h, data


def clamp(v, lo, hi):
    return min(max(v, lo), hi)


def ref_gradients(luma):
    """Two-loop central differences with replicated edges.

    gx = I(r, c+1) - I(r, c-1), gy = I(r+1, c) - I(r-1, c), coordinates
    clamped to the frame.
    """
    h, w = luma.shape
    out = np.zeros((h, w, 2), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            right = int(luma[r, clamp(c + 1, 0, w - 1)])
            left = int(luma[r, clamp(c - 1, 0, w - 1)])
            down = int(luma[clamp(r + 1, 0, h - 1), c])
            up = int(luma[clamp(r - 1, 0, h - 1), c])
            out[r, c, 0] = right - left
            out[r, c, 1] = down - up
    return out


def ref_fold_deg(angle):
    if angle < 0.0:
        angle += 180.0
    if angle == 180.0:
        angle = 0.0
    return angle


def ref_polar(gx, gy):
    """Double-precision polar conversion: magnitude and folded angle in degrees."""
    mag = math.sqrt(gx * gx + gy * gy)
    ang = ref_fold_deg(float(np.degrees(np.arctan2(gy, gx))))
    return mag, ang


def ref_vote(mag, ang):
    """Real-valued center-interpolated vote. Returns (lo_bin, lo_w, hi_bin, hi_w)."""
    t = ((ang - 10.0) % 180.0) / 20.0
    lo = int(math.floor(t)) % 9
    hi = (lo + 1) % 9
    hi_w = mag * (t - math.floor(t))
    lo_w = mag - hi_w
    return lo, lo_w, hi, hi_w


def ref_hog(luma, epsilon=1e-3):
    """Brute-force per-definition HOG in double precision.

    Returns (cells, blocks): cells is (rows, cols, 9) with each bin the
    exactly-rounded (fsum) total of its member votes; blocks is
    (rows-1, cols-1, 36), each an L2-normalized 2x2 cell neighborhood with
    the epsilon inside the square root.
    """
    h, w = luma.shape
    cr, cc = h // 8, w // 8
    members = [[[[] for _ in range(9)] for _ in range(cc)] for _ in range(cr)]
    for r in range(h):
        for c in range(w):
            right = int(luma[r, clamp(c + 1, 0, w - 1)])
            left = int(luma[r, clamp(c - 1, 0, w - 1)])
            down = int(luma[clamp(r + 1, 0, h - 1), c])
            up = int(luma[clamp(r - 1, 0, h - 1), c])
            gx, gy = right - left, down - up
            mag, ang = ref_polar(gx, gy)
            lo, lo_w, hi, hi_w = ref_vote(mag, ang)
            cell = members[r // 8][c // 8]
            cell[lo].append(lo_w)
            cell[hi].append(hi_w)
    cells = np.zeros((cr, cc, 9))
    for i in range(cr):
        for j in range(cc):
            for b in range(9):
                cells[i, j, b] = math.fsum(members[i][j][b])
    blocks = np.zeros((cr - 1, cc - 1, 36))
    for i in range(cr - 1):
        for j in range(cc - 1):
            v = np.concatenate(
                [cells[i, j], cells[i, j + 1], cells[i + 1, j], cells[i + 1, j + 1]]
            )
            denom = math.sqrt(math.fsum([x * x for x in v.tolist()]) + epsilon * epsilon)
            blocks[i, j] = v / denom
    return cells, blocks


def ref_rne(x, s):
    """x / 2**s rounded half to even, s >= 1: floor division, then the
    remainder against one half."""
    q, r = divmod(x, 1 << s)
    half = 1 << (s - 1)
    return q + (r > half or (r == half and q % 2 == 1))


@functools.lru_cache
def ref_cordic_constants(iterations):
    """The arctan(2**-i) table in degrees at 13 fractional bits, rounded
    half to even, and 1/gain at 16 fractional bits."""
    angles = [round(math.degrees(math.atan(2.0**-i)) * 8192) for i in range(iterations)]
    gain = math.prod(math.sqrt(1.0 + 4.0**-i) for i in range(iterations))
    return angles, round(65536 / gain)


def ref_polar_raw(gx, gy, iterations):
    """Vectoring CORDIC on one gradient pair, per the datapath definition.

    Returns (magnitude raw, 6 fractional bits; orientation raw, degrees at
    13 fractional bits in [0, 180); precise compensated magnitude before
    the magnitude rounding). The angle table and the gain reciprocal are
    derived here from the iteration count. The pair is routed so that
    gy > 0, or gy == 0 with gx > 0, by negating both components; a negative
    gx is then mirrored and its angle reflected to 180 - t. The larger
    component is left-justified to bit 20, shifts truncate, and (0, 0)
    maps to (0, 0).
    """
    if gx == 0 and gy == 0:
        return 0, 0, 0.0
    angles, recip = ref_cordic_constants(iterations)
    if gy < 0 or (gy == 0 and gx < 0):
        gx, gy = -gx, -gy
    mirror = gx < 0
    gx = abs(gx)
    shift = 21 - max(gx, gy).bit_length()
    x, y, z = gx << shift, gy << shift, 0
    for i, step in enumerate(angles):
        if y < 0:
            x, y, z = x - (y >> i), y + (x >> i), z - step
        else:
            x, y, z = x + (y >> i), y - (x >> i), z + step
    if mirror:
        z = 180 * 8192 - z
    comp = x * recip
    return ref_rne(comp, shift + 10), z % (180 * 8192), comp / 2.0 ** (shift + 16)


def ref_vote_raw(mag, ang):
    """Fixed-point center-interpolated vote of a raw magnitude (6
    fractional bits) at a raw angle (13 fractional bits): the angle offset
    from the first center times round(2**24 / 20) = 838,861 splits into the
    low bin and a fraction at 37 fractional bits; the high weight is
    mag * fraction rounded half to even. Returns (lo_bin, hi_bin,
    lo_weight, hi_weight)."""
    lo, frac = divmod(((ang - 10 * 8192) % (180 * 8192)) * 838861, 1 << 37)
    hi_w = ref_rne(mag * frac, 37)
    return lo, (lo + 1) % 9, mag - hi_w, hi_w


def ref_normalize_block(raw_bins):
    """L2 normalization of one block's 36 raw bins (6 fractional bits) in
    Python floats, epsilon 1e-3 inside the square root."""
    v = [b / 64 for b in raw_bins]
    denom = math.sqrt(math.fsum(x * x for x in v) + 1e-3**2)
    return [x / denom for x in v]


def ref_batch_fixed(luma, cordic_cfg):
    """Batch composition of the fixed-point stage operations.

    Runs the per-pixel arithmetic of the streaming pipeline with plain
    nested loops and no buffering machinery, then normalizes each 2x2
    block. Reads only cordic_cfg.iterations. The streamed result must
    match element-exactly.
    """
    h, w = luma.shape
    cr, cc = h // 8, w // 8
    bins = np.zeros((cr, cc, 9), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            right = int(luma[r, clamp(c + 1, 0, w - 1)])
            left = int(luma[r, clamp(c - 1, 0, w - 1)])
            down = int(luma[clamp(r + 1, 0, h - 1), c])
            up = int(luma[clamp(r - 1, 0, h - 1), c])
            mag, ang, _ = ref_polar_raw(right - left, down - up, cordic_cfg.iterations)
            lo, hi, lo_w, hi_w = ref_vote_raw(mag, ang)
            bins[r // 8, c // 8, lo] += lo_w
            bins[r // 8, c // 8, hi] += hi_w
    blocks = np.zeros((cr - 1, cc - 1, 36))
    for i in range(cr - 1):
        for j in range(cc - 1):
            quad = [bins[i + di, j + dj].tolist() for di in (0, 1) for dj in (0, 1)]
            blocks[i, j] = ref_normalize_block(sum(quad, []))
    return bins, blocks
