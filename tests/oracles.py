"""Independent reference implementations used only by the test suite.

Everything here is written per-definition, favouring clarity over speed, and
deliberately shares no code with the package beyond IEEE primitives. These
are the oracles the streaming/vectorized implementations are judged against.
"""

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


def ref_batch_fixed(luma, cordic_cfg):
    """Batch composition of the scalar fixed-point stage operations.

    Runs the same per-pixel arithmetic as the streaming pipeline but with
    plain nested loops and no buffering machinery, then normalizes each 2x2
    block. The streamed result must match element-exactly.
    """
    from hogpipe.blocks import normalize_grid
    from hogpipe.cordic import polar_raw
    from hogpipe.voting import vote_raw

    h, w = luma.shape
    cr, cc = h // 8, w // 8
    bins = np.zeros((cr, cc, 9), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            right = int(luma[r, clamp(c + 1, 0, w - 1)])
            left = int(luma[r, clamp(c - 1, 0, w - 1)])
            down = int(luma[clamp(r + 1, 0, h - 1), c])
            up = int(luma[clamp(r - 1, 0, h - 1), c])
            mag, ang, _ = polar_raw(right - left, down - up, cordic_cfg)
            lo, hi, lo_w, hi_w = vote_raw(mag, ang)
            bins[r // 8, c // 8, lo] += lo_w
            bins[r // 8, c // 8, hi] += hi_w
    blocks = np.zeros((cr - 1, cc - 1, 36))
    for i in range(cr - 1):
        for j in range(cc - 1):
            blocks[i, j] = normalize_grid(bins[i : i + 2, j : j + 2])[0, 0]
    return bins, blocks
