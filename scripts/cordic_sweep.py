"""Exhaustive CORDIC error sweep over every reachable gradient pair.

Evaluates the fixed-point polar converter on the whole [-255, 255]^2
grid and reports worst-case angle and magnitude error against the
golden model's double-precision polar conversion (golden.golden_polar),
plus the worst angle input. Useful when touching the iteration count or
datapath widths.

Usage: python scripts/cordic_sweep.py [--iterations 16]
"""

import argparse

import numpy as np

from hogpipe.cordic import CordicConfig, gradient_grid, polar_raw_arrays
from hogpipe.fixq import ANG, MAG
from hogpipe.golden import golden_polar


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--iterations", type=int, default=16)
    args = ap.parse_args()

    try:
        cfg = CordicConfig(iterations=args.iterations)
    except ValueError as e:
        ap.error(f"--iterations: {e}")
    gx, gy = gradient_grid()
    mag_raw, ang_raw, precise = polar_raw_arrays(gx, gy, cfg)

    true_mag, true_ang = golden_polar(gx, gy)

    d = np.abs(ang_raw / ANG.scale - true_ang)
    circ = np.minimum(d, 180.0 - d)
    nz = true_mag > 0
    mag_rel = np.abs(precise[nz] - true_mag[nz]) / true_mag[nz]
    iface = np.abs(mag_raw - precise * MAG.scale)

    print(f"iterations            {cfg.iterations}")
    print(f"inputs                {gx.size}")
    print(f"max angle err (deg)   {float(circ.max()):.6e}")
    print(f"mean angle err (deg)  {float(circ[nz].mean()):.6e}")
    print(f"max |mag| rel err     {float(mag_rel.max()):.6e}")
    print(f"max interface err     {float(iface.max()):.4f} ulp of U{MAG.int_bits}.{MAG.frac_bits}")
    worst = int(np.argmax(circ))
    print(f"worst angle input     gx={int(gx[worst])} gy={int(gy[worst])}")


if __name__ == "__main__":
    main()
