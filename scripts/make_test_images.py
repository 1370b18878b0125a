"""Write the synthetic corpus out as PGM files for CLI experiments.

Usage: python scripts/make_test_images.py OUTDIR [--width 640]
       [--height 480] [--count 20] [--seed 0]

Writes at least COUNT frames; the 8 fixed textures always come first, so
a COUNT below 8 still writes 8.
"""

import argparse
import os

from hogpipe.errors import DimensionError
from hogpipe.ingest import write_pgm
from hogpipe.pipeline import PipelineConfig
from hogpipe.textures import make_corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir")
    ap.add_argument("--width", type=int, default=640)
    ap.add_argument("--height", type=int, default=480)
    ap.add_argument(
        "--count", type=int, default=20,
        help="at least COUNT frames; the 8 fixed textures always come first",
    )
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:  # only frames the pipeline can take
        PipelineConfig(width=args.width, height=args.height)
    except DimensionError as e:
        ap.error(f"--width/--height: {e}")

    os.makedirs(args.outdir, exist_ok=True)
    for name, luma in make_corpus(args.count, args.width, args.height, args.seed):
        path = os.path.join(args.outdir, f"{name}.pgm")
        write_pgm(path, luma)
        print(path)


if __name__ == "__main__":
    main()
