"""Per-texture accuracy sweep: fixed pipeline vs float reference.

Prints one line per corpus frame with the blockwise mean relative error
and the worst single descriptor element, then the corpus mean.

Usage: python scripts/accuracy_sweep.py [--width 640] [--height 480]
       [--count 20] [--seed 0]
"""

import argparse

from hogpipe.errors import DimensionError
from hogpipe.golden import compare, golden_hog
from hogpipe.pipeline import PipelineConfig, run_frame_fast
from hogpipe.textures import make_corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=640)
    ap.add_argument("--height", type=int, default=480)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        cfg = PipelineConfig(width=args.width, height=args.height)
    except DimensionError as e:
        ap.error(f"--width/--height: {e}")
    rows = []
    for name, luma in make_corpus(args.count, args.width, args.height, args.seed):
        hog, _ = run_frame_fast(luma, cfg)
        rep = compare(hog, golden_hog(luma))
        rows.append((rep.mean_rel_err, rep.max_abs_err, name))

    rows.sort(reverse=True)
    print(f"{'frame':22s} {'mean_rel_err':>12s} {'max_abs_err':>12s}")
    for mean_err, max_err, name in rows:
        print(f"{name:22s} {mean_err:12.3e} {max_err:12.3e}")
    corpus_mean = sum(r[0] for r in rows) / len(rows)
    print(f"{'corpus mean':22s} {corpus_mean:12.3e}")


if __name__ == "__main__":
    main()
