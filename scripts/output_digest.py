"""Output digests: SHA-256 of the fixed pipeline's and the golden model's
outputs over a corpus, to show that two trees compute the same bits.

Prints one line per output: run_frame_fast cells and blocks, golden_hog
cells and blocks, and the compare report's text without and with the
per-stage breakdown. Each digest covers that output on every corpus frame
in order, arrays with their dtype and shape.

Usage: python scripts/output_digest.py [--width 640] [--height 480]
       [--count 20] [--seed 0]
"""

import argparse
import hashlib

from hogpipe.errors import DimensionError
from hogpipe.golden import compare, golden_hog
from hogpipe.pipeline import PipelineConfig, run_frame_fast
from hogpipe.textures import make_corpus

OUTPUTS = (
    "fast_cells",
    "fast_blocks",
    "golden_cells",
    "golden_blocks",
    "compare_text",
    "compare_text_per_stage",
)


def frame_outputs(luma, cfg):
    """The outputs of one frame, in OUTPUTS order, as bytes."""
    hog, _ = run_frame_fast(luma, cfg)
    gold = golden_hog(luma)
    arrays = [hog.cells, hog.blocks, gold.cells, gold.blocks]
    texts = [compare(hog, gold, per_stage=flag).as_text() for flag in (False, True)]
    return [
        *(f"{a.dtype.str}{a.shape}".encode() + a.tobytes() for a in arrays),
        *(t.encode() + b"\n" for t in texts),
    ]


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
    digests = [hashlib.sha256() for _ in OUTPUTS]
    for _, luma in make_corpus(args.count, args.width, args.height, args.seed):
        for digest, data in zip(digests, frame_outputs(luma, cfg)):
            digest.update(data)
    for name, digest in zip(OUTPUTS, digests):
        print(f"{digest.hexdigest()}  {name}")


if __name__ == "__main__":
    main()
