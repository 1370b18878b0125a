"""Output digests: SHA-256 of the fixed pipeline's and the golden model's
outputs over a corpus, to show that two trees compute the same bits.

Prints one line per output: run_frame_fast cells and blocks, golden_hog
cells and blocks, the compare report's text without and with the
per-stage breakdown, and the streaming pipeline's cells, blocks and tap
records on the frame's top-left 64x64 crop (the whole frame if smaller),
from one run with every tap on. Each digest covers that output on every
corpus frame in order, arrays with their dtype and shape; the tap digest
covers each record's type and field values, taps in Tap order.

Usage: python scripts/output_digest.py [--width 640] [--height 480]
       [--count 20] [--seed 0]
"""

import argparse
import dataclasses
import hashlib

from hogpipe.errors import DimensionError
from hogpipe.golden import compare, golden_hog
from hogpipe.pipeline import PipelineConfig, StreamingPipeline, Tap, run_frame_fast
from hogpipe.textures import make_corpus

OUTPUTS = (
    "fast_cells",
    "fast_blocks",
    "golden_cells",
    "golden_blocks",
    "compare_text",
    "compare_text_per_stage",
    "stream_cells",
    "stream_blocks",
    "stream_taps",
)
STREAM_CROP = 64  # side of the crop the per-pixel streaming path runs on


def frame_outputs(luma, cfg):
    """The outputs of one frame, in OUTPUTS order, as bytes."""
    hog, _ = run_frame_fast(luma, cfg)
    gold = golden_hog(luma)
    texts = [compare(hog, gold, per_stage=flag).as_text() for flag in (False, True)]
    crop = luma[:STREAM_CROP, :STREAM_CROP]
    pipe = StreamingPipeline(PipelineConfig(crop.shape[1], crop.shape[0], taps=frozenset(Tap)))
    pipe.feed(crop.ravel().tolist())
    streamed, _ = pipe.finish()
    return [
        *map(array_bytes, (hog.cells, hog.blocks, gold.cells, gold.blocks)),
        *(t.encode() + b"\n" for t in texts),
        *map(array_bytes, (streamed.cells, streamed.blocks)),
        b"".join(record_bytes(r) for tap in Tap for r in pipe.captures(tap)),
    ]


def array_bytes(a):
    """An array's dtype, shape and contents, as bytes."""
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def record_bytes(record):
    """A tap record's type name and field values, an array field as its bytes."""
    values = (getattr(record, f.name) for f in dataclasses.fields(record))
    return repr([
        type(record).__name__, *(array_bytes(v) if hasattr(v, "tobytes") else v for v in values)
    ]).encode() + b"\n"


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
