"""Command-line front end and the on-disk feature-file format.

Four subcommands: extract (image to feature file), compare (fixed
pipeline vs float reference on one image), bench (throughput), detect
(sliding-window scoring to CSV).

Exit codes: 0 success, 1 I/O, 2 malformed input, 3 bad dimensions,
4 mismatch (weight count, or a comparison over threshold).
"""

import argparse
import math
import struct
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import detector
from .blocks import BLOCK_VALUES, block_grid, dequantize
from .errors import CountMismatch, DimensionError, FormatError, LayoutError
from .fixq import LUMA
from .golden import compare, golden_hog
from .ingest import load_luma
from .pipeline import PipelineConfig, run_frame_fast
from .voting import BIN_COUNT, vote_table

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_DIMENSION = 3
EXIT_MISMATCH = 4

VIEW_CELL_RAW = 0
VIEW_BLOCK_NORM = 1

_MAGIC = b"HOGF"
_VERSION = 1
# magic, version, view, width_cells, height_cells, bins
_HEADER = struct.Struct("<4sHHIII")
_VALUE = np.dtype("<f4")


@dataclass(frozen=True)
class FeatureFile:
    view: int
    width_cells: int
    height_cells: int
    bins: int
    values: np.ndarray  # float32, flat, row-major with bins innermost


def feature_count(view: int, width_cells: int, height_cells: int) -> int:
    """Values a view holds for a cell grid; rejects grids the view cannot fill."""
    grid = f"{width_cells}x{height_cells}"
    if view == VIEW_CELL_RAW:
        if width_cells < 1 or height_cells < 1:
            raise FormatError(f"cell view needs at least one cell, got {grid}")
        return width_cells * height_cells * BIN_COUNT
    if view == VIEW_BLOCK_NORM:
        blocks = block_grid(height_cells, width_cells)
        if min(blocks) < 1:
            raise FormatError(f"block view needs at least 2x2 cells, got {grid}")
        return math.prod(blocks) * BLOCK_VALUES
    raise FormatError(f"unknown view {view}")


def write_features(path, view: int, width_cells: int, height_cells: int, values) -> None:
    payload = np.ascontiguousarray(values, dtype=_VALUE).ravel()
    if payload.size != feature_count(view, width_cells, height_cells):
        raise FormatError(
            f"payload has {payload.size} values, header implies "
            f"{feature_count(view, width_cells, height_cells)}"
        )
    with open(path, "wb") as f:
        f.write(
            _HEADER.pack(_MAGIC, _VERSION, view, width_cells, height_cells, BIN_COUNT)
        )
        f.write(payload)


def read_features(path) -> FeatureFile:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise FormatError("file shorter than the fixed header")
    magic, version, view, wc, hc, bins = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    if bins != BIN_COUNT:
        raise FormatError(f"bin count {bins} is not {BIN_COUNT}")
    count = feature_count(view, wc, hc)
    payload = len(blob) - _HEADER.size
    if payload != count * _VALUE.itemsize:
        raise FormatError(
            f"payload holds {payload} bytes, header implies {count} float32 values"
        )
    values = np.frombuffer(blob, dtype=_VALUE, offset=_HEADER.size)
    return FeatureFile(view, wc, hc, bins, values.copy())


def _print_stats(**stats) -> None:
    for key, val in stats.items():
        print(f"{key}={val}")


def cmd_extract(args) -> int:
    frame = load_luma(args.input, bayer=args.bayer)
    cfg = PipelineConfig(width=frame.width, height=frame.height)
    if args.golden:
        g = golden_hog(frame.luma)
        cells, blocks = g.cells, g.blocks
        n_cells, n_blocks = cells.size // BIN_COUNT, blocks.size // BLOCK_VALUES
        _print_stats(pixels_in=cfg.width * cfg.height, cells_out=n_cells, blocks_out=n_blocks)
    else:
        hog, stats = run_frame_fast(frame.luma, cfg)
        cells, blocks = dequantize(hog.cells), hog.blocks
        _print_stats(**asdict(stats), pixels_per_step=f"{stats.pixels_per_step:.6f}")
    hc, wc = cells.shape[:2]
    if args.view == "cell":
        write_features(args.output, VIEW_CELL_RAW, wc, hc, cells)
    else:
        write_features(args.output, VIEW_BLOCK_NORM, wc, hc, blocks)
    return EXIT_OK


def cmd_compare(args) -> int:
    frame = load_luma(args.input)
    cfg = PipelineConfig(width=frame.width, height=frame.height)
    hog, _ = run_frame_fast(frame.luma, cfg)
    gold = golden_hog(frame.luma)
    report = compare(hog, gold, per_stage=True)
    print(report.as_text())
    return EXIT_OK if report.mean_rel_err <= args.threshold else EXIT_MISMATCH


def cmd_bench(args) -> int:
    cfg = PipelineConfig(width=args.width, height=args.height)
    rng = np.random.default_rng(args.seed)
    vote_table(cfg.cordic)  # build the memoized tables outside the timed loop
    elapsed, stats = 0.0, None
    for _ in range(args.frames):
        luma = rng.integers(0, LUMA.raw_max + 1, size=(args.height, args.width), dtype=np.uint8)
        t0 = time.perf_counter()
        _, stats = run_frame_fast(luma, cfg)
        elapsed += time.perf_counter() - t0
    pixels = args.frames * args.width * args.height
    mps = pixels / elapsed / 1e6
    _print_stats(
        frames=args.frames,
        width=args.width,
        height=args.height,
        pixels_per_step=f"{stats.pixels_per_step:.6f}",
        megapixels_per_second=f"{mps:.2f}",
        fps_equivalent=f"{pixels / elapsed / (args.width * args.height):.1f}",
    )
    return EXIT_OK


def cmd_detect(args) -> int:
    model = detector.load_model(args.weights)
    frame = load_luma(args.input)
    cfg = PipelineConfig(width=frame.width, height=frame.height)
    hog, _ = run_frame_fast(frame.luma, cfg)
    hits = detector.detect(hog, model, args.stride)
    lines = ["x,y,score"]
    lines += [f"{d.x},{d.y},{d.score!r}" for d in hits]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse type: an int, refused unless it is at least low."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _threshold(text: str) -> float:
    x = float(text)
    if not x >= 0.0:  # also refuses NaN, which every comparison fails
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text}")
    return x


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hogpipe")
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="image to feature file")
    ex.add_argument("--input", required=True)
    ex.add_argument("--bayer", action="store_true")
    ex.add_argument("--output", required=True)
    ex.add_argument("--view", choices=["cell", "block"], required=True)
    ex.add_argument("--golden", action="store_true")
    ex.set_defaults(func=cmd_extract)

    cp = sub.add_parser("compare", help="fixed pipeline vs float reference")
    cp.add_argument("--input", required=True)
    cp.add_argument("--threshold", type=_threshold, default=0.03)
    cp.set_defaults(func=cmd_compare)

    be = sub.add_parser("bench", help="throughput on synthetic frames")
    be.add_argument("--width", type=int, required=True)
    be.add_argument("--height", type=int, required=True)
    be.add_argument("--frames", type=_int_at_least(1), required=True)
    be.add_argument("--seed", type=_int_at_least(0), default=0)
    be.set_defaults(func=cmd_bench)

    de = sub.add_parser("detect", help="sliding-window scoring to CSV")
    de.add_argument("--input", required=True)
    de.add_argument("--weights", required=True)
    de.add_argument("--stride", type=_int_at_least(1), default=1)
    de.add_argument("--out")
    de.set_defaults(func=cmd_detect)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (FormatError, LayoutError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except DimensionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIMENSION
    except CountMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
