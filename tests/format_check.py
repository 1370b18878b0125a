"""Check one copy of the hogpipe package, edited to other formats: the
subprocess of tests/test_formats.py's format matrix.

Usage: python tests/format_check.py COPY consistent
       python tests/format_check.py COPY refused BUILD

COPY is the directory of the edited hogpipe package, which must be the
one first on the path (PYTHONPATH). `consistent`
checks three 64x64 frames: an all-taps StreamingPipeline equals
run_frame_fast, the golden mean_rel_err is within `hogpipe compare`'s
default threshold, and a naive check passes. That check spells no format,
unlike tests/oracles.py, so it holds for any: golden cells equal math.fsum
per bin over golden_votes of the frame's own gradients, and
exact_square_sums equals math.fsum of each block's squares.
`refused BUILD` runs the table builds in BUILDS order: each one before
BUILD succeeds, and BUILD raises ValueError.
"""

import math
import sys
from pathlib import Path

import numpy as np

COMPARE_THRESHOLD = 3e-2  # hogpipe compare's default --threshold
BUILDS = ("polar_table", "vote_table", "golden_vote_table")


def naive_cells(luma, golden_votes, cell_size, bin_count):
    """Each cell's bins: math.fsum of the golden votes of its pixels, the
    low weight at the low bin and the high weight at the next one."""
    p = np.pad(luma.astype(np.int64), 1, mode="edge")  # replicated borders
    lo, lo_w, hi_w = golden_votes(p[1:-1, 2:] - p[1:-1, :-2], p[2:, 1:-1] - p[:-2, 1:-1])
    h, w = luma.shape
    votes = [[[] for _ in range(bin_count)] for _ in range(h // cell_size * (w // cell_size))]
    pixels = zip(np.ndindex(h, w), *(a.ravel().tolist() for a in (lo, lo_w, hi_w)))
    for (r, c), b, low, high in pixels:
        cell = votes[r // cell_size * (w // cell_size) + c // cell_size]
        cell[b].append(low)
        cell[(b + 1) % bin_count].append(high)
    sums = [[math.fsum(v) for v in cell] for cell in votes]
    return np.array(sums).reshape(h // cell_size, w // cell_size, bin_count)


def check_consistent() -> None:
    from hogpipe import textures
    from hogpipe.fixq import CELL_SIZE
    from hogpipe.golden import compare, exact_square_sums, golden_hog, golden_votes
    from hogpipe.pipeline import PipelineConfig, StreamingPipeline, Tap, run_frame_fast
    from hogpipe.voting import BIN_COUNT

    side = 64
    frames = {
        "grating": textures.grating(side, side, 9.0, 30.0),
        "smooth": textures.smooth_noise(side, side, 1),
        "noise": textures.uniform_noise(side, side, 2),
    }
    for name, luma in frames.items():
        pipe = StreamingPipeline(PipelineConfig(side, side, taps=frozenset(Tap)))
        pipe.feed(luma.ravel().tolist())
        streamed, _ = pipe.finish()
        fast, _ = run_frame_fast(luma, PipelineConfig(side, side))
        assert np.array_equal(streamed.cells, fast.cells), name
        assert np.array_equal(streamed.blocks, fast.blocks), name
        records = {tap: pipe.captures(tap) for tap in Tap}
        cells = [tuple(bins) for bins in fast.cells.reshape(-1, BIN_COUNT).tolist()]
        assert [c.bins for c in records[Tap.CELLS]] == cells, name

        gold = golden_hog(luma)
        err = compare(fast, gold).mean_rel_err
        assert err <= COMPARE_THRESHOLD, f"{name}: mean_rel_err {err}"
        naive = naive_cells(luma, golden_votes, CELL_SIZE, BIN_COUNT)
        assert np.array_equal(gold.cells, naive), name
        rows, cols = gold.cells.shape[:2]
        blocks = [[gold.cells[r : r + 2, c : c + 2].ravel().tolist() for c in range(cols - 1)]
                  for r in range(rows - 1)]
        squares = [[math.fsum(v * v for v in block) for block in row] for row in blocks]
        assert np.array_equal(exact_square_sums(gold.cells), squares), name
        print(f"{name} mean_rel_err={err:.6e}")


def check_refused(build: str) -> None:
    from hogpipe.cordic import CordicConfig, polar_table
    from hogpipe.golden import golden_vote_table
    from hogpipe.voting import vote_table

    cfg = CordicConfig()
    runs = (lambda: polar_table(cfg), lambda: vote_table(cfg), golden_vote_table)
    for name, run in zip(BUILDS, runs):
        if name != build:
            run()
            continue
        try:
            run()
        except ValueError as e:
            print(f"{name} refused: {e}")
            return
        raise AssertionError(f"{name} built")
    raise AssertionError(f"no build named {build}")


def main() -> None:
    copy, mode, *build = sys.argv[1:]
    import hogpipe

    assert Path(hogpipe.__file__).resolve().parent == Path(copy, "hogpipe").resolve()
    if mode == "consistent":
        check_consistent()
    else:
        check_refused(*build)


if __name__ == "__main__":
    main()
