import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe.blocks import BLOCK_EPSILON, HogFrame, block_corners, dequantize
from hogpipe.errors import DimensionError
from hogpipe.golden import (
    DiffReport,
    GoldenHog,
    check_vote_weights,
    compare,
    exact_bincount,
    exact_square_sums,
    fsum_arrays,
    golden_hog,
    golden_vote_table,
)
from hogpipe.pipeline import PipelineConfig, run_frame_fast
from hogpipe.textures import blobs, make_corpus, ramp, uniform_noise
from hogpipe.voting import BIN_COUNT
from oracles import ref_hog


def test_constant_frame_is_all_zero():
    for level in (0, 128, 255):
        g = golden_hog(np.full((16, 24), level, dtype=np.uint8))
        assert g.cells.shape == (2, 3, 9)
        assert g.blocks.shape == (1, 2, 36)
        assert np.all(g.cells == 0.0)
        assert np.all(g.blocks == 0.0)


def test_horizontal_ramp_splits_between_wraparound_bins():
    # luma = column index: gx = 2 interior, gy = 0, orientation 0 degrees.
    # 0 is equidistant from centers 170 and 10, so each pixel votes half
    # its magnitude into bin 8 and half into bin 0, exactly.
    luma = np.tile(np.arange(32, dtype=np.uint8), (32, 1))
    g = golden_hog(luma)
    interior = g.cells[:, 1:3]
    assert np.all(interior[..., 0] == 64.0)  # 64 px * mag 2 * 0.5
    assert np.all(interior[..., 8] == 64.0)
    assert np.all(interior[..., 1:8] == 0.0)
    # frame-edge cells: 8 border pixels per cell have gx = 1
    edge = g.cells[:, [0, 3]]
    assert np.all(edge[..., 0] == 60.0)
    assert np.all(edge[..., 8] == 60.0)


def test_rejects_non_multiple_of_eight():
    with pytest.raises(DimensionError):
        golden_hog(np.zeros((12, 16), dtype=np.uint8))


def test_matches_naive_oracle_exactly_16x16():
    rng = np.random.default_rng(42)
    luma = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    g = golden_hog(luma)
    cells, blocks = ref_hog(luma)
    assert np.array_equal(g.cells, cells)
    assert np.array_equal(g.blocks, blocks)


@pytest.mark.parametrize("shape", [(24, 24), (16, 32), (32, 16)])
def test_matches_naive_oracle_exactly_other_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    luma = rng.integers(0, 256, size=shape, dtype=np.uint8)
    g = golden_hog(luma)
    cells, blocks = ref_hog(luma)
    assert np.array_equal(g.cells, cells)
    assert np.array_equal(g.blocks, blocks)


@pytest.mark.parametrize("epsilon", [0.0, 1e-4, 2e-3, float("nan")])
def test_golden_hog_rejects_any_epsilon_but_the_block_one(epsilon):
    luma = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ValueError, match="block epsilon"):
        golden_hog(luma, epsilon)
    assert np.array_equal(golden_hog(luma, BLOCK_EPSILON).blocks, golden_hog(luma).blocks)


def fixed_and_golden(luma):
    """A fixed frame of luma and a GoldenHog holding the same values."""
    hog, _ = run_frame_fast(luma, PipelineConfig(luma.shape[1], luma.shape[0]))
    return hog, GoldenHog(dequantize(hog.cells), hog.blocks)


def test_compare_of_identical_frames_is_zero():
    rng = np.random.default_rng(1)
    luma = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    rep = compare(*fixed_and_golden(luma))
    assert rep.mean_rel_err == 0.0
    assert rep.max_abs_err == 0.0
    assert rep.block_count == 1


def test_compare_zero_against_zero_uses_epsilon_guard():
    cells, blocks = np.zeros((2, 2, 9), dtype=np.int64), np.zeros((1, 1, 36))
    rep = compare(HogFrame(cells, blocks), GoldenHog(cells.astype(float), blocks))
    assert rep.mean_rel_err == 0.0


def test_compare_max_abs_is_symmetric():
    rng = np.random.default_rng(2)
    a_fixed, a_gold = fixed_and_golden(rng.integers(0, 256, (24, 24), dtype=np.uint8))
    b_fixed, b_gold = fixed_and_golden(rng.integers(0, 256, (24, 24), dtype=np.uint8))
    fwd, rev = compare(a_fixed, b_gold), compare(b_fixed, a_gold)
    assert fwd.max_abs_err == rev.max_abs_err
    assert fwd.mean_rel_err >= 0.0
    assert rev.mean_rel_err >= 0.0


def test_compare_rejects_mismatched_geometry():
    a = HogFrame(np.zeros((2, 2, 9), dtype=np.int64), np.zeros((1, 1, 36)))
    b = GoldenHog(np.zeros((2, 3, 9)), np.zeros((1, 2, 36)))
    with pytest.raises(DimensionError):
        compare(a, b)


def test_compare_counts_blocks_and_worst_element():
    fixed = HogFrame(np.zeros((4, 5, 9), dtype=np.int64), np.zeros((3, 4, 36)))
    gold = GoldenHog(np.zeros((4, 5, 9)), np.full((3, 4, 36), 0.25))
    rep = compare(fixed, gold)
    assert rep.block_count == 12
    assert rep.max_abs_err == 0.25


def test_per_stage_breakdown_includes_cells():
    rng = np.random.default_rng(3)
    luma = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    rep = compare(*fixed_and_golden(luma), per_stage=True)
    assert rep.per_stage["cell_max_abs_err"] == 0.0
    assert rep.per_stage["block_max_abs_err"] == 0.0


def test_report_text_is_line_oriented():
    rep = DiffReport(0.0123, 0.004, 77)
    text = rep.as_text()
    assert "mean_rel_err=0.0123" in text.splitlines()[1]
    assert len(text.splitlines()) == 3


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_agreement_random_small_frames(seed):
    rng = np.random.default_rng(seed)
    h = 8 * int(rng.integers(1, 4))
    w = 8 * int(rng.integers(1, 4))
    luma = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    g = golden_hog(luma)
    cells, blocks = ref_hog(luma)
    assert np.array_equal(g.cells, cells)
    assert np.array_equal(g.blocks, blocks)


def test_vote_weights_fit_the_two_limb_sum():
    # golden_hog's exact cell sums need every weight below 2**9 and a
    # whole multiple of 2**-61; the table holds every reachable gradient pair
    table = golden_vote_table()
    for wts in table.weights:
        assert np.all(wts >= 0.0)
        assert np.all(wts < 2.0**9)
        scaled = wts * 2.0**61
        assert np.array_equal(scaled, np.floor(scaled))


@pytest.mark.parametrize("bad", [3 * 2.0**-76, 2.0**9, -2.0**-61])
def test_vote_weight_check_rejects_weights_off_the_limb_grid(bad):
    ok = np.array([0.0, 2.0**-61, 360.5, 2.0**9 - 2.0**-44])
    check_vote_weights(ok)
    with pytest.raises(ValueError):
        check_vote_weights(np.append(ok, bad))


def test_golden_table_is_not_built_by_import_or_the_fixed_path():
    # the golden table is built on the first golden call, so importing the
    # package, building the fixed path's vote table and running both fixed
    # paths (the streaming one reads the vote table per pixel) leave it empty
    code = (
        "import numpy as np\n"
        "import hogpipe\n"
        "from hogpipe import golden, pipeline, voting\n"
        "voting.vote_table(hogpipe.CordicConfig())\n"
        "luma = np.random.default_rng(0).integers(0, 256, (16, 16), dtype=np.uint8)\n"
        "cfg = pipeline.PipelineConfig(16, 16)\n"
        "pipeline.run_frame(luma, cfg)\n"
        "pipeline.run_frame_fast(luma, cfg)\n"
        "print(golden.golden_vote_table.cache_info().currsize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert proc.stdout.split() == ["0"]


# vote weights that stress exact_bincount's limb split, drawn as (rng, size)
BINCOUNT_WEIGHTS = {
    # all near the largest weight (coarse limb at its widest) or all near
    # the smallest nonzero one (fine limb at its widest)
    "256.0-512.0": lambda rng, size: rng.uniform(2.0**8, 2.0**9, size),
    "0.00366-0.00390625": lambda rng, size: rng.uniform(3.66e-3, 2.0**-8, size),
    # half a coarse step past a coarse multiple: the split ties
    "half-steps": lambda rng, size: rng.integers(0, 2**35, size) * 2.0**-26 + 2.0**-27,
    # within half a coarse step of 2**9: the coarse limb rounds up to 2**9
    # and the fine limb is negative
    "below-512": lambda rng, size: 2.0**9 - rng.integers(1, 2**17, size, endpoint=True)
    * 2.0**-44,
    "table-max": lambda rng, size: np.full(size, golden_vote_table().weights.max()),
    # near 2**-22 on the 2**-74 grid, the finest check_vote_weights accepts at
    # LIMB_BITS 26: the float carries bits down to 2**-74, and the fine limb is
    # at its widest
    "2^-74-grid": lambda rng, size: rng.integers(2**51, 2**53, size) * 2.0**-74,
}


@pytest.mark.parametrize("kind", BINCOUNT_WEIGHTS)
def test_exact_bincount_is_fsum_on_worst_case_bins(kind):
    # 64 votes per bin. LIMB_BITS of 11 or less, or 39 or more, rounds some
    # of the first two kinds' totals. At 12, a fine-limb total here can pass
    # 2**53 steps only where the two sides fold, by one bit, which these
    # draws do not show
    rng = np.random.default_rng(0)
    # a bin sums 32 low weights keyed to it and 32 high weights keyed to
    # the bin below it (bin 8 for bin 0); two strips of 100 cell rows, each
    # fed both halves of its keys' votes
    lo_w, hi_w = BINCOUNT_WEIGHTS[kind](rng, (2, 200, BIN_COUNT, 32))
    check_vote_weights(np.stack([lo_w, hi_w]))
    keys = np.repeat(np.arange(100 * BIN_COUNT), 16)
    strips = [
        (rows, keys, lo_w[rows, :, half].ravel(), hi_w[rows, :, half].ravel())
        for rows in (slice(0, 100), slice(100, 200))
        for half in (slice(0, 16), slice(16, 32))
    ]
    got = exact_bincount(strips, (200, BIN_COUNT))
    votes = np.concatenate([lo_w, np.roll(hi_w, 1, axis=1)], axis=-1)
    want = [math.fsum(row) for row in votes.reshape(-1, 64).tolist()]
    assert np.array_equal(got.ravel(), want)


def _square_sum_rows():
    # 36-value rows of golden-like cell values: multiples of 2**-61 below
    # 23,081, at the extremes, mixed, spread over every scale, and with
    # squares straddling each limb cut of exact_square_sums
    rng = np.random.default_rng(0)
    n = (500, 36)
    largest = rng.uniform(23_000.0, 23_081.0, n)
    smallest = rng.uniform(2.0**-61, 2.0**-50, n)
    cases = {
        "largest": largest,
        "smallest": smallest,
        "mixed": np.where(rng.random(n) < 0.5, largest, smallest),
        "random": 2.0 ** rng.uniform(-61.0, 14.49, n),
    }
    for cut in (17, 64, 111):
        mid = 2.0 ** (-cut / 2)
        cases[f"cut{cut}"] = rng.uniform(0.9 * mid, 1.1 * mid, n)
        cases[f"cut{cut}-wide"] = 2.0 ** rng.uniform(-cut / 2 - 24, -cut / 2 + 2, n)
    return {k: np.floor(v * 2.0**61) * 2.0**-61 for k, v in cases.items()}


SQUARE_ROWS = _square_sum_rows()


@pytest.mark.parametrize("name", SQUARE_ROWS)
def test_exact_square_sums_is_fsum_on_worst_case_rows(name):
    rows = SQUARE_ROWS[name]
    assert np.all(rows >= 0.0) and np.all(rows < 23_081.0)
    # the rows' values as a 40x50 cell grid; its 39x49 blocks overlap
    cells = rows.reshape(40, 50, BIN_COUNT)
    got = exact_square_sums(cells)
    quads = np.concatenate(block_corners(cells), axis=2).reshape(-1, 4 * BIN_COUNT)
    want = [math.fsum(row) for row in np.square(quads).tolist()]
    assert got.shape == (39, 49)
    assert np.array_equal(got.ravel(), want)


def test_exact_square_sums_is_fsum_on_the_finest_weight_grid():
    # cell values on the 2**-74 grid that check_vote_weights accepts at
    # LIMB_BITS 26, small enough that their squares, down to 2**-148, meet
    # every cut below 2**-64 and decide the rounded sum
    rng = np.random.default_rng(1)
    cells = np.floor(2.0 ** rng.uniform(-74.0, -40.0, (40, 50, BIN_COUNT)) * 2.0**74) * 2.0**-74
    got = exact_square_sums(cells)
    quads = np.concatenate(block_corners(cells), axis=2).reshape(-1, 4 * BIN_COUNT)
    want = [math.fsum(row) for row in np.square(quads).tolist()]
    assert np.array_equal(got.ravel(), want)


def _exact_square_values(units: int) -> list[float]:
    """Golden-like cell values whose squares are exact doubles summing to
    units * 2**-122: multiples a * 2**-61 with at most 26 significant bits
    in a, picked greedily."""
    values = []
    while units:
        a = math.isqrt(units)
        drop = max(0, a.bit_length() - 26)
        a = a >> drop << drop
        units -= a * a
        values.append(a * 2.0**-61)
    return values


def _tie_blocks():
    # a square sum half an ulp past a double whose mantissa is even or odd,
    # at three scales; exactly on the tie, past it by one 2**-122 square (a
    # cell value of 2**-61) or by a larger one, and short of it by either.
    # Where the growing expansion rounds up, as at an odd tie, a TwoSum
    # error is negative; there are such cases at every scale.
    cases = {}
    for top in (28, -20, -60):  # the sum's binade: ulp 2**(top - 52)
        larger = 2 ** max(1, (top + 69) // 2 - 10)  # a breaker's root, in 2**-61
        for parity in (0, 1):
            tie = 2 ** (top + 122) + parity * 2 ** (top + 70) + 2 ** (top + 69)
            name = f"2^{top}-{'odd' if parity else 'even'}"
            cases[f"{name}-tie"] = _exact_square_values(tie)
            cases[f"{name}-over-2^-122"] = _exact_square_values(tie) + [2.0**-61]
            cases[f"{name}-over-larger"] = _exact_square_values(tie) + [larger * 2.0**-61]
            cases[f"{name}-under-2^-122"] = _exact_square_values(tie - 1)
            cases[f"{name}-under-larger"] = _exact_square_values(tie - larger**2)
    return cases


TIE_BLOCKS = _tie_blocks()


@pytest.mark.parametrize("name", TIE_BLOCKS)
def test_exact_square_sums_is_fsum_on_ties(name):
    values = TIE_BLOCKS[name]
    assert len(values) <= 4 * BIN_COUNT
    assert all(v < 23_081.0 and v * 2.0**61 == int(v * 2.0**61) for v in values)
    cells = np.zeros(4 * BIN_COUNT)
    cells[: len(values)] = values
    # spread over the block's four cells
    cells = cells.reshape(BIN_COUNT, 2, 2).transpose(1, 2, 0)
    want = math.fsum(np.square(values).tolist())
    if name.endswith("-tie"):  # the construction is a tie: fsum rounds to even
        assert want == math.fsum(np.square(values[:1]).tolist()) * (
            1.0 + (2.0**-51 if "odd" in name else 0.0)
        )
    assert exact_square_sums(cells).tolist() == [[want]]


def test_expansion_rounds_ties_with_negative_errors_as_fsum():
    # limb totals of 2**32 + 2**-21 - 2**-122 (and + 2**-20 for an odd
    # mantissa): the two smallest limbs add to 2**-64 - 2**-122, which
    # rounds up and leaves -2**-122 below the tie; then the same past the
    # tie and further short of it, so neighbouring elements' masks differ
    t0 = np.full(6, 2.0**32)
    t1 = np.array([0, 1, 0, 1, 0, 1]) * 2.0**-20 + 2.0**-21 - 2.0**-64
    t2 = np.full(6, 2.0**-64 - 2.0**-111)
    t3 = np.array([1, 1, 2, 2, 0, 0]) * (2.0**-111 - 2.0**-122)
    got = fsum_arrays([t3, t2, t1, t0])
    want = [math.fsum(row) for row in np.stack([t0, t1, t2, t3], axis=1).tolist()]
    assert want[:2] == [2.0**32, 2.0**32 + 2.0**-20]  # just short of the tie
    assert np.array_equal(got, want)


# limb totals inside exact_square_sums' bounds: 36 limbs of at most 47 bits
# on the grids 2**-17, 2**-64 and 2**-111, and 36 rests of at most 11 bits
# on the 2**-122 grid
_LIMB_TOTALS = st.tuples(
    *(st.integers(0, 36 * 2**47 - 1).map(lambda k, g=g: k * 2.0**-g) for g in (17, 64, 111)),
    st.integers(0, 36 * 2**11 - 1).map(lambda k: k * 2.0**-122),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LIMB_TOTALS, min_size=1, max_size=20))
def test_expansion_is_fsum_on_limb_totals(rows):
    limbs = np.array(rows)
    got = fsum_arrays(limbs[:, ::-1].T)  # smallest limb first
    assert np.array_equal(got, [math.fsum(row) for row in rows])


# six corpus textures plus the ramp, noise and blob generators at 160x128,
# large enough that cell bins hold their full 64 pixels' votes
FRAMES = [make_corpus(11, 160, 128, seed=7)[i] for i in (2, 4, 6, 8, 9, 10)] + [
    ("ramp", ramp(160, 128, slope=3)),
    ("noise", uniform_noise(160, 128, seed=5)),
    ("blobs", blobs(160, 128, seed=5)),
]


@pytest.mark.parametrize("luma", [f[1] for f in FRAMES], ids=[f[0] for f in FRAMES])
def test_matches_naive_oracle_exactly_on_corpus_and_textures(luma):
    g = golden_hog(luma)
    cells, blocks = ref_hog(luma)
    assert np.array_equal(g.cells, cells)
    assert np.array_equal(g.blocks, blocks)
