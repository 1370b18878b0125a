import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe.blocks import (
    BLOCK_VALUES,
    BlockAssembler,
    block_grid,
    block_norm,
    dequantize,
    normalize_grid,
)
from hogpipe.fixq import CELL_ACC, MAG
from oracles import ref_normalize_block


def stream_blocks(grid):
    """The blocks a row-major stream of a (rows, cols, 9) grid's cells
    completes, in emission order."""
    asm = BlockAssembler(len(grid[0]))
    blocks = (asm.add([int(b) for b in bins]) for row in grid for bins in row)
    return [b for b in blocks if b is not None]


def normalize_quad(make_bins):
    """The one block of a 2x2 cell grid whose cells, row-major, hold
    make_bins(0) .. make_bins(3)."""
    grid = np.array([[make_bins(0), make_bins(1)], [make_bins(2), make_bins(3)]])
    return normalize_grid(grid)[0, 0]


def test_uniform_threes_normalize_to_one_sixth():
    # every dequantized entry 3.0: 3 / sqrt(36*9 + 1e-6)
    raw = 3 * MAG.scale
    b = normalize_quad(lambda _: [raw] * 9)
    assert b.shape == (BLOCK_VALUES,)
    assert np.all(b == 0.16666666640946504)


def test_all_zero_block_maps_to_zero_vector():
    b = normalize_quad(lambda _: [0] * 9)
    assert np.all(b == 0.0)


def test_single_unit_entry():
    def bins(i):
        out = [0] * 9
        if i == 0:
            out[0] = MAG.scale
        return out

    b = normalize_quad(bins)
    assert b[0] == 0.999999500000375
    assert np.all(b[1:] == 0.0)


def test_norm_never_exceeds_one():
    # mathematically < 1; float64 can round the recomputed norm up to 1.0
    rng = np.random.default_rng(7)
    for _ in range(50):
        raws = rng.integers(0, 1 << 22, size=(4, 9))
        b = normalize_quad(lambda i: raws[i])
        assert np.linalg.norm(b) <= 1.0 + 1e-12


def test_against_fsum_reference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        raws = rng.integers(0, 1 << 22, size=(4, 9))
        b = normalize_quad(lambda i: raws[i])
        # every value is a multiple of 2**-6 below 2**16, so each square and
        # their sum are exact in float64 and the two agree bit for bit
        assert np.array_equal(b, ref_normalize_block(raws.ravel().tolist()))


def test_block_square_sums_fit_a_double_exactly():
    # the bound behind per-cell square sums: a block's 36 raw squares sum
    # to an integer below 2**50, so after dequantization (2**-12 per raw
    # square unit) every partial sum of them is exact in float64
    assert BLOCK_VALUES * CELL_ACC.raw_max**2 < 2**50


BOUND_GRIDS = {
    "all-max": np.full((2, 2, 9), CELL_ACC.raw_max),
    "max-zero-one": np.resize([CELL_ACC.raw_max, 0, 1, CELL_ACC.raw_max], (2, 2, 9)),
    "random": np.random.default_rng(29).integers(0, CELL_ACC.raw_max + 1, size=(2, 2, 9)),
}


@pytest.mark.parametrize("name", BOUND_GRIDS)
def test_paths_agree_bit_for_bit_at_the_accumulator_bound(name):
    grid = BOUND_GRIDS[name]
    (streamed,) = stream_blocks(grid)
    batch = normalize_grid(grid)[0, 0]
    ref = ref_normalize_block(grid.ravel().tolist())
    assert np.array_equal(streamed, batch)
    assert np.array_equal(batch, ref)


@pytest.mark.parametrize("name", BOUND_GRIDS)
def test_scalar_and_array_conversions_agree(name):
    # the streamed block converts and divides Python numbers one at a time,
    # the batch path whole arrays; both go through dequantize and block_norm,
    # here on every partial square sum up to the grid's block (all-max: the bound)
    raw = BOUND_GRIDS[name].ravel()
    values = dequantize(raw)
    assert [dequantize(int(b)) for b in raw] == values.tolist()
    square_sums = np.cumsum(values * values)
    assert [float(block_norm(float(s))) for s in square_sums] == block_norm(square_sums).tolist()


def test_concatenation_order_is_row_major():
    b = normalize_quad(lambda i: [(i + 1) * MAG.scale] + [0] * 8)
    lead = b[[0, 9, 18, 27]]
    assert np.all(np.diff(lead) > 0)  # tl < tr < bl < br
    assert lead[3] == pytest.approx(4 * lead[0], rel=1e-12)


def test_two_by_two_grid_yields_one_block():
    grid = [[[1 * MAG.scale] * 9, [2 * MAG.scale] * 9],
            [[3 * MAG.scale] * 9, [4 * MAG.scale] * 9]]
    blocks = stream_blocks(grid)
    assert len(blocks) == 1
    ref = normalize_quad(lambda i: [(i + 1) * MAG.scale] * 9)
    assert np.array_equal(blocks[0], ref)


def test_block_count_for_full_frame_grid():
    # 80x60 cells -> 79x59 blocks, emitted row-major
    rng = np.random.default_rng(3)
    grid = rng.integers(0, 1 << 16, size=(60, 80, 9))
    blocks = stream_blocks(grid)
    assert block_grid(60, 80) == (59, 79)
    assert len(blocks) == math.prod(block_grid(60, 80)) == 79 * 59 == 4661
    assert sum(len(b) for b in blocks) == 4661 * 36 == 167796
    assert np.array_equal(np.reshape(blocks, (59, 79, 36)), normalize_grid(grid))


def test_single_row_or_column_yields_no_blocks():
    one_row = [[[0] * 9 for _ in range(5)]]
    assert stream_blocks(one_row) == []
    one_col = [[[0] * 9] for _ in range(5)]
    assert stream_blocks(one_col) == []


def test_buffer_holds_at_most_one_row_plus_one_cell():
    rng = np.random.default_rng(5)
    grid = rng.integers(0, 1 << 16, size=(6, 6, 9))
    asm = BlockAssembler(6)
    peak = 0
    for n, bins in enumerate(grid.reshape(-1, 9).tolist(), start=1):
        asm.add(bins)
        assert asm.buffered_cells == min(n, 6 + 1)
        peak = max(peak, asm.buffered_cells)
    assert peak <= 6 + 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6))
def test_streaming_matches_direct_assembly(seed, rows, cols):
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 1 << 20, size=(rows, cols, 9))
    streamed = stream_blocks(grid)
    assert len(streamed) == (rows - 1) * (cols - 1)
    k = 0
    for r in range(rows - 1):
        for c in range(cols - 1):
            direct = normalize_grid(grid[r : r + 2, c : c + 2])[0, 0]
            assert np.array_equal(streamed[k], direct)
            k += 1
