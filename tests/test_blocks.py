import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe.blocks import (
    BLOCK_EPSILON,
    BLOCK_VALUES,
    BlockAssembler,
    block_count,
    normalize_block,
)
from hogpipe.cells import CellHistogram
from hogpipe.errors import OrderError, ShapeMismatch
from hogpipe.fixq import MAG


def stream_blocks(cells, cells_cols):
    """The blocks a row-major cell stream completes, in emission order."""
    asm = BlockAssembler(cells_cols)
    blocks = (asm.add(cell) for cell in cells)
    return [b for b in blocks if b is not None]


def hist(bins, r, c):
    return CellHistogram(tuple(int(b) for b in bins), r, c)


def quad(make_bins, r=0, c=0):
    """2x2 neighborhood with top-left at cell (r, c)."""
    return (
        hist(make_bins(0), r, c),
        hist(make_bins(1), r, c + 1),
        hist(make_bins(2), r + 1, c),
        hist(make_bins(3), r + 1, c + 1),
    )


def row_major_cells(grid):
    rows, cols = len(grid), len(grid[0])
    for r in range(rows):
        for c in range(cols):
            yield hist(grid[r][c], r, c)


def test_uniform_threes_normalize_to_one_sixth():
    # every dequantized entry 3.0: 3 / sqrt(36*9 + 1e-6)
    raw = 3 * MAG.scale
    b = normalize_block(*quad(lambda _: [raw] * 9))
    assert b.values.shape == (BLOCK_VALUES,)
    assert np.all(b.values == 0.16666666640946504)


def test_all_zero_block_maps_to_zero_vector():
    b = normalize_block(*quad(lambda _: [0] * 9))
    assert np.all(b.values == 0.0)


def test_single_unit_entry():
    def bins(i):
        out = [0] * 9
        if i == 0:
            out[0] = MAG.scale
        return out

    b = normalize_block(*quad(bins))
    assert b.values[0] == 0.999999500000375
    assert np.all(b.values[1:] == 0.0)


def test_norm_never_exceeds_one():
    # mathematically < 1; float64 can round the recomputed norm up to 1.0
    rng = np.random.default_rng(7)
    for _ in range(50):
        raws = rng.integers(0, 1 << 22, size=(4, 9))
        b = normalize_block(*quad(lambda i: raws[i]))
        assert np.linalg.norm(b.values) <= 1.0 + 1e-12


def test_against_fsum_reference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        raws = rng.integers(0, 1 << 22, size=(4, 9))
        b = normalize_block(*quad(lambda i: raws[i]))
        flat = [raws[i][j] / MAG.scale for i in range(4) for j in range(9)]
        denom = math.sqrt(math.fsum(x * x for x in flat) + BLOCK_EPSILON**2)
        ref = np.array([x / denom for x in flat])
        assert np.max(np.abs(b.values - ref)) <= 1e-4 * max(1.0, np.max(np.abs(ref)))


def test_concatenation_order_is_row_major():
    mark = lambda tag: [tag] + [0] * 8
    b = normalize_block(
        hist(mark(1 * MAG.scale), 0, 0),
        hist(mark(2 * MAG.scale), 0, 1),
        hist(mark(3 * MAG.scale), 1, 0),
        hist(mark(4 * MAG.scale), 1, 1),
    )
    lead = b.values[[0, 9, 18, 27]]
    assert np.all(np.diff(lead) > 0)  # tl < tr < bl < br
    assert lead[3] == pytest.approx(4 * lead[0], rel=1e-12)


def test_rejects_non_adjacent_cells():
    tl, tr, bl, br = quad(lambda _: [0] * 9)
    with pytest.raises(ShapeMismatch):
        normalize_block(tl, tr, br, bl)
    with pytest.raises(ShapeMismatch):
        normalize_block(tl, hist([0] * 9, 0, 2), bl, br)


def test_two_by_two_grid_yields_one_block():
    grid = [[[1 * MAG.scale] * 9, [2 * MAG.scale] * 9],
            [[3 * MAG.scale] * 9, [4 * MAG.scale] * 9]]
    blocks = list(stream_blocks(row_major_cells(grid), 2))
    assert len(blocks) == 1
    assert (blocks[0].block_row, blocks[0].block_col) == (0, 0)
    ref = normalize_block(*quad(lambda i: [(i + 1) * MAG.scale] * 9))
    assert np.array_equal(blocks[0].values, ref.values)


def test_block_count_for_full_frame_grid():
    # 80x60 cells -> 79x59 blocks
    rng = np.random.default_rng(3)
    grid = rng.integers(0, 1 << 16, size=(60, 80, 9))
    blocks = list(stream_blocks(row_major_cells(grid), 80))
    assert len(blocks) == block_count(80, 60) == 79 * 59 == 4661
    assert sum(b.values.size for b in blocks) == 4661 * 36 == 167796
    assert [(b.block_row, b.block_col) for b in blocks[:3]] == [
        (0, 0), (0, 1), (0, 2)
    ]
    assert (blocks[-1].block_row, blocks[-1].block_col) == (58, 78)


def test_single_row_or_column_yields_no_blocks():
    one_row = [[[0] * 9 for _ in range(5)]]
    assert list(stream_blocks(row_major_cells(one_row), 5)) == []
    one_col = [[[0] * 9] for _ in range(5)]
    assert list(stream_blocks(row_major_cells(one_col), 1)) == []


def test_order_error_on_out_of_sequence_cell():
    asm = BlockAssembler(4)
    asm.add(hist([0] * 9, 0, 0))
    with pytest.raises(OrderError):
        asm.add(hist([0] * 9, 0, 2))


def test_buffer_holds_at_most_one_row_plus_one_cell():
    rng = np.random.default_rng(5)
    grid = rng.integers(0, 1 << 16, size=(6, 6, 9))
    asm = BlockAssembler(6)
    peak = 0
    for cell in row_major_cells(grid):
        asm.add(cell)
        peak = max(peak, asm.buffered_cells)
    assert peak <= 6 + 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6))
def test_streaming_matches_direct_assembly(seed, rows, cols):
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 1 << 20, size=(rows, cols, 9))
    streamed = list(stream_blocks(row_major_cells(grid), cols))
    assert len(streamed) == (rows - 1) * (cols - 1)
    k = 0
    for r in range(rows - 1):
        for c in range(cols - 1):
            direct = normalize_block(
                hist(grid[r][c], r, c),
                hist(grid[r][c + 1], r, c + 1),
                hist(grid[r + 1][c], r + 1, c),
                hist(grid[r + 1][c + 1], r + 1, c + 1),
            )
            got = streamed[k]
            assert (got.block_row, got.block_col) == (r, c)
            assert np.array_equal(got.values, direct.values)
            k += 1
