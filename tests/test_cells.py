import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe.cells import STRIP_CELL_ROWS, CellAccumulator, add_votes, cells_per_frame
from hogpipe.cordic import CordicConfig, grid_index, polar_table
from hogpipe.errors import DimensionError
from hogpipe.fixq import CELL_ACC, CELL_SIZE
from hogpipe.golden import golden_hog
from hogpipe.gradient import GradientStage
from hogpipe.pipeline import PipelineConfig, run_frame, run_frame_fast
from hogpipe.voting import PACK_BITS, vote_raw
from oracles import ref_batch_fixed, ref_hog


def synth_vote(lo_bin=0, lo_w=0, hi_w=0):
    """A vote as the streaming model reads it: low bin and packed weight."""
    return lo_bin, lo_w + hi_w * 2.0**PACK_BITS


def feed_frame(acc, width, height, make_vote):
    out = []
    for r in range(height):
        for c in range(width):
            h = acc.accumulate(make_vote(r, c))
            if h is not None:
                out.append(h)
    return out


def test_cells_per_frame():
    assert cells_per_frame(640, 480) == (80, 60)
    assert cells_per_frame(8, 8) == (1, 1)
    assert cells_per_frame(16, 24) == (2, 3)
    with pytest.raises(DimensionError):
        cells_per_frame(12, 8)
    with pytest.raises(DimensionError):
        cells_per_frame(8, 9)


def test_unit_votes_fill_bin_zero():
    acc = CellAccumulator(8, 8)
    hists = feed_frame(acc, 8, 8, lambda r, c: synth_vote(0, 64, 0))
    assert hists == [[64 * 64] + [0] * 8]


def test_zero_votes_emit_zero_histograms_in_order():
    acc = CellAccumulator(16, 16)
    hists = feed_frame(acc, 16, 16, lambda r, c: synth_vote())
    assert hists == [[0] * 9] * 4
    # cells come out row-major: (0, 0), (0, 1), (1, 0), (1, 1)
    acc = CellAccumulator(16, 16)
    hists = feed_frame(acc, 16, 16, lambda r, c: synth_vote(0, 2 * (r // 8) + c // 8))
    assert [h[0] for h in hists] == [0, 64, 128, 192]


def test_emission_happens_on_local_seven_seven():
    acc = CellAccumulator(16, 8)
    emitted_at = []
    for r in range(8):
        for c in range(16):
            if acc.accumulate(synth_vote()) is not None:
                emitted_at.append((r, c))
    assert emitted_at == [(7, 7), (7, 15)]


class InterruptingWeight:
    """A weight whose addition is interrupted, as by Ctrl-C mid-vote."""

    def __radd__(self, other):
        raise KeyboardInterrupt


@pytest.mark.parametrize("at", [0, 119, 120, 128, 255])
@pytest.mark.parametrize(
    "bad", [(9, 1.0), (0, "w"), (0,), (0, InterruptingWeight())],
    ids=["bin", "weight", "short", "interrupt"],
)
def test_malformed_vote_is_not_counted_and_the_stage_goes_on(bad, at):
    rng = np.random.default_rng(29)
    votes = [synth_vote(*map(int, v)) for v in rng.integers(0, [9, 64, 64], size=(256, 3))]

    def run(stream):  # each send's output, "refused" where it raised
        acc, out = CellAccumulator(16, 16), []
        for v in stream:
            try:
                out.append(acc.accumulate(v))
            except (IndexError, TypeError, ValueError, KeyboardInterrupt):
                out.append("refused")
        return out

    want = run(votes)
    assert run(votes[:at] + [bad] + votes[at:]) == want[:at] + ["refused"] + want[at:]


def test_votes_split_between_two_bins():
    acc = CellAccumulator(8, 8)
    hists = feed_frame(acc, 8, 8, lambda r, c: synth_vote(8, 40, 24))
    assert hists[0][8] == 40 * 64
    assert hists[0][0] == 24 * 64


def test_16x16_matches_nested_loop_bucketing():
    rng = np.random.default_rng(23)
    luma = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    cfg = CordicConfig()
    table = polar_table(cfg)

    # streamed: gradient stage -> cordic -> vote -> cells
    stage = GradientStage(16, 16)
    acc = CellAccumulator(16, 16)
    streamed = []

    def step(g):
        if g is None:
            return
        i = grid_index(*g)
        lo, lo_w, hi_w = vote_raw(int(table.mag_raw[i]), int(table.ang_raw[i]))
        h = acc.accumulate(synth_vote(lo, lo_w, hi_w))
        if h is not None:
            streamed.append(h)

    for v in luma.ravel():
        step(stage.push_pixel(int(v)))
    for g in stage.drain():
        step(g)

    # reference: the oracles' nested loops bucket pixels by (row//8, col//8)
    expect, _ = ref_batch_fixed(luma, cfg)

    # row-major emission order places each cell
    got = np.array(streamed, dtype=np.int64).reshape(2, 2, 9)
    assert np.array_equal(got, expect)


def test_partial_count_is_one_cell_row():
    acc = CellAccumulator(640, 480)
    assert acc.partial_count == 80


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([8, 16, 24]), st.sampled_from([8, 16]))
def test_mass_conservation_random_votes(seed, width, height):
    rng = np.random.default_rng(seed)
    acc = CellAccumulator(width, height)
    total_in = 0
    hists = []
    for r in range(height):
        for c in range(width):
            lo_b = int(rng.integers(0, 9))
            lo_w = int(rng.integers(0, 1000))
            hi_w = int(rng.integers(0, 1000))
            total_in += lo_w + hi_w
            h = acc.accumulate(synth_vote(lo_b, lo_w, hi_w))
            if h is not None:
                hists.append(h)
    assert len(hists) == (width // 8) * (height // 8)
    assert sum(sum(h) for h in hists) == total_in


# cell-row counts that are not a multiple of the frame_votes strip height
# (one partial strip, one full strip plus a partial one, several strips
# plus a partial one), and one frame wider than VGA
_STRIP_SHAPES = [
    ((STRIP_CELL_ROWS - 3) * 8, 32),
    ((STRIP_CELL_ROWS + 1) * 8, 24),
    ((2 * STRIP_CELL_ROWS + 3) * 8, 16),
    (16, 648),
]


@pytest.mark.parametrize("h, w", _STRIP_SHAPES)
def test_strip_gather_matches_the_oracles(h, w):
    noise = np.random.default_rng(h * w).integers(0, 256, (h, w), dtype=np.uint8)
    # columns 0, 0, 255, 255 repeated: gx = +-255 and gy = 0 at every inner
    # pixel, angle 0, so every vote's high side wraps from bin 8 to bin 0
    wrap = np.tile(np.array([0, 0, 255, 255], dtype=np.uint8), (h, w // 4))
    for luma in (noise, wrap):
        hog, _ = run_frame_fast(luma, PipelineConfig(w, h))
        cells, blocks = ref_batch_fixed(luma, CordicConfig())
        assert np.array_equal(hog.cells, cells)
        assert np.array_equal(hog.blocks, blocks)
        gold = golden_hog(luma)
        cells, blocks = ref_hog(luma)
        assert np.array_equal(gold.cells, cells)
        assert np.array_equal(gold.blocks, blocks)
    assert np.all(hog.cells[..., 0] > 0) and not hog.cells[..., 1:8].any()
    streamed, _ = run_frame(wrap, PipelineConfig(w, h))
    assert np.array_equal(streamed.cells, hog.cells)
    assert np.array_equal(streamed.blocks, hog.blocks)


@pytest.mark.parametrize("count, weight", [(CELL_SIZE**2, 23_080), (1, CELL_ACC.raw_max)])
def test_packed_split_holds_at_the_bound(count, weight):
    # one cell's votes, all keyed to bin 8: the low side's total stays in
    # bin 8, the high side's wraps to bin 0; both at the peak magnitude
    # (64 pixels of 23,080 raw) and at CELL_ACC's bound, on the fast path's
    # strip bincount and on the streaming accumulator
    keys = np.full(count, 8)
    for lo_w, hi_w in ((weight, 0), (0, weight), (weight, weight)):
        want = [count * hi_w] + [0] * 7 + [count * lo_w]
        cells = np.zeros((1, 1, 9), dtype=np.int64)
        packed = np.full(count, lo_w + hi_w * 2.0**PACK_BITS)
        add_votes(cells, slice(0, 1), keys, packed)
        assert cells[0, 0].tolist() == want

        def vote(r, c):
            # the cell's first count pixels carry the votes, the rest vote nothing
            return synth_vote(8, lo_w, hi_w) if r * CELL_SIZE + c < count else synth_vote(8)

        hists = feed_frame(CellAccumulator(CELL_SIZE, CELL_SIZE), CELL_SIZE, CELL_SIZE, vote)
        assert hists == [want]
        assert all(type(b) is int for b in hists[0])


def test_outputs_never_alias_the_workspace():
    # a later call on the same shape, then on another, refills the shape's
    # one workspace; the first call's outputs must not change with it
    rng = np.random.default_rng(3)
    shapes = ((80, 32), (80, 32), (24, 40))
    frames = [rng.integers(0, 256, shape, dtype=np.uint8) for shape in shapes]
    first = run_frame_fast(frames[0], PipelineConfig(32, 80))[0], golden_hog(frames[0])
    arrays = [a for out in first for a in (out.cells, out.blocks)]
    kept = [a.copy() for a in arrays]
    for luma in frames[1:]:
        run_frame_fast(luma, PipelineConfig(luma.shape[1], luma.shape[0]))
        golden_hog(luma)
    for a, b in zip(arrays, kept):
        assert np.array_equal(a, b)
