import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe.blocks import BLOCK_EPSILON
from hogpipe.cordic import CordicConfig, polar_raw
from hogpipe.errors import DimensionError, LayoutError, TapNotEnabled
from hogpipe.golden import golden_hog
from hogpipe.pipeline import (
    PipelineConfig,
    RunStats,
    StreamingPipeline,
    Tap,
    run_frame,
    run_frame_fast,
)
from hogpipe.textures import uniform_noise
from hogpipe.voting import vote_raw
from oracles import ref_batch_fixed, ref_gradients


def rand_frame(shape, seed):
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


def cfg_for(luma, **kw):
    return PipelineConfig(width=luma.shape[1], height=luma.shape[0], **kw)


def test_config_rejects_bad_geometry():
    with pytest.raises(DimensionError):
        PipelineConfig(width=12, height=16)
    with pytest.raises(DimensionError):
        PipelineConfig(width=16, height=20)
    with pytest.raises(DimensionError):
        PipelineConfig(width=8, height=8)  # single cell, no blocks


def test_epsilon_is_readable_not_settable():
    assert PipelineConfig.epsilon == BLOCK_EPSILON
    with pytest.raises(TypeError):
        PipelineConfig(16, 16, epsilon=1e-2)


def test_frame_must_match_config():
    luma = rand_frame((16, 16), 0)
    with pytest.raises(DimensionError):
        run_frame(luma, PipelineConfig(width=24, height=16))


# every whole-frame entry point, reduced to its cell grid
ENTRY_POINTS = {
    "run_frame": lambda luma: run_frame(luma, cfg_for(luma))[0].cells,
    "run_frame_fast": lambda luma: run_frame_fast(luma, cfg_for(luma))[0].cells,
    "golden_hog": lambda luma: golden_hog(luma).cells,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize(
    "bad",
    [
        lambda a: np.where(a == a.flat[5], -3, a.astype(np.int64)),
        lambda a: np.where(a == a.flat[5], 300, a.astype(np.int32)),
        lambda a: a.astype(np.float64) + 0.5,
    ],
    ids=["negative", "over-255", "float"],
)
def test_luma_outside_8_bits_is_rejected(entry, bad):
    luma = bad(rand_frame((16, 16), 4))
    with pytest.raises(LayoutError):
        entry(luma)


@pytest.mark.parametrize(
    "pos, bad",
    [(255, -300), (0, 256), (100, 256), (100, 7.5), (100, np.float64(7.0))],
    ids=["-300-last", "256-first", "256-mid", "float-mid", "np-float-mid"],
)
def test_streaming_port_rejects_pixels_outside_8_bits(pos, bad):
    pixels = rand_frame((16, 16), 13).ravel().tolist()
    pixels[pos] = bad
    pipe = StreamingPipeline(PipelineConfig(width=16, height=16))
    with pytest.raises(LayoutError):
        for px in pixels:
            pipe.step(px)
    assert pipe.pixels_in == pos


def test_streaming_port_takes_numpy_integers_as_ints():
    luma = rand_frame((16, 16), 13)
    pipe = StreamingPipeline(cfg_for(luma))
    for px in luma.ravel():  # np.uint8 scalars, whose differences would wrap
        pipe.step(px)
    hog, _ = pipe.finish()
    ref, _ = run_frame(luma, cfg_for(luma))
    assert np.array_equal(hog.cells, ref.cells)
    assert np.array_equal(hog.blocks, ref.blocks)


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_wide_integer_luma_within_8_bits_is_accepted(entry):
    luma = rand_frame((16, 16), 5)
    assert np.array_equal(entry(luma), entry(luma.astype(np.int64)))


def test_smallest_frame_stats():
    luma = rand_frame((16, 16), 1)
    hog, stats = run_frame(luma, cfg_for(luma))
    assert stats == RunStats(
        pixels_in=256, steps=256 + 18, warmup_steps=18, cells_out=4, blocks_out=1
    )
    assert stats.pixels_per_step == 256 / 274
    assert hog.cells.shape == (2, 2, 9)
    assert hog.blocks.shape == (1, 1, 36)


def test_second_finish_returns_the_same_frame():
    luma = rand_frame((16, 16), 2)
    pipe = StreamingPipeline(cfg_for(luma))
    for px in luma.ravel().tolist():
        pipe.step(px)
    hog, stats = pipe.finish()
    again, stats_again = pipe.finish()
    assert stats_again == stats
    assert np.array_equal(again.cells, hog.cells)
    assert np.array_equal(again.blocks, hog.blocks)


@pytest.mark.parametrize("shape", [(16, 16), (16, 24), (24, 16), (32, 32)])
def test_streaming_equals_batch_composition(shape):
    luma = rand_frame(shape, sum(shape))
    hog, _ = run_frame(luma, cfg_for(luma))
    cells, blocks = ref_batch_fixed(luma, CordicConfig())
    assert np.array_equal(hog.cells, cells)
    assert np.array_equal(hog.blocks, blocks)


def test_streaming_equals_batch_composition_custom_cordic():
    # the streaming polar stage reads the table built for its own config
    luma = rand_frame((16, 24), 3)
    cordic = CordicConfig(iterations=14)
    hog, _ = run_frame(luma, cfg_for(luma, cordic=cordic))
    cells, blocks = ref_batch_fixed(luma, cordic)
    assert np.array_equal(hog.cells, cells)
    assert np.array_equal(hog.blocks, blocks)
    default, _ = run_frame(luma, cfg_for(luma))
    assert not np.array_equal(default.cells, hog.cells)


@pytest.mark.parametrize("shape", [(16, 16), (24, 32), (48, 40)])
def test_fast_path_is_bit_identical(shape):
    luma = rand_frame(shape, 7 + sum(shape))
    cfg = cfg_for(luma)
    slow_hog, slow_stats = run_frame(luma, cfg)
    fast_hog, fast_stats = run_frame_fast(luma, cfg)
    assert np.array_equal(slow_hog.cells, fast_hog.cells)
    assert np.array_equal(slow_hog.blocks, fast_hog.blocks)
    assert slow_stats == fast_stats


def test_warm_fast_path_allocates_little_per_vga_frame():
    # the gather runs in strips through one workspace per shape; a warm
    # frame allocates its outputs (0.35 MB of cells, 1.34 MB of blocks)
    # and strip-sized temporaries, not a frame-sized array per stage
    luma = uniform_noise(640, 480, seed=1)
    cfg = PipelineConfig(640, 480)
    run_frame_fast(luma, cfg)
    tracemalloc.start()
    try:
        run_frame_fast(luma, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_same_frame_twice_is_deterministic():
    luma = rand_frame((24, 24), 3)
    cfg = cfg_for(luma)
    a, sa = run_frame(luma, cfg)
    b, sb = run_frame(luma, cfg)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.blocks, b.blocks)
    assert sa == sb


def test_warmup_is_width_plus_two():
    for w, h in [(16, 16), (32, 16), (64, 24)]:
        luma = rand_frame((h, w), w + h)
        _, stats = run_frame(luma, cfg_for(luma))
        assert stats.warmup_steps == w + 2
        assert stats.steps == stats.pixels_in + stats.warmup_steps


def test_gradient_tap_captures_every_pixel_in_order():
    luma = rand_frame((16, 16), 4)
    cfg = cfg_for(luma, taps=frozenset({Tap.GRADIENTS}))
    pipe = StreamingPipeline(cfg)
    for px in luma.ravel().tolist():
        pipe.step(px)
    pipe.finish()
    grads = pipe.captures(Tap.GRADIENTS)
    assert len(grads) == 256
    assert [(g.row, g.col) for g in grads[:3]] == [(0, 0), (0, 1), (0, 2)]
    assert (grads[-1].row, grads[-1].col) == (15, 15)


def test_vote_tap_sums_match_cell_tap():
    luma = rand_frame((16, 24), 5)
    cfg = cfg_for(luma, taps=frozenset({Tap.VOTES, Tap.CELLS}))
    pipe = StreamingPipeline(cfg)
    for px in luma.ravel().tolist():
        pipe.step(px)
    pipe.finish()
    votes = pipe.captures(Tap.VOTES)
    cells = pipe.captures(Tap.CELLS)
    sums = {}
    for v in votes:
        key = (v.row // 8, v.col // 8)
        bins = sums.setdefault(key, [0] * 9)
        bins[v.lo_bin] += v.lo_weight
        bins[v.hi_bin] += v.hi_weight
    assert len(cells) == 6
    for h in cells:
        assert tuple(sums[(h.cell_row, h.cell_col)]) == h.bins


def test_block_tap_matches_emission_count():
    luma = rand_frame((24, 24), 6)
    cfg = cfg_for(luma, taps=frozenset({Tap.BLOCKS}))
    pipe = StreamingPipeline(cfg)
    for px in luma.ravel().tolist():
        pipe.step(px)
    _, stats = pipe.finish()
    assert len(pipe.captures(Tap.BLOCKS)) == stats.blocks_out == 4


def record_fields(records):
    """(class name, field values...) of frozen dataclass records whose fields are plain ints."""
    out = []
    for x in records:
        assert type(x).__dataclass_params__.frozen
        values = dataclasses.astuple(x)
        assert all(type(v) is int for v in values)
        out.append((type(x).__name__, *values))
    return out


@pytest.mark.parametrize(
    "cordic", [CordicConfig(), CordicConfig(iterations=14)], ids=["16-iter", "14-iter"]
)
def test_every_tap_record_matches_independent_oracles(cordic):
    luma = rand_frame((16, 24), 12)
    pipe = StreamingPipeline(cfg_for(luma, cordic=cordic, taps=frozenset(Tap)))
    for px in luma.ravel().tolist():
        pipe.step(px)
    pipe.finish()

    grads = ref_gradients(luma)
    gradients, polar, votes = [], [], []
    for r in range(16):
        for c in range(24):
            gx, gy = int(grads[r, c, 0]), int(grads[r, c, 1])
            mag, ang, _ = polar_raw(gx, gy, cordic)
            gradients.append(("GradientPair", gx, gy, r, c))
            polar.append(("PolarGradient", mag, ang, r, c))
            votes.append(("BinVote", *vote_raw(mag, ang), r, c))
    assert record_fields(pipe.captures(Tap.GRADIENTS)) == gradients
    assert record_fields(pipe.captures(Tap.POLAR)) == polar
    assert record_fields(pipe.captures(Tap.VOTES)) == votes
    names = {
        tap: [f.name for f in dataclasses.fields(pipe.captures(tap)[0])]
        for tap in (Tap.GRADIENTS, Tap.POLAR, Tap.VOTES)
    }
    assert names == {
        Tap.GRADIENTS: ["gx", "gy", "row", "col"],
        Tap.POLAR: ["magnitude", "orientation", "row", "col"],
        Tap.VOTES: ["lo_bin", "hi_bin", "lo_weight", "hi_weight", "row", "col"],
    }

    cells, blocks = ref_batch_fixed(luma, cordic)
    assert [(h.cell_row, h.cell_col, h.bins) for h in pipe.captures(Tap.CELLS)] == [
        (r, c, tuple(cells[r, c].tolist())) for r in range(2) for c in range(3)
    ]
    got = pipe.captures(Tap.BLOCKS)
    assert [(b.block_row, b.block_col) for b in got] == [(0, 0), (0, 1)]
    for b in got:
        assert np.array_equal(b.values, blocks[b.block_row, b.block_col])
    for tap, fields in {
        Tap.CELLS: ["bins", "cell_row", "cell_col"],
        Tap.BLOCKS: ["values", "block_row", "block_col"],
    }.items():
        record = pipe.captures(tap)[0]
        assert type(record).__dataclass_params__.frozen
        assert [f.name for f in dataclasses.fields(record)] == fields
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, fields[1], 1)


def test_unrequested_tap_raises():
    luma = rand_frame((16, 16), 8)
    pipe = StreamingPipeline(cfg_for(luma))
    with pytest.raises(TapNotEnabled):
        pipe.captures(Tap.POLAR)


def test_fast_path_refuses_taps():
    luma = rand_frame((16, 16), 9)
    with pytest.raises(TapNotEnabled):
        run_frame_fast(luma, cfg_for(luma, taps=frozenset({Tap.CELLS})))


def test_buffer_peaks_stay_bounded():
    luma = rand_frame((32, 64), 10)
    cfg = cfg_for(luma)
    pipe = StreamingPipeline(cfg)
    for px in luma.ravel().tolist():
        pipe.step(px)
    pipe.finish()
    # two pixel rows plus the 3-wide window tail
    assert pipe.peak_pixel_buffer == 2 * 64 + 3
    assert pipe.cell_partials == 64 // 8
    assert pipe.peak_cell_row_buffer == 64 // 8 + 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([16, 24]), st.sampled_from([16, 24]))
def test_fast_matches_streaming_random(seed, w, h):
    luma = rand_frame((h, w), seed)
    cfg = PipelineConfig(width=w, height=h)
    slow_hog, _ = run_frame(luma, cfg)
    fast_hog, _ = run_frame_fast(luma, cfg)
    assert np.array_equal(slow_hog.cells, fast_hog.cells)
    assert np.array_equal(slow_hog.blocks, fast_hog.blocks)
