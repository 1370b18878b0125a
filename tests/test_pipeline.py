import collections
import dataclasses
import enum
import importlib.util
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe import pipeline
from hogpipe.blocks import BLOCK_EPSILON, BlockAssembler
from hogpipe.cells import CellAccumulator
from hogpipe.cordic import CordicConfig
from hogpipe.errors import DimensionError, LayoutError, TapNotEnabled
from hogpipe.golden import golden_hog
from hogpipe.gradient import GradientStage, Port
from hogpipe.pipeline import (
    PipelineConfig,
    RunStats,
    StreamingPipeline,
    Tap,
    run_frame,
    run_frame_fast,
)
from hogpipe.textures import uniform_noise
from oracles import ref_batch_fixed, ref_gradients, ref_polar_raw, ref_vote_raw


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


@pytest.mark.parametrize(
    "taps, named",
    [({"cells"}, "'cells'"), ({Tap.CELLS, "votes"}, "'votes'"), ({None, 3}, "3, None")],
    ids=["str", "mixed", "other"],
)
def test_config_rejects_taps_that_are_not_tap_members(taps, named):
    # a name that is no Tap would match no stage and record nothing
    with pytest.raises(TypeError) as err:
        PipelineConfig(16, 16, taps=taps)
    assert str(err.value) == f"taps must be Tap members, not {named}"


@pytest.mark.parametrize(
    "width, height, named",
    [(64.0, 64, "width"), (64, 64.0, "height"), (True, 16, "width"), (16, "16", "height")],
    ids=["float-width", "float-height", "bool", "str"],
)
def test_config_rejects_sizes_that_are_not_integers(width, height, named):
    # a float size would pass the cell-grid check, but run_frame cannot use it
    with pytest.raises(TypeError, match=f"^{named} must be an integer"):
        PipelineConfig(width, height)
    assert PipelineConfig(np.int64(16), 16).width == 16  # a numpy integer is one


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
    [
        (255, -300), (0, 256), (100, 256), (100, 7.5), (100, np.float64(7.0)),
        (100, True), (0, False), (100, np.True_), (100, np.int64(256)),
    ],
    ids=[
        "-300-last", "256-first", "256-mid", "float-mid", "np-float-mid", "true-mid",
        "false-first", "np-true-mid", "np-int64-256-mid",
    ],
)
def test_streaming_port_rejects_pixels_outside_8_bits(pos, bad):
    pixels = rand_frame((16, 16), 13).ravel().tolist()
    pixels[pos] = bad
    pipe = StreamingPipeline(PipelineConfig(width=16, height=16))
    with pytest.raises(LayoutError):
        for px in pixels:
            pipe.step(px)
    assert pipe.pixels_in == pos


Luma = enum.IntEnum("Luma", [(f"L{v}", v) for v in range(256)])  # an int subclass


@pytest.mark.parametrize("as_pixel", [np.uint8, np.int64, Luma], ids=["np-uint8", "np-int64", "int-enum"])
def test_streaming_port_takes_integer_scalars_as_plain_ints(as_pixel):
    # only an exact int skips operator.index; these take the checked path
    luma = rand_frame((16, 16), 13)
    cfg = cfg_for(luma)
    pipe = StreamingPipeline(cfg)
    for px in luma.ravel().tolist():
        pipe.step(as_pixel(px))
    hog, stats = pipe.finish()
    ref, ref_stats = run_frame(luma, cfg)
    assert np.array_equal(hog.cells, ref.cells) and np.array_equal(hog.blocks, ref.blocks)
    assert stats == ref_stats


def test_layout_error_mid_feed_leaves_the_ledger_at_the_accepted_pixels():
    pixels = rand_frame((16, 16), 13).ravel().tolist()
    pixels[100] = 256
    pipe = StreamingPipeline(PipelineConfig(width=16, height=16))
    with pytest.raises(LayoutError):
        pipe.feed(pixels)
    assert pipe.pixels_in == 100
    assert pipe.steps == pipe.pixels_in


@pytest.mark.parametrize("port", ["step", "feed"])
def test_streaming_port_refuses_pixels_past_the_frame(port):
    luma = rand_frame((16, 16), 13)
    pixels = luma.ravel().tolist()
    pipe = StreamingPipeline(cfg_for(luma))
    with pytest.raises(DimensionError):
        if port == "feed":
            pipe.feed(pixels + [0])
        else:
            for px in pixels + [0]:
                pipe.step(px)
    assert pipe.pixels_in == pipe.steps == 256
    hog, stats = pipe.finish()
    ref, ref_stats = run_frame(luma, cfg_for(luma))
    assert np.array_equal(hog.cells, ref.cells)
    assert np.array_equal(hog.blocks, ref.blocks)
    assert stats == ref_stats


def record_values(record):
    """A tap record's field values, an array field as its bytes."""
    return [
        v.tobytes() if isinstance(v, np.ndarray) else v
        for v in (getattr(record, f.name) for f in dataclasses.fields(record))
    ]


@pytest.mark.parametrize("bounds", [(0, None), (0, 1, 57, 300, None)], ids=["whole", "chunked"])
@pytest.mark.parametrize("taps", [frozenset(), frozenset(Tap)], ids=["no-taps", "all-taps"])
def test_feed_equals_a_step_loop(taps, bounds):
    luma = rand_frame((24, 32), 15)
    cfg = cfg_for(luma, taps=taps)
    pixels = luma.ravel().tolist()
    fed, stepped = StreamingPipeline(cfg), StreamingPipeline(cfg)
    for lo, hi in zip(bounds, bounds[1:]):
        fed.feed(pixels[lo:hi])
    for px in pixels:
        stepped.step(px)
    (hog, stats), (ref, ref_stats) = fed.finish(), stepped.finish()
    assert hog.cells.tobytes() == ref.cells.tobytes()
    assert hog.blocks.tobytes() == ref.blocks.tobytes()
    assert stats == ref_stats
    for tap in taps:
        got, want = fed.captures(tap), stepped.captures(tap)
        assert [type(r) for r in got] == [type(r) for r in want]
        assert [record_values(r) for r in got] == [record_values(r) for r in want]


def test_run_frame_calls_each_traced_stage_method_once_per_item(monkeypatch):
    # the stage methods a per-layer profiler wraps on the class, as perfbench's
    # tracer does; a path that bypasses one would zero its row
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for cls, name in [
        (GradientStage, "push_pixel"), (CellAccumulator, "accumulate"), (BlockAssembler, "add")
    ]:
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    luma = rand_frame((24, 32), 16)
    hog, stats = run_frame(luma, cfg_for(luma))
    assert calls == {"push_pixel": 24 * 32, "accumulate": 24 * 32, "add": 3 * 4}
    assert stats.cells_out == 3 * 4
    monkeypatch.undo()
    ref, _ = run_frame(luma, cfg_for(luma))
    assert np.array_equal(hog.cells, ref.cells)
    assert np.array_equal(hog.blocks, ref.blocks)


def load_perfbench_tracer():
    """perfbench/tracer.py as it stands, imported by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_counts_each_stage_port_once_per_item():
    t0 = time.perf_counter()
    tracer = load_perfbench_tracer()
    targets = [
        tracer.Target("gradient.push_pixel", "hogpipe.gradient:GradientStage", "push_pixel"),
        tracer.Target("cells.accumulate", "hogpipe.cells:CellAccumulator", "accumulate"),
        tracer.Target("blocks.add", "hogpipe.blocks:BlockAssembler", "add"),
    ]
    luma = rand_frame((24, 32), 16)
    traced = tracer.Tracer(targets)
    with traced.installed():
        hog, stats = run_frame(luma, cfg_for(luma))
    calls = {name: span.calls for name, span in traced.spans.items()}
    assert calls == {"gradient.push_pixel": 24 * 32, "cells.accumulate": 24 * 32, "blocks.add": 12}
    # the tracer put each class's descriptor back, so an instance steps its coroutine again
    assert type(vars(GradientStage)["push_pixel"]) is Port
    assert type(vars(CellAccumulator)["accumulate"]) is Port
    ref, ref_stats = run_frame(luma, cfg_for(luma))
    assert stats == ref_stats
    assert np.array_equal(hog.cells, ref.cells)
    assert np.array_equal(hog.blocks, ref.blocks)
    assert time.perf_counter() - t0 < 0.5


def test_port_is_the_coroutine_send_on_a_stage_and_callable_on_the_class():
    stage, cells = GradientStage(4, 4), CellAccumulator(8, 8)
    assert stage.push_pixel == stage._send and cells.accumulate == cells._send
    assert GradientStage.push_pixel(stage, 3) is None
    assert stage.pushed == 1 and stage.emitted == 0
    assert CellAccumulator.accumulate(cells, (0, 1.0)) is None


@pytest.mark.parametrize("bad", [256, True], ids=["256", "true"])
@pytest.mark.parametrize("accepted", [10, 300], ids=["warm-up", "mid-frame"])
@pytest.mark.parametrize("port", ["step", "feed"])
def test_refused_pixel_restarts_the_stage_on_its_kept_state(port, accepted, bad):
    luma = rand_frame((24, 32), 17)
    pixels = luma.ravel().tolist()
    cfg = cfg_for(luma, taps=frozenset(Tap))
    pipe = StreamingPipeline(cfg)
    pipe.feed(pixels[:accepted])
    grad = pipe._grad
    before = grad.pushed, grad.emitted, grad.buffered_pixels
    with pytest.raises(LayoutError):
        if port == "feed":
            pipe.feed([bad] + pixels[accepted:])
        else:
            pipe.step(bad)
    assert (grad.pushed, grad.emitted, grad.buffered_pixels) == before
    pipe.feed(pixels[accepted:])
    hog, stats = pipe.finish()
    ref = StreamingPipeline(cfg)
    ref.feed(pixels)
    want, want_stats = ref.finish()
    assert (stats, want_stats) == (run_frame(luma, cfg_for(luma))[1],) * 2
    assert np.array_equal(hog.cells, want.cells)
    assert np.array_equal(hog.blocks, want.blocks)
    for tap in Tap:
        got = [record_values(r) for r in pipe.captures(tap)]
        assert got == [record_values(r) for r in ref.captures(tap)]


@pytest.mark.parametrize(
    "taps", [{Tap.CELLS}, {Tap.BLOCKS}, {Tap.CELLS, Tap.BLOCKS}], ids=["cells", "blocks", "both"]
)
def test_cell_and_block_taps_build_no_per_pair_record(monkeypatch, taps):
    luma = rand_frame((24, 32), 19)
    every = StreamingPipeline(cfg_for(luma, taps=frozenset(Tap)))
    every.feed(luma.ravel().tolist())
    want, want_stats = every.finish()

    def refuse(*args):
        raise AssertionError("a per-pair tap record was built")

    for name in ("GradientPair", "PolarGradient", "BinVote"):
        monkeypatch.setattr(pipeline, name, refuse)
    with pytest.raises(AssertionError, match="per-pair"):
        every.captures(Tap.GRADIENTS)  # the refusal bites where records are built
    pipe = StreamingPipeline(cfg_for(luma, taps=taps))
    pipe.feed(luma.ravel().tolist())
    hog, stats = pipe.finish()
    assert pipe._pairs is None  # no pair was stored for a per-pixel record
    for tap in set(Tap) - taps:
        with pytest.raises(TapNotEnabled):
            pipe.captures(tap)
    assert stats == want_stats
    assert np.array_equal(hog.cells, want.cells)
    assert np.array_equal(hog.blocks, want.blocks)
    for tap in taps:
        got = [record_values(r) for r in pipe.captures(tap)]
        assert got == [record_values(r) for r in every.captures(tap)]


def test_captures_mid_frame_are_the_prefix_of_the_finished_records():
    luma = rand_frame((24, 32), 20)
    cfg = cfg_for(luma, taps=frozenset(Tap))
    pixels = luma.ravel().tolist()
    whole = StreamingPipeline(cfg)
    whole.feed(pixels)
    hog, stats = whole.finish()
    part = StreamingPipeline(cfg)
    part.feed(pixels[:600])  # past the warm-up of 32 + 2: 566 pairs, two cell rows
    made = {tap: len(part.captures(tap)) for tap in Tap}
    assert made == dict.fromkeys(Tap, 566) | {Tap.CELLS: 8, Tap.BLOCKS: 3}
    for tap in Tap:
        got, want = part.captures(tap), whole.captures(tap)[: made[tap]]
        assert [type(r) for r in got] == [type(r) for r in want]
        assert [record_values(r) for r in got] == [record_values(r) for r in want]
    for tap in Tap:
        again = whole.captures(tap)
        assert [record_values(r) for r in again] == [record_values(r) for r in whole.captures(tap)]
    hog_again, stats_again = whole.finish()
    assert stats_again == stats
    assert hog_again.cells.tobytes() == hog.cells.tobytes()
    assert hog_again.blocks.tobytes() == hog.blocks.tobytes()
    assert (hog_again.cells.shape, hog_again.blocks.shape) == ((3, 4, 9), (2, 3, 36))


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
    # the gather runs in strips through one workspace per shape, and the
    # blocks are normalized in place in their output; a warm frame
    # allocates its outputs (0.35 MB of cells, 1.34 MB of blocks), one
    # 0.35 MB float copy of the cells and strip- or cell-sized
    # temporaries, not a frame-sized array per stage
    luma = uniform_noise(640, 480, seed=1)
    cfg = PipelineConfig(640, 480)
    run_frame_fast(luma, cfg)
    tracemalloc.start()
    try:
        run_frame_fast(luma, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


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
            mag, ang, _ = ref_polar_raw(gx, gy, cordic.iterations)
            gradients.append(("GradientPair", gx, gy, r, c))
            polar.append(("PolarGradient", mag, ang, r, c))
            votes.append(("BinVote", *ref_vote_raw(mag, ang), r, c))
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
