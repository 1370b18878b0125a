from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hogpipe.errors import DimensionError, LayoutError
from hogpipe.gradient import GradientStage, warmup_steps
from oracles import ref_gradients


def run_stage(luma):
    h, w = luma.shape
    stage = GradientStage(w, h)
    out = []
    steps = 0
    for v in luma.ravel():
        steps += 1
        g = stage.push_pixel(int(v))
        if g is not None:
            out.append(g)
    for g in stage.drain():
        steps += 1
        out.append(g)
    return out, steps


def to_array(pairs, shape):
    # pairs come out row-major, so the emission index is the position
    arr = np.zeros((*shape, 2), dtype=np.int64)
    for i, (gx, gy) in enumerate(pairs):
        r, c = divmod(i, shape[1])
        arr[r, c] = gx, gy
    return arr


def test_constant_frame_all_zero():
    luma = np.full((4, 5), 9, dtype=np.uint8)
    pairs, steps = run_stage(luma)
    assert len(pairs) == 20
    assert steps == 20 + 5 + 2
    assert all(g == (0, 0) for g in pairs)


def test_horizontal_ramp():
    luma = np.tile(np.arange(8, dtype=np.uint8), (4, 1))
    pairs, _ = run_stage(luma)
    arr = to_array(pairs, (4, 8))
    assert (arr[..., 1] == 0).all()
    assert (arr[:, 1:-1, 0] == 2).all()
    assert (arr[:, 0, 0] == 1).all() and (arr[:, -1, 0] == 1).all()


def test_5x5_random_matches_reference():
    rng = np.random.default_rng(11)
    luma = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
    pairs, steps = run_stage(luma)
    assert steps == 25 + 7
    assert np.array_equal(to_array(pairs, (5, 5)), ref_gradients(luma))


def test_latency_and_first_emission_index():
    assert warmup_steps(640) == 642
    assert warmup_steps(3) == 5
    luma = np.arange(9, dtype=np.uint8).reshape(3, 3)
    stage = GradientStage(3, 3)
    first = None
    for i, v in enumerate(luma.ravel()):
        if stage.push_pixel(int(v)) is not None and first is None:
            first = i
    assert first == 5  # first emitting step, counting pushes from 0


def test_emission_order_and_count():
    # squares of the pixel index make every pair tell its position apart
    luma = (np.arange(24, dtype=np.int64) ** 2 % 251).astype(np.uint8).reshape(6, 4)
    pairs, steps = run_stage(luma)
    ref = ref_gradients(luma)
    assert pairs == [tuple(ref[r, c].tolist()) for r in range(6) for c in range(4)]
    assert len(set(pairs)) == 24
    assert steps == 24 + 6


def test_one_emission_per_step_after_warmup():
    w, h = 5, 4
    stage = GradientStage(w, h)
    luma = np.zeros(w * h, dtype=np.uint8)
    for i, v in enumerate(luma):
        g = stage.push_pixel(int(v))
        assert (g is None) == (i < warmup_steps(w))


def test_buffer_holds_at_most_two_rows_plus_window():
    w, h = 16, 16
    stage = GradientStage(w, h)
    for v in range(w * h):
        stage.push_pixel(v % 256)
        assert stage.buffered_pixels <= 2 * w + 3


def test_drain_before_full_frame_rejected():
    stage = GradientStage(4, 4)
    stage.push_pixel(0)
    with pytest.raises(DimensionError):
        list(stage.drain())


@pytest.mark.parametrize("drained", range(warmup_steps(5) + 1))
def test_pixel_past_the_frame_is_refused_at_every_drain_step(drained):
    # drain's flushes take the pixel check's slow path, as a pixel past the frame does
    w, h = 5, 4
    luma = np.random.default_rng(3).integers(0, 256, size=(h, w), dtype=np.uint8)
    stage = GradientStage(w, h)
    pairs = [g for v in luma.ravel().tolist() if (g := stage.push_pixel(v)) is not None]
    drain = stage.drain()
    pairs += islice(drain, drained)
    before = ledger(stage)
    assert before == (w * h, w * h - warmup_steps(w) + drained, 2 * w + 3)
    assert stage.steps == w * h + drained
    for bad, error in (7, DimensionError), (256, LayoutError), (True, LayoutError):
        with pytest.raises(error):
            stage.push_pixel(bad)
        assert ledger(stage) == before
    pairs += drain
    assert np.array_equal(to_array(pairs, (h, w)), ref_gradients(luma))


class Interrupting:
    """A pixel whose read is interrupted, as by Ctrl-C mid-step."""

    def __index__(self):
        raise KeyboardInterrupt


def test_a_port_read_before_an_error_is_spent_and_the_stage_goes_on():
    luma = np.random.default_rng(5).integers(0, 256, size=(4, 5), dtype=np.uint8)
    pixels = luma.ravel().tolist()
    stage = GradientStage(5, 4)
    push = stage.push_pixel
    pairs = [g for v in pixels[:9] if (g := push(v)) is not None]
    with pytest.raises(LayoutError):
        push(256)
    with pytest.raises(KeyboardInterrupt):
        stage.push_pixel(Interrupting())
    assert (stage.pushed, stage.emitted, stage.buffered_pixels) == (9, 2, 9)
    # each error moved the stage to a new coroutine; the send read before the
    # first is spent, and its StopIteration is what map takes as the end
    with pytest.raises(StopIteration):
        push(pixels[9])
    assert list(map(push, pixels[9:])) == []
    pairs += [g for v in pixels[9:] if (g := stage.push_pixel(v)) is not None]
    pairs += stage.drain()
    assert np.array_equal(to_array(pairs, (4, 5)), ref_gradients(luma))


def ledger(stage):
    return stage.pushed, stage.emitted, stage.buffered_pixels


def held(stage):
    """Ints in the stage's row lists, which buffered_pixels, a formula, does not count."""
    return sum(map(len, stage._rows))


@pytest.mark.parametrize("w, h", [(3, 3), (4, 3), (3, 5), (5, 4), (7, 6), (300, 4)])
def test_ledger_after_every_step_matches_a_counter_model(w, h):
    luma = np.random.default_rng(w * h).integers(0, 256, size=(h, w), dtype=np.uint8)
    stage = GradientStage(w, h)
    pushed = emitted = 0
    pairs = []
    assert ledger(stage) == (0, 0, 0)
    for v in luma.ravel().tolist():
        g = stage.push_pixel(v)
        pushed += 1
        if g is not None:
            emitted += 1
            pairs.append(g)
        assert (g is None) == (pushed <= warmup_steps(w))
        assert ledger(stage) == (pushed, emitted, min(pushed, 2 * w + 3)), pushed
        assert held(stage) <= 3 * w + 2, pushed
    for g in stage.drain():
        emitted += 1
        pairs.append(g)
        assert ledger(stage) == (w * h, emitted, 2 * w + 3), emitted
        assert held(stage) <= 3 * w + 2, emitted
    assert emitted == w * h
    assert np.array_equal(to_array(pairs, (h, w)), ref_gradients(luma))


@pytest.mark.parametrize(
    "w, h, accepted", [(w, h, n) for w, h in ((5, 4), (6, 5)) for n in range(w * h + 1)]
)
def test_refusals_and_an_interrupt_after_any_pixel_leave_the_ledger(w, h, accepted):
    # every count: the warm-up, the first, interior and last columns of each
    # row, and the whole frame
    luma = np.random.default_rng(accepted).integers(0, 256, size=(h, w), dtype=np.uint8)
    pixels = luma.ravel().tolist()
    stage = GradientStage(w, h)
    pairs = [g for v in pixels[:accepted] if (g := stage.push_pixel(v)) is not None]
    before = ledger(stage)
    assert before == (accepted, len(pairs), min(accepted, 2 * w + 3))
    refused = (256, LayoutError), (True, LayoutError), (Interrupting(), KeyboardInterrupt)
    for bad, error in refused:
        with pytest.raises(error):
            stage.push_pixel(bad)
        assert ledger(stage) == before
    pairs += [g for v in pixels[accepted:] if (g := stage.push_pixel(v)) is not None]
    pairs += stage.drain()
    assert np.array_equal(to_array(pairs, (h, w)), ref_gradients(luma))


def test_too_small_frame_rejected():
    with pytest.raises(DimensionError):
        GradientStage(2, 8)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.uint8,
        st.tuples(st.integers(3, 16), st.integers(3, 16)),
        elements=st.integers(0, 255),
    )
)
def test_streamed_equals_two_loop_reference(luma):
    pairs, steps = run_stage(luma)
    h, w = luma.shape
    assert steps == w * h + w + 2
    assert len(pairs) == w * h
    assert np.array_equal(to_array(pairs, (h, w)), ref_gradients(luma))
    # gradients stay inside the 9-bit signed range
    assert all(-255 <= gx <= 255 and -255 <= gy <= 255 for gx, gy in pairs)
