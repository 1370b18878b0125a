"""End-to-end acceptance checks, one per stated criterion, each with its
runtime budget asserted from a wall-clock measurement of the check body.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from hogpipe.cordic import CordicConfig, polar_raw_arrays, polar_table
from hogpipe.detector import SvmModel, detect, score_window
from hogpipe.fixq import MAG
from hogpipe.golden import compare, golden_hog
from hogpipe.pipeline import PipelineConfig, StreamingPipeline, run_frame, run_frame_fast
from hogpipe.textures import make_corpus
from hogpipe.voting import vote_table
from oracles import ref_batch_fixed, ref_hog

VGA = PipelineConfig(width=640, height=480)


@pytest.fixture(scope="module")
def vga_luma():
    return np.random.default_rng(2026).integers(0, 256, size=(480, 640), dtype=np.uint8)


@pytest.fixture(scope="module")
def vga_streamed(vga_luma):
    """One fully instrumented streaming run, shared by the throughput and
    memory criteria."""
    pipe = StreamingPipeline(VGA)
    t0 = time.perf_counter()
    for px in vga_luma.ravel().tolist():
        pipe.step(px)
    hog, stats = pipe.finish()
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(pipe=pipe, hog=hog, stats=stats, elapsed=elapsed)


def test_criterion_1_geometry(vga_luma):
    t0 = time.perf_counter()
    hog, stats = run_frame_fast(vga_luma, VGA)
    assert hog.cells.shape == (60, 80, 9)
    assert hog.cells.size == 43200
    assert hog.blocks.shape == (59, 79, 36)
    assert stats.cells_out == 4800
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_accuracy_over_corpus():
    t0 = time.perf_counter()
    corpus = make_corpus(20)
    assert len(corpus) >= 20
    errs = {}
    for name, luma in corpus:
        hog, _ = run_frame_fast(luma, VGA)
        gold = golden_hog(luma)
        errs[name] = compare(hog, gold).mean_rel_err
    mean_err = sum(errs.values()) / len(errs)
    assert mean_err <= 0.03, f"corpus mean {mean_err:.4f}, per-frame {errs}"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_throughput(vga_streamed, vga_luma):
    t0 = time.perf_counter()
    stats = vga_streamed.stats
    assert stats.pixels_in == 307200
    assert stats.pixels_per_step >= 0.99
    assert stats.pixels_per_step == 307200 / 307842

    # wall-clock regression floor on the vectorized path, single-threaded
    vote_table(VGA.cordic)  # memo tables are one-time setup, not per-frame work
    frames = [
        np.random.default_rng(s).integers(0, 256, size=(480, 640), dtype=np.uint8)
        for s in range(8)
    ]
    t1 = time.perf_counter()
    for luma in frames:
        run_frame_fast(luma, VGA)
    dt = time.perf_counter() - t1
    mps = len(frames) * 307200 / dt / 1e6
    assert mps >= 20.0, f"measured {mps:.1f} MP/s"
    assert time.perf_counter() - t0 + vga_streamed.elapsed < 10.0


def test_criterion_4_cordic_exhaustive_sweep():
    t0 = time.perf_counter()
    side = np.arange(-255, 256, dtype=np.int64)
    gx = np.repeat(side, 511)
    gy = np.tile(side, 511)
    mag_raw, ang_raw, precise = polar_raw_arrays(gx, gy, CordicConfig())

    true_mag = np.hypot(gx.astype(np.float64), gy.astype(np.float64))
    true_ang = np.degrees(np.arctan2(gy.astype(np.float64), gx.astype(np.float64)))
    true_ang = np.where(true_ang < 0, true_ang + 180.0, true_ang)
    true_ang = np.where(true_ang == 180.0, 0.0, true_ang)

    got_ang = ang_raw / 2.0**13
    d = np.abs(got_ang - true_ang)
    circ = np.minimum(d, 180.0 - d)
    assert float(circ.max()) <= 0.01

    nz = true_mag > 0
    rel = np.abs(precise[nz] - true_mag[nz]) / true_mag[nz]
    assert float(rel.max()) <= 1e-3
    # the quantized interface value rounds the compensated result to
    # nearest even; never further than half a magnitude ulp
    assert float(np.max(np.abs(mag_raw - precise * MAG.scale))) <= 0.5 + 1e-6
    zero = ~nz
    assert np.all(mag_raw[zero] == 0) and np.all(ang_raw[zero] == 0)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5_conservation_suite():
    t0 = time.perf_counter()
    table = polar_table(CordicConfig())
    rng = np.random.default_rng(55)
    sizes = [(16, 16), (16, 24), (24, 16), (24, 24), (32, 16), (16, 32)]
    for i in range(1000):
        h, w = sizes[i % len(sizes)]
        luma = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        cfg = PipelineConfig(width=w, height=h)
        hog, stats = run_frame_fast(luma, cfg)

        # replicated-edge central differences by clamped neighbor index
        lum = luma.astype(np.int64)
        cols, rows = np.arange(w), np.arange(h)
        gx = lum[:, np.minimum(cols + 1, w - 1)] - lum[:, np.maximum(cols - 1, 0)]
        gy = lum[np.minimum(rows + 1, h - 1)] - lum[np.maximum(rows - 1, 0)]
        flat = (gx.ravel() + 255) * 511 + (gy.ravel() + 255)
        mag_sum = int(table.mag_raw[flat].sum())
        assert int(hog.cells.sum()) == mag_sum  # raw-exact mass conservation
        assert stats.cells_out == (w // 8) * (h // 8)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_5_streamed_votes_conserve():
    from hogpipe.pipeline import Tap

    rng = np.random.default_rng(56)
    for _ in range(25):
        luma = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        cfg = PipelineConfig(width=16, height=16, taps=frozenset({Tap.POLAR, Tap.VOTES}))
        pipe = StreamingPipeline(cfg)
        for px in luma.ravel().tolist():
            pipe.step(px)
        hog, _ = pipe.finish()
        polar = pipe.captures(Tap.POLAR)
        votes = pipe.captures(Tap.VOTES)
        for p, v in zip(polar, votes):
            assert v.lo_weight + v.hi_weight == p.magnitude  # per-vote exact
        assert int(hog.cells.sum()) == sum(p.magnitude for p in polar)


def test_criterion_6_streaming_batch_golden_equivalence():
    t0 = time.perf_counter()
    cordic = CordicConfig()
    rng = np.random.default_rng(66)
    sizes = [(h, w) for h in (16, 24, 32) for w in (16, 24, 32)]
    for h, w in sizes:
        for _ in range(4):
            luma = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            cfg = PipelineConfig(width=w, height=h)

            streamed, _ = run_frame(luma, cfg)
            batch_cells, batch_blocks = ref_batch_fixed(luma, cordic)
            assert np.array_equal(streamed.cells, batch_cells)
            assert np.array_equal(streamed.blocks, batch_blocks)

            fast, _ = run_frame_fast(luma, cfg)
            assert np.array_equal(fast.cells, streamed.cells)
            assert np.array_equal(fast.blocks, streamed.blocks)

            gold = golden_hog(luma)
            naive_cells, naive_blocks = ref_hog(luma)
            assert np.array_equal(gold.cells, naive_cells)
            assert np.array_equal(gold.blocks, naive_blocks)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_memory_bound(vga_streamed):
    pipe = vga_streamed.pipe
    width = 640
    # two pixel rows plus the 3-pixel window tail, never a whole frame
    assert pipe.peak_pixel_buffer <= 2 * width + 3
    assert pipe.cell_partials == width // 8
    assert pipe.peak_cell_row_buffer <= width // 8 + 1


def test_criterion_8_detector(vga_luma):
    t0 = time.perf_counter()
    hog, _ = run_frame_fast(vga_luma, VGA)
    rng = np.random.default_rng(88)
    model = SvmModel(weights=rng.normal(size=3780), threshold=-np.inf)
    assert len(detect(hog, model)) == 3285

    # naive gather-then-dot agreement on 100 random (frame, model) pairs
    for i in range(100):
        if i % 10 == 0:
            blocks = hog.blocks  # real pipeline output among the synthetics
        else:
            blocks = rng.random((17, 11, 36))
        m = SvmModel(weights=rng.normal(size=3780), bias=float(rng.normal()))
        cy = int(rng.integers(0, blocks.shape[0] - 15 + 1))
        cx = int(rng.integers(0, blocks.shape[1] - 7 + 1))
        got = score_window(SimpleNamespace(blocks=blocks), cx, cy, m)
        terms = [
            float(blocks[cy + by, cx + bx, k]) * float(m.weights[(by * 7 + bx) * 36 + k])
            for by in range(15)
            for bx in range(7)
            for k in range(36)
        ]
        want = math.fsum(terms) + m.bias
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
    assert time.perf_counter() - t0 < 10.0
