import math
from types import SimpleNamespace

import numpy as np
import pytest

from hogpipe.detector import (
    Detection,
    SvmModel,
    detect,
    load_model,
    save_model,
    score_window,
)
from hogpipe.errors import CountMismatch, FormatError, OutOfBoundsError
from hogpipe.pipeline import PipelineConfig, run_frame_fast
from hogpipe.textures import make_corpus, smooth_noise

N_FEATURES = 3780


def frame_of(blocks):
    return SimpleNamespace(blocks=blocks)


def rand_blocks(rng, block_rows, block_cols):
    return rng.random((block_rows, block_cols, 36))


def naive_score(blocks, cx, cy, model):
    """Independent gather-then-dot: explicit loops, fsum accumulation."""
    bw = model.window_cell_cols - 1
    bh = model.window_cell_rows - 1
    terms = []
    for by in range(bh):
        for bx in range(bw):
            for k in range(36):
                w = model.weights[(by * bw + bx) * 36 + k]
                terms.append(float(blocks[cy + by, cx + bx, k]) * float(w))
    return math.fsum(terms) + model.bias


def loop_detect(frame, model, stride_cells=1):
    """The oracle for detect(): score_window at every window position in a
    Python loop, the above-threshold ones best first, (y, x) breaking ties."""
    blocks = frame.blocks
    cell_rows, cell_cols = blocks.shape[0] + 1, blocks.shape[1] + 1
    out = []
    for cy in range(0, cell_rows - model.window_cell_rows + 1, stride_cells):
        for cx in range(0, cell_cols - model.window_cell_cols + 1, stride_cells):
            s = score_window(frame, cx, cy, model)
            if s > model.threshold:
                out.append(Detection(cx * 8, cy * 8, s))
    out.sort(key=lambda d: (-d.score, d.y, d.x))
    return out


def near(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def assert_detect_matches_loop(frame, weights, bias, stride):
    """detect() against loop_detect() at -inf, +inf, the 0.9 quantile of the
    scores, one of the oracle's scores and one of detect()'s own scores.
    Scores agree to 1e-9; the hit sets agree except for windows whose
    oracle score is within 1e-9 of the threshold."""
    every = SvmModel(weights=weights, bias=bias, threshold=-math.inf)
    want_all = {(d.x, d.y): d.score for d in loop_detect(frame, every, stride)}
    got_all = detect(frame, every, stride)
    picks = [math.inf]
    if want_all:
        scores = sorted(want_all.values())
        picks += [
            float(np.quantile(scores, 0.9)),
            scores[len(scores) // 3],
            got_all[len(got_all) // 2].score,
        ]
    for threshold in [-math.inf, *picks]:
        model = SvmModel(weights=weights, bias=bias, threshold=threshold)
        hits = detect(frame, model, stride)
        keys = [(-d.score, d.y, d.x) for d in hits]
        assert keys == sorted(keys)
        assert all(d.score > threshold for d in hits)
        for d in hits:
            assert near(d.score, want_all[(d.x, d.y)])
        want = {(d.x, d.y) for d in loop_detect(frame, model, stride)}
        got = {(d.x, d.y) for d in hits}
        assert len(got) == len(hits)
        edge = {xy for xy, s in want_all.items() if near(s, threshold)}
        assert got - edge == want - edge


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize(
    "block_rows,block_cols",
    [(15, 7), (14, 7), (15, 6), (16, 9), (17, 11), (23, 8), (59, 79)],
)
def test_detect_matches_loop_oracle_on_random_blocks(block_rows, block_cols, stride):
    # window-sized, one cell short in each direction, odd sizes, VGA
    rng = np.random.default_rng([block_rows, block_cols, stride])
    blocks = rng.random((block_rows, block_cols, 36))
    assert_detect_matches_loop(
        frame_of(blocks), rng.normal(size=N_FEATURES), float(rng.normal()), stride
    )


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_detect_matches_loop_oracle_on_corpus_frames(stride):
    cfg = PipelineConfig(width=200, height=168)
    rng = np.random.default_rng(stride)
    for _, luma in make_corpus(11, cfg.width, cfg.height, seed=1)[::2]:
        hog, _ = run_frame_fast(luma, cfg)
        assert_detect_matches_loop(hog, rng.normal(size=N_FEATURES), 0.25, stride)


def test_plateau_windows_pass_or_fail_together():
    # rows repeat with period 2 and columns with period 3, so each window
    # is identical to every window 2k cells below and 3k cells right of it
    rng = np.random.default_rng(8)
    blocks = np.tile(rng.random((2, 3, 36)), (12, 10, 1))
    frame = frame_of(blocks)
    weights = rng.normal(size=N_FEATURES)
    every = detect(frame, SvmModel(weights=weights, threshold=-math.inf))
    plateaus = {}
    for d in every:
        plateaus.setdefault(((d.y // 8) % 2, (d.x // 8) % 3), []).append(d)
    assert len(plateaus) == 6
    for members in plateaus.values():
        assert len({d.score for d in members}) == 1  # bit-identical
        ours = members[0].score
        oracle = score_window(frame, members[0].x // 8, members[0].y // 8,
                              SvmModel(weights=weights))
        plateau = {(d.x, d.y) for d in members}
        for threshold in [ours, oracle, np.nextafter(ours, -math.inf)]:
            hits = detect(frame, SvmModel(weights=weights, threshold=threshold))
            got = plateau & {(d.x, d.y) for d in hits}
            assert got in (set(), plateau)
            assert (got == plateau) == (ours > threshold)
            tied = [(d.y, d.x) for d in hits if d.score == ours]
            assert tied == sorted(tied)


def test_model_validates_weight_count():
    SvmModel(weights=np.zeros(N_FEATURES))
    with pytest.raises(CountMismatch):
        SvmModel(weights=np.zeros(N_FEATURES - 1))
    # the window is the fixed 8x16 cells, not a per-model setting
    model = SvmModel(weights=np.zeros(N_FEATURES))
    assert (model.window_cell_cols, model.window_cell_rows) == (8, 16)
    with pytest.raises(TypeError):
        SvmModel(weights=np.zeros(7 * 7 * 36), window_cell_cols=8, window_cell_rows=8)


def test_window_position_arithmetic():
    # a threshold of -inf keeps every window detect() scores
    model = SvmModel(weights=np.zeros(N_FEATURES), threshold=-math.inf)

    def windows(cell_cols, cell_rows, stride=1):
        blocks = np.zeros((cell_rows - 1, cell_cols - 1, 36))
        return len(detect(frame_of(blocks), model, stride))

    assert windows(80, 60) == 73 * 45 == 3285
    assert windows(8, 16) == 1
    assert windows(7, 16) == 0
    assert windows(80, 60, stride=2) == 37 * 23


def test_zero_weights_score_is_bias():
    rng = np.random.default_rng(0)
    blocks = rand_blocks(rng, 15, 7)
    model = SvmModel(weights=np.zeros(N_FEATURES), bias=-2.5)
    assert score_window(frame_of(blocks), 0, 0, model) == -2.5


def test_unit_weights_score_is_feature_sum():
    rng = np.random.default_rng(1)
    blocks = rand_blocks(rng, 20, 12)
    model = SvmModel(weights=np.ones(N_FEATURES))
    got = score_window(frame_of(blocks), 3, 2, model)
    want = float(np.sum(blocks[2:17, 3:10]))
    assert got == pytest.approx(want, rel=1e-12)


def test_score_matches_naive_reference():
    rng = np.random.default_rng(2)
    for _ in range(20):
        blocks = rand_blocks(rng, 17, 11)
        model = SvmModel(
            weights=rng.normal(size=N_FEATURES), bias=float(rng.normal())
        )
        cx = int(rng.integers(0, 11 - 7 + 1))
        cy = int(rng.integers(0, 17 - 15 + 1))
        got = score_window(frame_of(blocks), cx, cy, model)
        want = naive_score(blocks, cx, cy, model)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_score_is_linear_in_features():
    rng = np.random.default_rng(3)
    f = rand_blocks(rng, 15, 7)
    g = rand_blocks(rng, 15, 7)
    model = SvmModel(weights=rng.normal(size=N_FEATURES))  # bias 0
    a, b = 0.7, -1.3
    mixed = score_window(frame_of(a * f + b * g), 0, 0, model)
    split = a * score_window(frame_of(f), 0, 0, model) + b * score_window(
        frame_of(g), 0, 0, model
    )
    assert mixed == pytest.approx(split, rel=1e-9, abs=1e-9)


def test_out_of_bounds_windows_raise():
    blocks = np.zeros((15, 7, 36))
    model = SvmModel(weights=np.zeros(N_FEATURES))
    score_window(frame_of(blocks), 0, 0, model)  # exactly fits
    for cx, cy in [(-1, 0), (0, -1), (1, 0), (0, 1)]:
        with pytest.raises(OutOfBoundsError):
            score_window(frame_of(blocks), cx, cy, model)


def test_detect_scores_every_position_and_sorts():
    rng = np.random.default_rng(4)
    blocks = rand_blocks(rng, 59, 79)  # the 640x480 block grid
    model = SvmModel(
        weights=rng.normal(size=N_FEATURES), threshold=-np.inf
    )
    hits = detect(frame_of(blocks), model)
    assert len(hits) == 3285
    scores = [d.score for d in hits]
    assert scores == sorted(scores, reverse=True)
    assert all(d.x % 8 == 0 and d.y % 8 == 0 for d in hits)


def test_detect_ties_break_by_y_then_x():
    blocks = np.full((17, 9, 36), 0.1)  # every window identical
    model = SvmModel(weights=np.ones(N_FEATURES), threshold=-np.inf)
    hits = detect(frame_of(blocks), model)
    assert [(d.y, d.x) for d in hits] == [
        (0, 0), (0, 8), (0, 16), (8, 0), (8, 8), (8, 16),
        (16, 0), (16, 8), (16, 16),
    ]


def test_detect_stride_is_a_subset_of_stride_one():
    rng = np.random.default_rng(5)
    blocks = rand_blocks(rng, 23, 15)
    model = SvmModel(weights=rng.normal(size=N_FEATURES), threshold=-np.inf)
    full = {(d.x, d.y): d.score for d in detect(frame_of(blocks), model)}
    for d in detect(frame_of(blocks), model, stride_cells=2):
        assert (d.x // 8) % 2 == 0 and (d.y // 8) % 2 == 0
        assert full[(d.x, d.y)] == d.score


def test_detect_with_infinite_threshold_is_empty():
    rng = np.random.default_rng(6)
    blocks = rand_blocks(rng, 15, 7)
    model = SvmModel(weights=rng.normal(size=N_FEATURES), threshold=np.inf)
    assert detect(frame_of(blocks), model) == []


def test_frame_smaller_than_window_yields_nothing():
    blocks = np.zeros((10, 5, 36))
    model = SvmModel(weights=np.zeros(N_FEATURES), threshold=-np.inf)
    assert detect(frame_of(blocks), model) == []


def test_model_roundtrips_through_file(tmp_path):
    rng = np.random.default_rng(7)
    model = SvmModel(
        weights=rng.normal(size=N_FEATURES),
        bias=0.125,
        threshold=-1.75,
    )
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    assert back.threshold == model.threshold


def test_load_rejects_wrong_weight_count(tmp_path):
    p = tmp_path / "short.txt"
    lines = [f"hog-svm v1 {N_FEATURES}"] + ["0.0"] * (N_FEATURES - 1)
    lines += ["bias 0.0", "threshold 0.0"]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(CountMismatch):
        load_model(p)


def test_load_rejects_malformed_weight(tmp_path):
    p = tmp_path / "bad.txt"
    lines = [f"hog-svm v1 {N_FEATURES}"] + ["0.0"] * N_FEATURES
    lines[5] = "not-a-number"
    lines += ["bias 0.0", "threshold 0.0"]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        load_model(p)


def test_load_rejects_bad_header_and_trailers(tmp_path):
    p = tmp_path / "h.txt"
    p.write_text("svm-hog v1 0\nbias 0\nthreshold 0\n")
    with pytest.raises(FormatError):
        load_model(p)
    p.write_text("hog-svm v2 0\nbias 0\nthreshold 0\n")
    with pytest.raises(FormatError):
        load_model(p)
    p.write_text("hog-svm v1 0\nthreshold 0\nbias 0\n")
    with pytest.raises(FormatError):
        load_model(p)


@pytest.mark.parametrize(
    "weight, bias, threshold",
    [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, -math.inf, 0.0),
     (0.0, 0.0, math.nan)],
)
def test_model_rejects_non_finite_values(weight, bias, threshold):
    # detect would silently return no hits
    with pytest.raises(FormatError):
        SvmModel(np.full(N_FEATURES, weight), bias, threshold)


@pytest.mark.parametrize(
    "weight,bias,threshold",
    [("nan", "0", "0"), ("inf", "0", "0"), ("0", "nan", "0"), ("0", "-inf", "0"),
     ("0", "0", "nan")],
)
def test_load_rejects_non_finite_values(tmp_path, weight, bias, threshold):
    p = tmp_path / "m.txt"
    lines = [f"hog-svm v1 {N_FEATURES}"] + [weight] * N_FEATURES
    lines += [f"bias {bias}", f"threshold {threshold}"]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        load_model(p)


def test_load_rejects_negative_count(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("hog-svm v1 -2\n")
    with pytest.raises(FormatError):
        load_model(p)


def test_detection_fields():
    d = Detection(x=16, y=24, score=0.5)
    assert (d.x, d.y, d.score) == (16, 24, 0.5)


def test_vga_frame_hits_are_immutable_sorted_and_match_score_window():
    cfg = PipelineConfig(width=640, height=480)
    hog, _ = run_frame_fast(smooth_noise(cfg.width, cfg.height, seed=3), cfg)
    rng = np.random.default_rng(7)
    model = SvmModel(weights=rng.normal(size=N_FEATURES), threshold=-math.inf)
    hits = detect(hog, model)
    assert len(hits) == 3285  # 73 x 45 windows on the 80x60 cell grid
    assert all(type(d) is Detection for d in hits)
    assert hits == sorted(hits, key=lambda d: (-d.score, d.y, d.x))
    assert len(set(hits)) == len(hits) and hits[0] == Detection(hits[0].x, hits[0].y, hits[0].score)
    for d in hits:
        assert near(d.score, score_window(hog, d.x // 8, d.y // 8, model))
    with pytest.raises(AttributeError):
        hits[0].score = 0.0
