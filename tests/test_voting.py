import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe import cordic, voting
from hogpipe.cordic import (
    GRID_SIDE,
    CordicConfig,
    polar_raw_arrays,
    polar_table,
)
from hogpipe.fixq import ANG, MAG, QFormat
from hogpipe.golden import golden_vote_table
from hogpipe.pipeline import (
    BinVote,
    PipelineConfig,
    PolarGradient,
    StreamingPipeline,
    Tap,
)
from hogpipe.voting import (
    BIN_COUNT,
    PACK_BITS,
    VoteTable,
    hi_bin,
    split_packed,
    vote_raw,
    vote_table,
)
from oracles import ref_polar_raw, ref_vote, ref_vote_raw


def vote(p: PolarGradient) -> BinVote:
    """The voter on one polar record, as the pipeline's vote tap records it."""
    lo, lo_w, hi_w = vote_raw(p.magnitude, p.orientation)
    return BinVote(lo, hi_bin(lo), lo_w, hi_w, p.row, p.col)


def pg(angle_deg: float, mag: float) -> PolarGradient:
    return PolarGradient(
        round(mag * MAG.scale), round(angle_deg * ANG.scale), 0, 0
    )


def test_center_thirty_degrees_all_to_bin_one():
    v = vote(pg(30.0, 10.0))
    assert v.lo_bin == 1
    assert v.lo_weight == round(10.0 * MAG.scale)
    assert v.hi_weight == 0


def test_every_center_gets_all_weight():
    for k in range(BIN_COUNT):
        for mag in (0.5, 10.0, 360.0, 594.0):
            v = vote(pg(10.0 + 20.0 * k, mag))
            assert v.lo_bin == k, (k, mag)
            assert v.hi_weight == 0
            assert v.lo_weight == round(mag * MAG.scale)


def test_midpoint_splits_evenly():
    v = vote(pg(20.0, 10.0))
    assert (v.lo_bin, v.hi_bin) == (0, 1)
    assert v.lo_weight == 320 and v.hi_weight == 320  # 5.0 each in U10.6


def test_wraparound_between_last_and_first_bin():
    v = vote(pg(175.0, 8.0))
    assert (v.lo_bin, v.hi_bin) == (8, 0)
    assert v.lo_weight == round(6.0 * MAG.scale)
    assert v.hi_weight == round(2.0 * MAG.scale)


def test_below_first_center_wraps_to_bin_eight():
    v = vote(pg(0.0, 2.0))
    assert (v.lo_bin, v.hi_bin) == (8, 0)
    assert v.lo_weight == v.hi_weight == round(1.0 * MAG.scale)


def test_zero_magnitude_votes_nothing():
    v = vote(pg(77.7, 0.0))
    assert v.lo_weight == 0 and v.hi_weight == 0


def test_hi_bin_is_always_next_mod_nine():
    for deg in np.linspace(0, 179.99, 137):
        v = vote(pg(float(deg), 3.0))
        assert v.hi_bin == (v.lo_bin + 1) % BIN_COUNT
        assert 0 <= v.lo_bin < BIN_COUNT


@given(
    st.integers(0, 180 * ANG.scale - 1),
    st.integers(0, MAG.raw_max),
)
@settings(max_examples=300)
def test_conservation_is_raw_exact(ang_raw, mag_raw):
    v = vote(PolarGradient(mag_raw, ang_raw, 0, 0))
    assert v.lo_weight + v.hi_weight == mag_raw
    assert v.lo_weight >= 0 and v.hi_weight >= 0


@given(st.integers(0, 180 * ANG.scale - 1), st.integers(0, MAG.raw_max))
@settings(max_examples=300)
def test_locality_weight_goes_to_bins_within_twenty_degrees(ang_raw, mag_raw):
    v = vote(PolarGradient(mag_raw, ang_raw, 0, 0))
    ang = ang_raw / ANG.scale
    for b, w in ((v.lo_bin, v.lo_weight), (v.hi_bin, v.hi_weight)):
        if w > 0:
            center = 10.0 + 20.0 * b
            d = abs(ang - center) % 180.0
            assert min(d, 180.0 - d) <= 20.0 + 1e-9


def test_exhaustive_grid_agrees_with_real_voter_within_one_ulp():
    # the table the fast path gathers from: every gradient pair the
    # pipeline can ever produce
    polar = polar_table(CordicConfig())
    mag, ang = polar.mag_raw, polar.ang_raw
    table = vote_table(CordicConfig())
    lo, (packed,) = table.lo_bin, table.weights
    # the table's one float64 weight carries both sides of vote_raw's vote
    want_lo, want_lo_w, want_hi_w = vote_raw(mag, ang.astype(np.int64))
    assert np.array_equal(lo, want_lo)
    assert np.array_equal(packed, want_lo_w + want_hi_w * 2.0**PACK_BITS)
    lo_w, hi_w = split_packed(packed)
    assert np.array_equal(lo_w, want_lo_w) and np.array_equal(hi_w, want_hi_w)
    assert (lo_w + hi_w == mag).all()
    assert ((lo >= 0) & (lo < 9)).all()
    # real-valued reference on the dequantized inputs
    t = ((ang / ANG.scale - 10.0) % 180.0) / 20.0
    ref_lo = np.floor(t).astype(np.int64) % 9
    ref_hi_w = (mag / MAG.scale) * (t - np.floor(t))
    ref_lo_w = mag / MAG.scale - ref_hi_w
    same = ref_lo == lo
    ulp = 1.0 / MAG.scale
    # where the integer voter picked the same low bin, weights agree to 1 ulp
    assert np.abs(hi_w[same] / MAG.scale - ref_hi_w[same]).max() <= ulp
    assert np.abs(lo_w[same] / MAG.scale - ref_lo_w[same]).max() <= ulp
    # disagreements only happen within a whisker of a bin edge, where the
    # same mass lands in the same bin from the other side
    if (~same).any():
        frac = t[~same] - np.floor(t[~same])
        edge = np.minimum(frac, 1.0 - frac)
        assert edge.max() <= 1e-5
        assert np.abs(hi_w[~same] + lo_w[~same] - mag[~same]).max() == 0


@given(st.integers(-255, 255), st.integers(-255, 255))
@settings(max_examples=200)
def test_scalar_matches_reference_voter(gx, gy):
    gxa = np.array([gx], dtype=np.int64)
    gya = np.array([gy], dtype=np.int64)
    mag, ang, _ = polar_raw_arrays(gxa, gya, CordicConfig())
    v = vote(PolarGradient(int(mag[0]), int(ang[0]), 0, 0))
    lo, lo_w, hi, hi_w = ref_vote(mag[0] / MAG.scale, ang[0] / ANG.scale)
    if lo == v.lo_bin:
        assert abs(v.hi_weight / MAG.scale - hi_w) <= 1.0 / MAG.scale
        assert abs(v.lo_weight / MAG.scale - lo_w) <= 1.0 / MAG.scale


def test_vote_table_equals_the_oracle_voter_on_every_pair():
    # the polar table is pinned to the oracle CORDIC; vote each entry of it
    cfg = CordicConfig()
    polar, table = polar_table(cfg), vote_table(cfg)
    votes = map(ref_vote_raw, polar.mag_raw.tolist(), polar.ang_raw.tolist())
    lo, _, lo_w, hi_w = (np.array(v) for v in zip(*votes))
    assert np.array_equal(table.lo_bin, lo)
    assert np.array_equal(table.weights[0], lo_w + hi_w * 2.0**PACK_BITS)


@pytest.mark.parametrize("table, weight_rows", [
    pytest.param(lambda: vote_table(CordicConfig()), 1, id="fixed"),
    pytest.param(golden_vote_table, 2, id="golden"),
])
def test_fixed_and_golden_tables_share_one_type_and_layout(table, weight_rows):
    # int8 low bins for both; float64 weights keyed by them: the fixed
    # table's one packed weight, the golden table's low and high weights
    t = table()
    assert type(t) is VoteTable
    assert list(vars(t)) == ["lo_bin", "weights"]
    assert t.lo_bin.dtype == np.int8 and t.lo_bin.shape == (GRID_SIDE**2,)
    assert t.weights.dtype == np.float64
    assert t.weights.shape == (weight_rows, GRID_SIDE**2)


def test_vote_table_refuses_cell_totals_that_reach_the_packing_shift(monkeypatch):
    # each side of a packed cell total must stay below 2**PACK_BITS
    build = vote_table.__wrapped__  # past the cache: the config is unchanged
    monkeypatch.setattr(voting, "CELL_ACC", QFormat(PACK_BITS - 6, 6))
    build(CordicConfig())
    monkeypatch.setattr(voting, "CELL_ACC", QFormat(PACK_BITS - 5, 6))
    with pytest.raises(ValueError, match="packing shift"):
        build(CordicConfig())


def test_persistent_tables_fit_the_memory_budget():
    # the int32 polar arrays, the int8 low bins and one packed float64
    # weight: 8 + 1 + 8 bytes per gradient pair, 4.44 MB
    cfg = CordicConfig()
    arrays = [*vars(polar_table(cfg)).values(), *vars(vote_table(cfg)).values()]
    nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert nbytes <= 17 * GRID_SIDE**2


def test_vote_table_refuses_a_config_that_overflows_mag(monkeypatch):
    # the polar table's MAG headroom check is what bounds every fixed weight
    monkeypatch.setattr(cordic, "MAG", QFormat(8, MAG.frac_bits))  # 16,383 raw
    polar_table.cache_clear()  # rebuild under the narrow MAG; a refusal caches nothing
    with pytest.raises(ValueError, match="overflows MAG"):
        vote_table.__wrapped__(CordicConfig())


def _frame_with_gradient(gx: int, gy: int) -> np.ndarray:
    """A 16x16 frame whose pixel (8, 8) has gradient (gx, gy)."""
    luma = np.zeros((16, 16), dtype=np.uint8)
    left, up = max(0, -gx), max(0, -gy)
    luma[8, 7], luma[8, 9] = left, left + gx
    luma[7, 8], luma[9, 8] = up, up + gy
    return luma


@pytest.mark.parametrize("iterations", [16, 14])
@pytest.mark.parametrize("gx, gy", [
    (0, 0), (255, 255), (255, -255), (-255, 255), (-255, -255),
    (1, 0), (-1, 0), (17, -252),
])
def test_streaming_vote_read_equals_the_scalar_voter(iterations, gx, gy):
    cfg = CordicConfig(iterations=iterations)
    luma = _frame_with_gradient(gx, gy)
    pipe = StreamingPipeline(
        PipelineConfig(16, 16, cordic=cfg, taps={Tap.GRADIENTS, Tap.VOTES})
    )
    for px in luma.ravel().tolist():
        pipe.step(px)
    pipe.finish()
    i = 8 * 16 + 8
    g = pipe.captures(Tap.GRADIENTS)[i]
    assert (g.gx, g.gy, g.row, g.col) == (gx, gy, 8, 8)
    v = pipe.captures(Tap.VOTES)[i]
    lo, lo_w, hi_w = vote_raw(*ref_polar_raw(gx, gy, iterations)[:2])
    assert (v.lo_bin, v.hi_bin, v.lo_weight, v.hi_weight) == (lo, hi_bin(lo), lo_w, hi_w)
    assert all(type(x) is int for x in (v.lo_bin, v.hi_bin, v.lo_weight, v.hi_weight))
