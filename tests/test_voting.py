import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe.cordic import (
    GRID_SIDE,
    CordicConfig,
    polar_raw,
    polar_raw_arrays,
    polar_table,
)
from hogpipe.fixq import ANG, MAG
from hogpipe.golden import golden_vote_table
from hogpipe.pipeline import (
    BinVote,
    PipelineConfig,
    PolarGradient,
    StreamingPipeline,
    Tap,
)
from hogpipe.voting import BIN_COUNT, VoteTable, uint16_weights, vote_raw, vote_table
from oracles import ref_vote


def vote(p: PolarGradient) -> BinVote:
    """The voter on one polar record, as the pipeline's vote tap records it."""
    return BinVote(*vote_raw(p.magnitude, p.orientation), p.row, p.col)


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
    lo, hi = table.lo_bin, table.hi_bin
    lo_w, hi_w = table.lo_weight, table.hi_weight
    assert (lo_w + hi_w == mag).all()
    assert ((lo >= 0) & (lo < 9)).all()
    assert (hi == (lo + 1) % 9).all()
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


@pytest.mark.parametrize("table, weight_dtype", [
    pytest.param(lambda: vote_table(CordicConfig()), np.uint16, id="fixed"),
    pytest.param(golden_vote_table, np.float64, id="golden"),
])
def test_fixed_and_golden_tables_share_one_type_and_layout(table, weight_dtype):
    # int8 bins for both; uint16 fixed weights keep the fixed table in L2,
    # float64 golden weights feed exact_bincount
    t = table()
    assert type(t) is VoteTable
    for name in ("lo_bin", "hi_bin"):
        assert getattr(t, name).dtype == np.int8
    for name in ("lo_weight", "hi_weight"):
        assert getattr(t, name).dtype == weight_dtype
    for arr in vars(t).values():
        assert arr.shape == (GRID_SIDE**2,)


@pytest.mark.parametrize("bad", [-1, 65536, 114021])
def test_uint16_weights_refuses_weights_outside_uint16(bad):
    ok = np.array([0, 1, 23080, 65535], dtype=np.int64)
    assert np.array_equal(uint16_weights(ok), ok)
    with pytest.raises(ValueError, match="uint16"):
        uint16_weights(np.append(ok, bad))


def test_vote_table_refuses_a_config_that_overflows_mag():
    # MAG's headroom check is what bounds every fixed weight by 65,535
    with pytest.raises(ValueError, match="overflows MAG"):
        vote_table(CordicConfig(gain_reciprocal=3 * 65536))


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
    want = vote_raw(*polar_raw(gx, gy, cfg)[:2])
    assert (v.lo_bin, v.hi_bin, v.lo_weight, v.hi_weight) == want
    assert all(type(x) is int for x in (v.lo_bin, v.hi_bin, v.lo_weight, v.hi_weight))
