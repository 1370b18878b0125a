import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogpipe import cordic
from hogpipe.cordic import (
    GRID_SIDE,
    CordicConfig,
    PolarTable,
    gradient_grid,
    grid_index,
    polar_raw,
    polar_raw_arrays,
    polar_table,
)
from hogpipe.fixq import ANG, CELL_ACC, MAG
from oracles import ref_polar


CFG = CordicConfig()


def circ_dist_deg(a: float, b: float) -> float:
    """Distance on the 180-degree orientation circle."""
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def polar_deg(gx, gy):
    mag, ang, precise = polar_raw(gx, gy, CFG)
    return mag / MAG.scale, ang / ANG.scale, precise


def test_config_defaults():
    assert CFG.iterations == 16
    assert len(CFG.angle_table) == 16
    assert CFG.angle_table[0] == 45 * ANG.scale
    assert CFG.gain_reciprocal == round(0.6072529350088813 * 65536)
    with pytest.raises(ValueError):
        CordicConfig(iterations=13)


def test_angle_table_is_derived_not_settable():
    assert CFG.angle_table == (
        368640, 217621, 114985, 58368, 29297, 14663, 7333, 3667,
        1833, 917, 458, 229, 115, 57, 29, 14,
    )
    with pytest.raises(TypeError):
        CordicConfig(angle_table=CFG.angle_table)


def test_three_four_five():
    mag, ang, precise = polar_deg(3, 4)
    assert abs(precise - 5.0) <= 0.005
    assert abs(mag - 5.0) <= 0.005 + 0.5 / MAG.scale
    assert circ_dist_deg(ang, 53.13) <= 0.01


def test_zero_input_is_zero_by_convention():
    assert polar_raw(0, 0, CFG) == (0, 0, 0.0)


def test_unit_diagonal():
    mag, ang, precise = polar_deg(1, 1)
    assert abs(precise - math.sqrt(2)) <= 1e-3 * math.sqrt(2)
    assert circ_dist_deg(ang, 45.0) <= 0.01


def test_negative_x_axis_folds_to_zero():
    mag, ang, _ = polar_deg(-1, 0)
    assert abs(mag - 1.0) <= 0.002
    assert circ_dist_deg(ang, 0.0) <= 0.01
    assert 0.0 <= ang < 180.0


def test_axes():
    for gx, gy, want in [(5, 0, 0.0), (0, 5, 90.0), (0, -5, 90.0), (-5, 0, 0.0)]:
        mag, ang, _ = polar_deg(gx, gy)
        assert abs(mag - 5.0) <= 0.01
        assert circ_dist_deg(ang, want) <= 0.01


@given(st.integers(-255, 255), st.integers(-255, 255))
@settings(max_examples=200)
def test_sign_symmetry_exact(gx, gy):
    # negating both components is a 180-degree rotation, invisible after fold
    assert polar_raw(gx, gy, CFG) == polar_raw(-gx, -gy, CFG)


@given(st.integers(-127, 127), st.integers(-127, 127), st.integers(2, 2))
@settings(max_examples=100)
def test_scaling_leaves_orientation_stable(gx, gy, k):
    if gx == 0 and gy == 0:
        return
    _, a1, _ = polar_deg(gx, gy)
    _, a2, _ = polar_deg(k * gx, k * gy)
    assert circ_dist_deg(a1, a2) <= 0.02


@given(st.integers(-255, 255), st.integers(-255, 255))
@settings(max_examples=300)
def test_core_tracks_double_precision_oracle(gx, gy):
    if gx == 0 and gy == 0:
        return
    ref_mag, ref_ang = ref_polar(gx, gy)
    mag, ang, precise = polar_deg(gx, gy)
    assert abs(precise - ref_mag) <= 1e-3 * ref_mag
    assert circ_dist_deg(ang, ref_ang) <= 0.01
    # interface value is the RNE quantization of the precise one
    assert abs(mag - precise) <= 0.5 / MAG.scale + 1e-12


def test_outputs_stay_in_format_range():
    for gx, gy in [(255, 255), (-255, 255), (255, -255), (-255, -255), (255, 0)]:
        mag, ang, _ = polar_raw(gx, gy, CFG)
        assert 0 <= mag <= MAG.raw_max
        assert 0 <= ang < 180 * ANG.scale


def test_array_core_matches_scalar_on_sample():
    rng = np.random.default_rng(5)
    gx = rng.integers(-255, 256, size=4000)
    gy = rng.integers(-255, 256, size=4000)
    mag_a, ang_a, prec_a = polar_raw_arrays(gx, gy, CFG)
    for i in range(0, 4000, 37):
        m, a, p = polar_raw(int(gx[i]), int(gy[i]), CFG)
        assert (m, a) == (int(mag_a[i]), int(ang_a[i]))
        assert p == float(prec_a[i])


def test_table_matches_scalar_lookups():
    table = polar_table(CFG)
    for gx, gy in [(0, 0), (3, 4), (-255, 255), (1, 0), (-1, 0), (17, -252)]:
        m, a, _ = polar_raw(gx, gy, CFG)
        assert table.lookup(gx, gy) == (m, a)


@pytest.mark.parametrize(
    "cfg",
    [CordicConfig(14), CordicConfig(16), CordicConfig(20), CordicConfig(gain_reciprocal=1 << 16)],
    ids=["it14", "it16", "it20", "unit_gain"],
)
def test_table_equals_core_on_full_grid(cfg):
    table = polar_table(cfg)
    mag, ang, _ = polar_raw_arrays(*gradient_grid(), cfg)
    for got, want in ((table.mag_raw, mag), (table.ang_raw, ang)):
        assert got.dtype == np.int64 and got.shape == (GRID_SIDE**2,)
        assert np.array_equal(got, want)


def test_table_runs_core_once_on_one_quadrant(monkeypatch):
    sizes = []
    core = cordic.polar_raw_arrays

    def counted(gx, gy, cfg):
        sizes.append(gx.size)
        return core(gx, gy, cfg)

    monkeypatch.setattr(cordic, "polar_raw_arrays", counted)
    polar_table.cache_clear()
    polar_table(CFG)
    assert sizes == [256 * 256]
    # the headroom check reads the quadrant's peak, which is the grid's
    with pytest.raises(ValueError, match="overflows MAG"):
        polar_table(CordicConfig(gain_reciprocal=3 * 65536))
    assert sizes == [256 * 256] * 2


def test_table_build_checks_headroom():
    peak = int(polar_table(CFG).mag_raw.max())
    assert peak == 23080
    assert 64 * peak <= CELL_ACC.raw_max
    # a gain of 3 instead of ~0.607 drives the peak to 114021 raw
    with pytest.raises(ValueError, match="overflows MAG"):
        polar_table(CordicConfig(gain_reciprocal=3 * 65536))


def test_grid_index_matches_gradient_grid():
    gx, gy = gradient_grid()
    assert gx.size == GRID_SIDE * GRID_SIDE
    idx = grid_index(gx, gy)
    assert np.array_equal(idx, np.arange(gx.size))
    assert grid_index(-255, -255) == 0 and grid_index(255, 255) == gx.size - 1


def test_table_is_cached():
    assert polar_table(CFG) is polar_table(CFG)
    assert isinstance(polar_table(CFG), PolarTable)
