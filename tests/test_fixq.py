import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hogpipe.fixq import (
    ANG,
    CELL_ACC,
    GRAD,
    MAG,
    QFormat,
    QValue,
    quantize,
    rne_shift,
)


def test_named_formats_widths():
    assert (GRAD.signed, GRAD.int_bits, GRAD.frac_bits) == (True, 8, 0)
    assert GRAD.raw_min == -256 and GRAD.raw_max == 255
    assert MAG.raw_max == (1 << 16) - 1
    assert MAG.raw_max / MAG.scale == 2**10 - 2**-6
    assert ANG.raw_max / ANG.scale >= 180.0
    assert CELL_ACC.raw_max >= 64 * 594 * 64
    for fmt in (GRAD, MAG, ANG, CELL_ACC):
        assert fmt.payload_bits <= 32


def test_format_validation():
    with pytest.raises(ValueError):
        QFormat(signed=False, int_bits=20, frac_bits=13)
    with pytest.raises(ValueError):
        QFormat(signed=True, int_bits=-1, frac_bits=0)
    with pytest.raises(ValueError):
        QFormat(signed=False, int_bits=0, frac_bits=0)


def test_quantize_examples():
    assert quantize(0.0, MAG).raw == 0
    assert quantize(0.0, GRAD).raw == 0
    assert quantize(1.0, ANG).raw == 8192
    # 53.13 * 8192 = 435240.96, nearest integer 435241
    assert quantize(53.13, ANG).raw == 435241


def test_quantize_saturates_and_flags():
    v = quantize(2000.0, MAG)
    assert v.raw == MAG.raw_max and v.saturated
    v = quantize(-300.0, GRAD)
    assert v.raw == -256 and v.saturated
    v = quantize(-1.0, MAG)
    assert v.raw == 0 and v.saturated
    assert not quantize(100.0, MAG).saturated


def test_dequantize_roundtrip_exact_points():
    assert QValue(MAG, 320).value == 5.0
    assert QValue(ANG, 435241).value == pytest.approx(53.13, abs=2**-13)


def test_rne_shift_half_even():
    assert rne_shift(6, 2) == 2  # 1.5 -> 2? no: 6/4=1.5 -> even 2
    assert rne_shift(10, 2) == 2  # 2.5 -> 2
    assert rne_shift(14, 2) == 4  # 3.5 -> 4
    assert rne_shift(7, 2) == 2  # 1.75 -> 2
    assert rne_shift(5, 2) == 1  # 1.25 -> 1
    assert rne_shift(3, 0) == 3
    assert rne_shift(3, -2) == 12


_SMALL_FORMATS = [
    QFormat(signed=s, int_bits=i, frac_bits=f)
    for s in (False, True)
    for i in (1, 2, 3)
    for f in (0, 1, 2)
]


def _clamp_exact(exact: Fraction, fmt: QFormat) -> tuple[Fraction, bool]:
    lo = Fraction(fmt.raw_min, fmt.scale)
    hi = Fraction(fmt.raw_max, fmt.scale)
    clamped = min(max(exact, lo), hi)
    return clamped, clamped != exact


def _round_half_even(x: Fraction) -> int:
    lo = math.floor(x)
    frac = x - lo
    return lo + 1 if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and lo % 2) else lo


@pytest.mark.parametrize("fmt_a", _SMALL_FORMATS)
def test_ops_equal_exact_rational_then_quantize(fmt_a):
    # Brute force: the datapath's raw-int add, sub and multiply, brought back
    # to fmt_a by quantize (floats, exact for these small dyadic values) or by
    # rne_shift + clamp (ints, as the vote stage does), match exact rational
    # arithmetic followed by one round-half-even and one clamp to fmt_a.
    fmt_b = QFormat(signed=not fmt_a.signed, int_bits=2, frac_bits=fmt_a.frac_bits)
    for ra in range(fmt_a.raw_min, fmt_a.raw_max + 1):
        for rb in range(fmt_b.raw_min, fmt_b.raw_max + 1):
            a, b = QValue(fmt_a, ra), QValue(fmt_b, rb)
            for raw, frac_bits in (
                (ra + rb, fmt_a.frac_bits),
                (ra - rb, fmt_a.frac_bits),
                (ra * rb, fmt_a.frac_bits + fmt_b.frac_bits),
            ):
                exact = Fraction(raw, 1 << frac_bits)
                want, want_sat = _clamp_exact(
                    Fraction(_round_half_even(exact * fmt_a.scale), fmt_a.scale), fmt_a
                )
                got = quantize(float(exact), fmt_a)
                assert Fraction(got.raw, fmt_a.scale) == want
                assert got.saturated == want_sat
                shifted, sat = fmt_a.clamp(rne_shift(raw, frac_bits - fmt_a.frac_bits))
                assert Fraction(shifted, fmt_a.scale) == want and sat == want_sat
            assert a.value + b.value == float(Fraction(ra + rb, fmt_a.scale))


@given(st.floats(min_value=0.0, max_value=180.0, allow_nan=False))
def test_quantize_roundtrip_within_half_ulp(x):
    v = quantize(x, ANG)
    assert not v.saturated
    assert abs(v.value - x) <= 0.5 / ANG.scale + 1e-12


@given(st.integers(min_value=MAG.raw_min, max_value=MAG.raw_max))
def test_quantize_is_identity_on_representable(raw):
    x = raw / MAG.scale
    v = quantize(x, MAG)
    assert v.raw == raw and not v.saturated


def rational_rne(x: int, s: int) -> int:
    """x / 2**s rounded half to even on the exact rational."""
    exact = Fraction(x, 1 << s)
    lo = math.floor(exact)
    frac = exact - lo
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and lo % 2 == 1):
        return lo + 1
    return lo


@given(
    st.lists(
        st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 40)),
        min_size=1, max_size=16,
    )
)
def test_rne_shift_matches_rational_rounding(pairs):
    expect = {(x, s): rational_rne(x, s) for x, s in pairs}
    for x, s in pairs:
        got = rne_shift(x, s)
        assert type(got) is int and got == expect[x, s]
    # the same cases as one int64 array with a per-element (positive) shift
    pos = [(x, s) for x, s in pairs if s > 0]
    if pos:
        got = rne_shift(
            np.array([x for x, _ in pos], dtype=np.int64),
            np.array([s for _, s in pos], dtype=np.int64),
        )
        assert got.dtype == np.int64
        assert got.tolist() == [expect[p] for p in pos]
