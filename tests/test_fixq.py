import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hogpipe.fixq import ANG, CELL_ACC, MAG, QFormat, rne_shift


def test_named_formats_widths():
    assert MAG.raw_max == (1 << 16) - 1
    assert MAG.raw_max / MAG.scale == 2**10 - 2**-6
    assert ANG.raw_max / ANG.scale >= 180.0
    assert CELL_ACC.raw_max >= 64 * 594 * 64
    # cells add MAG raw weights unshifted
    assert CELL_ACC.frac_bits == MAG.frac_bits
    for fmt in (MAG, ANG, CELL_ACC):
        assert fmt.int_bits + fmt.frac_bits <= 32


def test_format_validation():
    with pytest.raises(ValueError):
        QFormat(int_bits=20, frac_bits=13)
    with pytest.raises(ValueError):
        QFormat(int_bits=-1, frac_bits=0)
    with pytest.raises(ValueError):
        QFormat(int_bits=0, frac_bits=0)


def test_rne_shift_half_even():
    assert rne_shift(6, 2) == 2  # 1.5 -> 2? no: 6/4=1.5 -> even 2
    assert rne_shift(10, 2) == 2  # 2.5 -> 2
    assert rne_shift(14, 2) == 4  # 3.5 -> 4
    assert rne_shift(7, 2) == 2  # 1.75 -> 2
    assert rne_shift(5, 2) == 1  # 1.25 -> 1
    assert rne_shift(3, 0) == 3
    assert rne_shift(3, -2) == 12


_SMALL_FORMATS = [
    QFormat(int_bits=i, frac_bits=f)
    for ints, fracs in (((1, 2, 3), (0, 1, 2)), ((0, 1, 2), (3, 4, 5)))
    for i in ints
    for f in fracs
]


def _round_half_even(x: Fraction) -> int:
    lo = math.floor(x)
    frac = x - lo
    return lo + 1 if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and lo % 2) else lo


@pytest.mark.parametrize("fmt_a", _SMALL_FORMATS)
def test_ops_equal_exact_rational_then_quantize(fmt_a):
    # Brute force: the datapath's raw-int add, sub and multiply, brought back
    # to fmt_a by rne_shift (as the vote stage does) or by round on the
    # float value (as real constants are converted; exact for these small
    # dyadic values), match exact rational arithmetic followed by one
    # round-half-even.
    fmt_b = QFormat(int_bits=2, frac_bits=fmt_a.frac_bits)
    for ra in range(fmt_a.raw_max + 1):
        for rb in range(fmt_b.raw_max + 1):
            for raw, frac_bits in (
                (ra + rb, fmt_a.frac_bits),
                (ra - rb, fmt_a.frac_bits),
                (ra * rb, fmt_a.frac_bits + fmt_b.frac_bits),
            ):
                exact = Fraction(raw, 1 << frac_bits)
                want = _round_half_even(exact * fmt_a.scale)
                assert round(float(exact) * fmt_a.scale) == want
                assert rne_shift(raw, frac_bits - fmt_a.frac_bits) == want


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
