"""Q-format register descriptions and the datapath's one rounding rule.

A QFormat describes an unsigned register: `int_bits` integer bits and
`frac_bits` fractional bits. The represented value of a raw integer is
raw / 2**frac_bits; a real value x converts as round(x * fmt.scale), which
rounds half to even.

The datapath works on raw Python or numpy integers and cannot saturate:
the polar table build checks once that the largest magnitude fits MAG and
that a full cell of it fits CELL_ACC.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class QFormat:
    int_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError("bit counts must be non-negative")
        if self.int_bits + self.frac_bits == 0:
            raise ValueError("format must have at least one value bit")
        if self.int_bits + self.frac_bits > 32:
            raise ValueError("format wider than 32 bits")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def raw_max(self) -> int:
        return (1 << (self.int_bits + self.frac_bits)) - 1


# Pipeline register formats. MAG leaves headroom for the uncompensated
# CORDIC gain, ANG holds degrees in [0, 180) at 13 fractional bits,
# CELL_ACC holds the 64 votes of one 8x8 cell per bin. The default CORDIC
# peaks at 23080 raw magnitude and 64 * 23080 < 2**22; the polar table
# build enforces both bounds.
MAG = QFormat(int_bits=10, frac_bits=6)
ANG = QFormat(int_bits=8, frac_bits=13)
CELL_ACC = QFormat(int_bits=16, frac_bits=6)


def rne_shift(x, s):
    """Arithmetic right shift by s with round-half-to-even, the datapath's
    one rounding rule. x is a Python int (the result stays one) or a numpy
    integer array; s is an int (s <= 0 is a plain left shift) or an array
    of positive per-element shifts. The remainder is taken non-negative
    (two's complement), so rounding is around floor in all cases.
    """
    if isinstance(s, int) and s <= 0:
        return x << (-s)
    q = x >> s
    r = x & ((1 << s) - 1)
    half = 1 << (s - 1)
    inc = (r > half) | ((r == half) & ((q & 1) == 1))
    return q + inc
