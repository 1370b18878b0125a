"""Q-format register descriptions and the datapath's one rounding rule.

A QFormat describes an unsigned register: `int_bits` integer bits and
`frac_bits` fractional bits. The represented value of a raw integer is
raw / 2**frac_bits; a real value x converts as round(x * fmt.scale), which
rounds half to even.

The datapath works on raw Python or numpy integers and cannot saturate:
the polar table build checks once that the largest magnitude fits MAG and
that a full CELL_SIZE x CELL_SIZE cell of it fits CELL_ACC.
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


# Pipeline register formats. LUMA is the pixel, MAG leaves headroom for the
# uncompensated CORDIC gain, ANG holds degrees in [0, 180) at 13 fractional
# bits, CELL_ACC holds the 64 votes per bin of one CELL_SIZE x CELL_SIZE cell:
# MAG plus the bits of the vote count, 16.6 at the defaults. The default CORDIC
# peaks at 23080 raw magnitude and 64 * 23080 < 2**22; the polar table build
# enforces both bounds.
LUMA = QFormat(int_bits=8, frac_bits=0)
MAG = QFormat(int_bits=10, frac_bits=6)
ANG = QFormat(int_bits=8, frac_bits=13)
CELL_SIZE = 8
CELL_ACC = QFormat(MAG.int_bits + (CELL_SIZE * CELL_SIZE - 1).bit_length(), MAG.frac_bits)


def rne_shift(x, s):
    """Arithmetic right shift by s with round-half-to-even, the datapath's
    one rounding rule. x is a Python int (the result stays one) or a numpy
    integer array; s is a positive int or an array of positive per-element
    shifts (the datapath's are 23 and up). The remainder is taken
    non-negative (two's complement), so rounding is around floor in all
    cases. At the default CordicConfig no polar or vote table entry is a
    tie, so round-half-up builds the same tables: only tests/test_fixq.py's
    direct cases pin the tie rule.
    """
    q = x >> s
    r = x & ((1 << s) - 1)
    half = 1 << (s - 1)
    inc = (r > half) | ((r == half) & ((q & 1) == 1))
    return q + inc
