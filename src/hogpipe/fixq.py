"""Q-format register descriptions, conversion and rounding.

A QFormat describes a two's complement register: `int_bits` magnitude bits,
`frac_bits` fractional bits, plus a sign bit when `signed`. The represented
value of a raw integer is raw / 2**frac_bits. quantize rounds half to
even and saturates at the format limits instead of wrapping, flagging it
on the result.

The datapath itself works on raw Python or numpy integers, not QValues,
and cannot saturate: the polar table build checks once that the largest
magnitude fits MAG and that a full cell of it fits CELL_ACC.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class QFormat:
    signed: bool
    int_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError("bit counts must be non-negative")
        if self.int_bits + self.frac_bits == 0:
            raise ValueError("format must have at least one value bit")
        if self.payload_bits > 32:
            raise ValueError("format wider than 32 bits")

    @property
    def payload_bits(self) -> int:
        return self.int_bits + self.frac_bits + (1 if self.signed else 0)

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.int_bits + self.frac_bits)) if self.signed else 0

    @property
    def raw_max(self) -> int:
        return (1 << (self.int_bits + self.frac_bits)) - 1

    def clamp(self, raw: int) -> tuple[int, bool]:
        """Saturate raw to the representable range. Returns (raw, saturated)."""
        if raw < self.raw_min:
            return self.raw_min, True
        if raw > self.raw_max:
            return self.raw_max, True
        return raw, False


@dataclass(frozen=True)
class QValue:
    format: QFormat
    raw: int
    saturated: bool = field(default=False, compare=False)

    @property
    def value(self) -> float:
        return self.raw / self.format.scale


# Pipeline register formats. GRAD is a 9-bit signed integer (sign plus 8
# magnitude bits, so raw range [-256, 255]); pixel differences never exceed
# +-255. MAG leaves headroom for the uncompensated CORDIC gain, ANG holds
# degrees in [0, 180) at 13 fractional bits, CELL_ACC holds the 64 votes
# of one 8x8 cell per bin. The default CORDIC peaks at 23080 raw magnitude
# and 64 * 23080 < 2**22; the polar table build enforces both bounds.
GRAD = QFormat(signed=True, int_bits=8, frac_bits=0)
MAG = QFormat(signed=False, int_bits=10, frac_bits=6)
ANG = QFormat(signed=False, int_bits=8, frac_bits=13)
CELL_ACC = QFormat(signed=False, int_bits=16, frac_bits=6)


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


def quantize(x: float, fmt: QFormat) -> QValue:
    """Convert a real value to the nearest representable QValue.

    Rounds x * 2**frac_bits half to even. Out-of-range values saturate and
    flag it.
    """
    raw, sat = fmt.clamp(round(x * fmt.scale))
    return QValue(fmt, raw, sat)
