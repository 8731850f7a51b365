"""Two's-complement fixed-point arithmetic with hardware narrowing semantics.

A value is a plain integer scaled by 2**-frac_bits.  Rounding happens once,
at real->fixed entry (round-half-to-even); every narrowing after that is an
arithmetic right shift, i.e. truncation toward negative infinity, which is
what a shifter does.  Overflow saturates instead of wrapping: pose
coordinates are physically bounded, and a silent wrap would corrupt results
undetectably while a pinned value stays visibly at the range edge.

There is one scalar type, Fx.  A wide multiply-accumulate register is an
Fx in a wide QFormat: fx_mul and fx_cast shift into any output format,
exactly when the output gains fraction bits and by truncation when it
loses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Input outside the range a datapath is specified for."""


@dataclass(frozen=True, slots=True)
class QFormat:
    """Q-format descriptor: word_bits total, frac_bits of them fractional.

    At least one integer (sign) bit is required, so frac_bits <= word_bits-1.
    Representable range is [-2**(word_bits-1-frac_bits),
    2**(word_bits-1-frac_bits) - 2**-frac_bits].
    """

    word_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not 8 <= self.word_bits <= 64:
            raise ValueError(f"word_bits must be in 8..64, got {self.word_bits}")
        if not 0 <= self.frac_bits <= self.word_bits - 1:
            raise ValueError(
                f"frac_bits must be in 0..{self.word_bits - 1}, got {self.frac_bits}"
            )

    @property
    def max_raw(self) -> int:
        return (1 << (self.word_bits - 1)) - 1

    @property
    def min_raw(self) -> int:
        return -(1 << (self.word_bits - 1))

    @property
    def eps(self) -> float:
        """One least-significant-bit step, 2**-frac_bits."""
        return math.ldexp(1.0, -self.frac_bits)

    def __str__(self) -> str:
        return f"Q{self.word_bits - self.frac_bits}.{self.frac_bits}"


# Default formats: 24 fraction bits in a 32-bit word for the CORDIC
# datapaths, Q1.15 operands for the 16-bit multiply-accumulate engine.
Q8_24 = QFormat(32, 24)
Q1_15 = QFormat(16, 15)


@dataclass(frozen=True, slots=True)
class Fx:
    """A fixed-point scalar: raw integer plus its format."""

    raw: int
    fmt: QFormat

    @property
    def real(self) -> float:
        return math.ldexp(float(self.raw), -self.fmt.frac_bits)

    def __repr__(self) -> str:
        return f"Fx({self.real!r}, {self.fmt})"


def _saturate(raw: int, max_raw: int, min_raw: int) -> int:
    if raw > max_raw:
        return max_raw
    if raw < min_raw:
        return min_raw
    return raw


def fx_from_real(v: float, fmt: QFormat) -> Fx:
    """Quantize a real to fmt: round-half-to-even, then saturate."""
    raw = round(math.ldexp(v, fmt.frac_bits))
    return Fx(_saturate(raw, fmt.max_raw, fmt.min_raw), fmt)


def fx_add(a: Fx, b: Fx) -> Fx:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return Fx(_saturate(a.raw + b.raw, a.fmt.max_raw, a.fmt.min_raw), a.fmt)


def fx_sub(a: Fx, b: Fx) -> Fx:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return Fx(_saturate(a.raw - b.raw, a.fmt.max_raw, a.fmt.min_raw), a.fmt)


def fx_neg(a: Fx) -> Fx:
    return Fx(_saturate(-a.raw, a.fmt.max_raw, a.fmt.min_raw), a.fmt)


def fx_shr(a: Fx, k: int) -> Fx:
    """Arithmetic right shift by k: floor division by 2**k."""
    if not 0 <= k < a.fmt.word_bits:
        raise ValueError(f"shift {k} out of range for {a.fmt}")
    return Fx(a.raw >> k, a.fmt)


def fx_mul(a: Fx, b: Fx, out: QFormat) -> Fx:
    """Exact product shifted into out, then saturated.

    Gaining fraction bits is an exact left shift (loading a wide
    accumulator); losing them is an arithmetic right shift (truncation).
    """
    shift = out.frac_bits - a.fmt.frac_bits - b.fmt.frac_bits
    raw = a.raw * b.raw
    raw = raw << shift if shift >= 0 else raw >> -shift
    return Fx(_saturate(raw, out.max_raw, out.min_raw), out)


def fx_cast(a: Fx, out: QFormat) -> Fx:
    """Move a into out with fx_mul's shift rule, then saturate."""
    shift = out.frac_bits - a.fmt.frac_bits
    raw = a.raw << shift if shift >= 0 else a.raw >> -shift
    return Fx(_saturate(raw, out.max_raw, out.min_raw), out)
