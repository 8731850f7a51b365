"""Two's-complement fixed-point arithmetic with hardware narrowing semantics.

A value is a plain integer scaled by 2**-frac_bits.  Rounding happens once,
at real->fixed entry (round-half-to-even); every narrowing after that is an
arithmetic right shift, i.e. truncation toward negative infinity, which is
what a shifter does.  Overflow saturates instead of wrapping: pose
coordinates are physically bounded, and a silent wrap would corrupt results
undetectably while a pinned value stays visibly at the range edge.

Both rules are written once, in rescale: a raw scaled by 2**-frac moves
into a format by an exact left shift when the format gains fraction bits,
a truncating right shift when it loses them, then saturation.  Every fx_*
op and the lane kernels narrow through it; only the CORDIC step loops and
the closed-form linear kernel inline their clip, for speed.

There is one scalar type, Fx.  A wide multiply-accumulate register is an
Fx in a wide QFormat.

Every sin/cos backend reduces its angle through the one fold_angle here and
unfolds its quadrant through quarter_turns, by exact swaps and signs.

Batched datapaths hold the raws of many values, one per lane, in an ndarray
of lane_dtype(fmt); rescale, lanes_from_real and lanes_real work on such
arrays with the same bits as on Fx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# clip(raw, lo, hi) is numpy's clip ufunc itself: np.clip wraps it in
# microseconds of argument checks, which a loop over lanes pays per step
try:
    from numpy._core.umath import clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip

HALF_PI = math.pi / 2
TWO_PI = 2 * math.pi
MAX_ANGLE = 2.0**20  # largest |angle| a backend accepts, in radians; see fold_angle


class DomainError(ValueError):
    """Input outside the range a datapath is specified for."""


def fold_angle(mag):
    """Quadrant q in 0..3 and residual r in [0, pi/2) with mag = q*pi/2 + r mod 2*pi.

    mag is |angle|, an ndarray (q is int64 of its shape) or a float (q is
    an int64 scalar), with the same bits either way.  q = floor(a / (pi/2))
    for a = mag mod 2*pi, and r is exact because q*pi/2 is a double for
    q <= 3.  The reduction is modulo the float 2*pi, which drifts from the
    true period by |mag| * 3.9e-17: 4e-11 at MAX_ANGLE, under 1/1000 of a
    Q8.24 LSB, but 0.04 rad at 1e15.  So DomainError is raised unless
    mag <= MAX_ANGLE, which rejects NaN and infinity too.
    """
    if not np.all(mag <= MAX_ANGLE):
        raise DomainError(f"|angle| must be finite and at most {MAX_ANGLE:.0f} rad")
    a = mag % TWO_PI
    q = np.floor(a / HALF_PI).astype(np.int64)
    return q, a - q * HALF_PI


# per quarter turn q: whether x and y swap, then the signs they take; int8,
# so float, int64 and object operands keep their dtype and gathers stay small
_ODD = np.array([False, True, False, True])
_X_SIGN = np.array([1, -1, -1, 1], dtype=np.int8)
_Y_SIGN = np.array([1, 1, -1, -1], dtype=np.int8)


def quarter_turns(q, x, y):
    """(x, y) rotated by q quarter turns, q in 0..3 (an int or an int array
    broadcasting with x and y), the inverse of fold_angle's quadrant: an odd
    q swaps x and y, then each takes its quadrant's sign.  Exact; a negated
    raw may leave its format, so fixed-point callers saturate after it."""
    odd = _ODD[q]
    return np.where(odd, y, x) * _X_SIGN[q], np.where(odd, x, y) * _Y_SIGN[q]


@dataclass(frozen=True, slots=True)
class QFormat:
    """Q-format descriptor: word_bits total, frac_bits of them fractional.

    At least one integer (sign) bit is required, so frac_bits <= word_bits-1.
    Representable range is [-2**(word_bits-1-frac_bits),
    2**(word_bits-1-frac_bits) - 2**-frac_bits].
    """

    word_bits: int
    frac_bits: int
    # the raw range, stored once: every rescale reads both bounds
    min_raw: int = field(init=False, repr=False, compare=False)
    max_raw: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 8 <= self.word_bits <= 64:
            raise ValueError(f"word_bits must be in 8..64, got {self.word_bits}")
        if not 0 <= self.frac_bits <= self.word_bits - 1:
            raise ValueError(
                f"frac_bits must be in 0..{self.word_bits - 1}, got {self.frac_bits}"
            )
        object.__setattr__(self, "min_raw", -(1 << (self.word_bits - 1)))
        object.__setattr__(self, "max_raw", (1 << (self.word_bits - 1)) - 1)

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


def rescale(raw, frac: int, fmt: QFormat):
    """raw, scaled by 2**-frac, moved into fmt: an exact left shift when fmt
    gains fraction bits, an arithmetic (floor) right shift when it loses
    them, then saturation to fmt's range.  raw is a Python int, or lanes of
    int64 or object raws; the result is of the same kind."""
    shift = fmt.frac_bits - frac
    if shift > 0:
        raw = raw << shift
    elif shift < 0:
        raw = raw >> -shift
    lo, hi = fmt.min_raw, fmt.max_raw
    if isinstance(raw, int):
        return hi if raw > hi else lo if raw < lo else raw
    return clip(raw, lo, hi)


def fx_from_real(v: float, fmt: QFormat) -> Fx:
    """Quantize a real to fmt: round-half-to-even, then saturate."""
    return Fx(rescale(round(math.ldexp(v, fmt.frac_bits)), fmt.frac_bits, fmt), fmt)


def fx_add(a: Fx, b: Fx) -> Fx:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return Fx(rescale(a.raw + b.raw, a.fmt.frac_bits, a.fmt), a.fmt)


def fx_sub(a: Fx, b: Fx) -> Fx:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return Fx(rescale(a.raw - b.raw, a.fmt.frac_bits, a.fmt), a.fmt)


def fx_shr(a: Fx, k: int) -> Fx:
    """Arithmetic right shift by k: floor division by 2**k."""
    if not 0 <= k < a.fmt.word_bits:
        raise ValueError(f"shift {k} out of range for {a.fmt}")
    return Fx(a.raw >> k, a.fmt)


def fx_mul(a: Fx, b: Fx, out: QFormat) -> Fx:
    """Exact product rescaled into out."""
    return Fx(rescale(a.raw * b.raw, a.fmt.frac_bits + b.fmt.frac_bits, out), out)


def fx_cast(a: Fx, out: QFormat) -> Fx:
    """a rescaled into out."""
    return Fx(rescale(a.raw, a.fmt.frac_bits, out), out)


_to_int = np.frompyfunc(int, 1, 1)


def lane_dtype(fmt: QFormat):
    """int64 while the product of two raws fits in it (2*word_bits - 2 <= 63,
    i.e. words up to 32 bits); object, exact Python ints, for wider words."""
    return np.int64 if 2 * fmt.word_bits - 2 <= 63 else object


def lanes_from_real(v, fmt: QFormat) -> np.ndarray:
    """fx_from_real on an array of finite reals: raws in lane_dtype(fmt).

    Where fx_from_real raises (a NaN, or a real that overflows a double
    once scaled by 2**frac_bits), the result is undefined."""
    raw = np.rint(np.ldexp(np.asarray(v, dtype=np.float64), fmt.frac_bits))
    if lane_dtype(fmt) is object:
        return clip(_to_int(raw), fmt.min_raw, fmt.max_raw)
    return clip(raw, fmt.min_raw, fmt.max_raw).astype(np.int64)  # exact: a word up to 32 bits


def lanes_real(raw: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Fx.real of every lane, as float64."""
    return np.ldexp(raw.astype(np.float64), -fmt.frac_bits)
