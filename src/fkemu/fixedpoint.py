"""Two's-complement fixed-point arithmetic with hardware narrowing semantics.

A value is a plain integer, its raw, scaled by 2**-frac_bits of a QFormat
that the code holding it knows; a wide multiply-accumulate register is a
wide QFormat.  Rounding happens once, at real->fixed entry
(round-half-to-even); every narrowing after that is an arithmetic right
shift, i.e. truncation toward negative infinity, which is what a shifter
does.  Overflow saturates instead of wrapping: pose coordinates are
physically bounded, and a silent wrap would corrupt results undetectably
while a pinned value stays visibly at the range edge.

Both rules are written once, in rescale: a raw scaled by 2**-frac moves
into a format by an exact left shift when the format gains fraction bits,
a truncating right shift when it loses them, then saturation.
fx_from_real, cordic_step and Taylor's coefficient table narrow through
it.  No lane kernel calls it: for speed, the CORDIC and Taylor kernels
write their narrowings out as shifts and bare clips, and leave out each
clip that their proofs rule out.

Every sin/cos backend reduces its angle through the one fold_angle here and
unfolds its quadrant through quarter_turns, its exact inverse.  The fold
takes |angle| <= MAX_ANGLE, raises DomainError on anything else (NaN and
infinity too), and reduces modulo TWO_PI as mag % TWO_PI does, bit for
bit; fold_angle's docstring holds the proof.

Batched datapaths hold the raws of many values, one per lane, in an ndarray
of lane_dtype(fmt); rescale, lanes_from_real and lanes_real work on such
arrays with the same bits as on one raw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import wraps

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
# TWO_PI split for fold_angle: the high part keeps 32 significant bits (its
# low 21 mantissa bits cleared), and the low part is the exact remainder
_TWO_PI_HI = float.fromhex("0x1.921fb544p+2")
_TWO_PI_LO = TWO_PI - _TWO_PI_HI  # 0x1.0b46p-32, 17 bits


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
    mag <= MAX_ANGLE, which rejects NaN and infinity too: one maximum over
    the lanes decides it, since a maximum propagates NaN (with no lanes
    it is 0).

    a is mag % TWO_PI bit for bit, at a quarter of its cost, by Cody and
    Waite's two-constant reduction: k = floor(mag / TWO_PI), then
    a = (mag - k*_TWO_PI_HI) - k*_TWO_PI_LO, plus TWO_PI where that is
    negative.  Every step is exact:

    - mag <= MAX_ANGLE gives k < 2**18, so k*_TWO_PI_HI (at most 50
      significant bits) and k*_TWO_PI_LO (at most 35) are exact;
    - fl is monotone and floor(t) is a double, so k is never below the
      true quotient's floor, and at most one above it: a is in
      [-TWO_PI, TWO_PI) and only the a < 0 correction can apply;
    - for mag >= 4, every true intermediate is a multiple of 2**-50 below
      8 in magnitude, so both subtractions and the + TWO_PI are exact; below
      4, k is 0 and a is mag.

    So a is mag - k'*TWO_PI for the true floor k', as fmod gives it.

    Where every lane is below TWO_PI, as for joint angles within +-pi, a
    is mag itself and the reduction is not run, with the same bits: a
    double m in [0, TWO_PI) is at most TWO_PI - 2**-50 (TWO_PI's ulp), so
    m / TWO_PI < 1 - 2**-53, and a rounded quotient, rounding being
    monotone, is at most 1 - 2**-53: k is 0 on every lane.  Then
    (m - 0*_TWO_PI_HI) - 0*_TWO_PI_LO is m bit for bit (m >= +0.0), no
    lane is negative, and no correction runs.
    """
    top = np.maximum.reduce(mag, axis=None, initial=0.0)
    if not top <= MAX_ANGLE:
        raise DomainError(f"|angle| must be finite and at most {MAX_ANGLE:.0f} rad")
    if top < TWO_PI:
        a = mag
    else:
        k = np.floor(mag / TWO_PI)
        # an array even for a float mag, so the correction runs in place
        a = np.asarray((mag - k * _TWO_PI_HI) - k * _TWO_PI_LO)
        np.add(a, TWO_PI, out=a, where=a < 0)
    q = np.floor(a / HALF_PI)  # a float in 0..3, so q*HALF_PI needs no cast
    return q.astype(np.int64), a - q * HALF_PI


def sincos_provider(kernel):
    """The trig provider (dh.SinCos) of kernel, which maps flat float64 angles
    (and any further arguments) to flat (cos, sin) arrays: a float or a 0-d
    array gives floats, and any other array gives outputs of its shape."""
    @wraps(kernel)
    def sincos(theta, *args, **kwargs):
        angles = np.asarray(theta, dtype=np.float64)
        cos, sin = kernel(angles.reshape(-1), *args, **kwargs)
        if angles.ndim == 0:
            return float(cos[0]), float(sin[0])
        return cos.reshape(angles.shape), sin.reshape(angles.shape)
    return sincos


# per quarter turn q, the row of [x, y, -x, -y] that quarter_turns' first
# output takes: x, -y, -x, y
_FIRST_ROW = np.array([0, 3, 2, 1])


def quarter_turns(q, x, y):
    """(x, y) rotated by q quarter turns, q in 0..3 (an int or an int array
    broadcasting with x and y), the inverse of fold_angle's quadrant: an odd
    q swaps x and y, then each takes its quadrant's sign.  Exact; a negated
    raw may leave its format, so fixed-point callers saturate after it.

    Each output is one gather from the rows [x, y, -x, -y, x]: the first
    takes row _FIRST_ROW[q] (x, -y, -x, y for q = 0..3), the second the
    row after it (y, x, -y, -x).  A negation has the bits of a product by
    -1 on every float but NaN (+-0.0 and +-inf included), which fold_angle
    rejects, and on int64 and object lanes.  The outputs take the dtype of
    x and y together and the operands' broadcast shape; 0-d operands give
    scalars."""
    q, x, y = np.asarray(q), np.asarray(x), np.asarray(y)
    if not q.shape == x.shape == y.shape:
        q, x, y = np.broadcast_arrays(q, x, y)
    n = x.size
    rows = np.empty((5, *x.shape), dtype=np.result_type(x, y))
    # [k, ...] writes values: for 0-d operands rows[k] = x would store x itself in an object row
    rows[0, ...], rows[1, ...], rows[4, ...] = x, y, x
    np.negative(rows[:2], out=rows[2:4])
    rows = rows.reshape(-1)
    at = (_FIRST_ROW * n).take(q)
    at += np.arange(n).reshape(x.shape)
    return rows.take(at), rows[n:].take(at)


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


def fx_from_real(v: float, fmt: QFormat) -> int:
    """The raw of a real quantized to fmt: round-half-to-even, then saturate."""
    return rescale(round(math.ldexp(v, fmt.frac_bits)), fmt.frac_bits, fmt)


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
    """The real value raw * 2**-frac_bits of every lane, as float64."""
    return np.ldexp(raw.astype(np.float64), -fmt.frac_bits)


def frozen(v, dtype=None) -> np.ndarray:
    """v as a read-only array of dtype (v's own by default): a constant
    numpy reads without converting it on every call, and no caller can
    write.  An ndarray v already of that dtype is frozen itself, not
    copied."""
    a = np.asarray(v, dtype=dtype)
    a.flags.writeable = False
    return a
