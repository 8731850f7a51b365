"""DSP-style sinusoid generation: truncated Taylor series in 16-bit
fixed point with a wide multiply-accumulate model.

taylor_sincos folds each angle to [0, pi/4], since a Q1.15 operand cannot
hold pi/2, and runs _cores on lanes, one raw per angle: both series as one
Horner recursion in a wide accumulator (Q5.31 by default).  _acc_coeffs
holds the quantized 1/k! and every other constant per TaylorConfig, and
_cores the proof that its final narrowing is the one clip that can change
a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .fixedpoint import (
    HALF_PI,
    Q1_15,
    QFormat,
    clip,
    fold_angle,
    frozen,
    fx_from_real,
    lanes_from_real,
    lanes_real,
    quarter_turns,
    rescale,
    sincos_provider,
)


@dataclass(frozen=True)
class TaylorConfig:
    n_terms: int = 8
    operand_fmt: QFormat = Q1_15
    acc_bits: int = 36

    def __post_init__(self) -> None:
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if self.acc_bits < 2 * self.operand_fmt.word_bits:
            raise ValueError("accumulator must cover a full product")
        self.acc_fmt  # built here so a word over 64 bits fails at construction

    @cached_property
    def acc_fmt(self) -> QFormat:
        # fractional-mode alignment: product scale plus one exact left shift
        return QFormat(self.acc_bits, 2 * self.operand_fmt.frac_bits + 1)


DEFAULT_CONFIG = TaylorConfig()


def remainder_bound(x: float, r: int, which: str) -> float:
    """Truncation-error bound for a series whose last sine exponent is r.

    Returns x**(r+1)/(r+1)! for sin and x**r/r! for cos; an n-term series
    corresponds to r = 2n - 1.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    if which == "sin":
        return x ** (r + 1) / math.factorial(r + 1)
    if which == "cos":
        return x**r / math.factorial(r)
    raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")


class _Coeffs(NamedTuple):
    steps: tuple  # (2, 1) columns of (sine, cosine) coefficients, last term first
    frac: np.ndarray  # F: narrows a product of two operand raws to the operand format
    narrow: np.ndarray  # F + 1: narrows an accumulator raw to the operand format
    one: np.ndarray  # 1.0 in the accumulator
    lo: np.ndarray  # the operand format's raw range
    hi: np.ndarray


@lru_cache(maxsize=None)
def _acc_coeffs(cfg: TaylorConfig) -> _Coeffs:
    """The series' constants as read-only arrays of the lane dtype, made once
    per config: int64 while acc_bits <= 63, where a difference of two
    accumulator raws fits and so does a product of two operand raws (at most
    31 bits each, as acc_bits >= 2 * word_bits) shifted one bit left;
    object, exact Python ints, past that.

    The coefficients are the raws of the sine (1/3!, 1/5!, ...) and cosine
    (1/2!, 1/4!, ...) terms quantized to the operand format, in the
    accumulator, one (sine, cosine) column per Horner step.  Trailing columns
    that are zero in both rows are left out (all but one where every column
    is zero, as at n_terms = 1): a step on a zero column after zero columns
    computes 0 - u*0 = 0, so the recursion's first nonzero partial is its
    column.  In the default config 1/9! and up quantize to 0 in Q1.15, so
    three of six steps go; they are still steps of the emulated engine,
    and sincos_op_count charges them."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    const = partial(frozen, dtype=np.int64 if cfg.acc_bits <= 63 else object)
    cols = [
        [rescale(fx_from_real(1.0 / math.factorial(2 * k + odd), fmt), fmt.frac_bits, acc_fmt) for odd in (1, 0)]
        for k in range(1, cfg.n_terms)
    ]
    while cols and not any(cols[-1]):
        cols.pop()
    return _Coeffs(
        steps=tuple(const([[s], [c]]) for s, c in reversed(cols or [(0, 0)])),
        frac=const(fmt.frac_bits),
        narrow=const(fmt.frac_bits + 1),
        one=const(1 << acc_fmt.frac_bits),
        lo=const(fmt.min_raw),
        hi=const(fmt.max_raw),
    )


def _cores(t: np.ndarray, cfg: TaylorConfig) -> np.ndarray:
    """Raws of sin (row 0) and cos (row 1) in the operand format, for lanes
    of raws t of [0, pi/4] in the lane dtype: sin(t) = t - (t*u)*R(u) and
    cos(t) = 1 - u*S(u), u = t**2.  R and S run as one Horner recursion over
    both rows, kept in the accumulator; only the multiplier inputs are
    narrowed to operand width, and each result once at the end.  Each lane
    equals the same ops with every narrowing clipped (tests/reference.py)
    bit for bit.

    With operand format QW-F.F and the accumulator's 2F + 1 fraction bits, a
    narrowing is a shift: a product of two operand raws moves into the
    accumulator by << 1 (here: the multipliers are 2u, made once, and 2z), an
    accumulator raw into the operand format by >> (F + 1), and a product
    into the operand format by >> F.  Only the final narrowing into the
    operand format clips; no other value can leave its format, in values:

    - t <= 1: t rounds a residual of at most pi/4, so t < 0.79 where F >= 7
      and t <= 1 in any format.  So u <= t**2 <= 1 and z = t*u <= 1, and
      both are >= 0.  Where the operand format has one integer bit, F >= 7
      (word_bits >= 8): u < 0.63 and z < 0.5 (u < 0.62, z < 0.49 in
      Q1.15), under its top 1 - 2**-F; any other format holds 1.
    - Every Horner partial lies in [0, 1/2].  The coefficients lie in
      [0, 1/2] and never rise along a row, since 1/k! falls and rounding to
      a grid is monotone.  A partial is p_k = c_k - u*q, where q is the
      previous partial p_{k+1} floored to operand width, so
      0 <= q <= p_{k+1} <= c_{k+1}.  With u <= 1, 0 <= u*q <= c_{k+1} <= c_k,
      so 0 <= p_k <= c_k <= 1/2: each partial, and each q, fits its format.
    - Every product (u*q in the loop, z*R and u*S at the end) lies in
      [0, 1/2], so its move into the accumulator, whose top is at least
      1 - 2**-(2F + 1), cannot saturate.

    The results' own narrowing into the accumulator would clip: 1 - u*S is
    1.0 where u*S truncates to 0, which an accumulator of acc_bits < 2F + 3
    cannot hold (Q1.15 at 32 bits, Q1.31 at 64).  But that clip cannot
    change the output: shifted right by F + 1, the accumulator's range
    covers the operand format's (acc_bits >= 2 * word_bits), so a value
    the accumulator pins at its top still narrows to at least the operand
    top, and the operand clip gives the same raw either way.  The operand
    clip stays, because cos(0) = 1 saturates in a format with one integer
    bit.  On int64 lanes (acc_bits <= 63, so F <= 30) no raw or product
    passes 2**(2F + 1) in magnitude."""
    c = _acc_coeffs(cfg)
    u = (t * t) >> c.frac
    u2 = u + u
    acc = c.steps[0]  # c[0] - u*(c[1] - u*(c[2] - ...)), both series at once
    for col in c.steps[1:]:
        acc = col - u2 * (acc >> c.narrow)
    z = (t * u) >> c.frac
    head, mul = np.empty((2, 2, *t.shape), dtype=t.dtype)  # (t, 1) and (2z, 2u)
    np.left_shift(t, c.narrow, out=head[0])
    head[1] = c.one
    np.add(z, z, out=mul[0])
    mul[1] = u2
    acc = head - mul * (acc >> c.narrow)  # t - z*R(u), 1 - u*S(u)
    return clip(acc >> c.narrow, c.lo, c.hi)


# the least residual the cores run past pi/4 (trading places) in an even and an odd quadrant
_EDGE = frozen([math.nextafter(HALF_PI / 2, math.inf), HALF_PI / 2])


@sincos_provider
def taylor_sincos(theta, cfg: TaylorConfig = DEFAULT_CONFIG):
    """(cos, sin) of flat angles within +-MAX_ANGLE through the engine.

    Each angle is one lane of _cores.  One fold gives the quadrant q and a
    residual r in [0, pi/2); past pi/4 the cores run on pi/2 - r and trade
    places.  The octant is measured from the nearest multiple of pi, which
    is the far end of an odd quadrant, so there the tie r == pi/4 trades
    too.  One compare decides both, against _EDGE[q & 1]: in an even
    quadrant the double after pi/4, as r > pi/4 holds for a double r
    exactly when r >= nextafter(pi/4, inf), and in an odd one pi/4.  The
    raws are bit-exactly odd (sine) and even (cosine) in theta: a negative
    theta negates its sine raw, but a zero sine is +0.0 for either sign of
    theta.  Raises DomainError on any angle beyond MAX_ANGLE or not finite.
    """
    q, r = fold_angle(np.abs(theta))
    swap = r >= _EDGE.take(q & 1)
    t = lanes_from_real(np.where(swap, HALF_PI - r, r), cfg.operand_fmt)
    cores = _cores(t.astype(_acc_coeffs(cfg).one.dtype, copy=False), cfg)  # to the lane dtype
    cos, sin = quarter_turns(q, *np.where(swap, cores, cores[::-1]))  # (cos r, sin r) turned by q
    np.negative(sin, out=sin, where=theta < 0)  # a fresh array: quarter_turns gathers it
    return lanes_real(cos, cfg.operand_fmt), lanes_real(sin, cfg.operand_fmt)


def sincos_op_count(cfg: TaylorConfig = DEFAULT_CONFIG) -> int:
    """Modeled multiply/add count for one (cos, sin) pair."""
    horner = 2 * max(cfg.n_terms - 2, 0)
    return (4 + horner) + (3 + horner) + 6  # sin path + cos path + folding
