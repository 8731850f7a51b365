"""DSP-style sinusoid generation: truncated Taylor series in 16-bit
fixed point with a wide multiply-accumulate model.

Evaluation runs on a reduced argument in [0, pi/4]; anything larger folds
through quadrant identities and the sin/cos co-function first, because a
Q1.15 operand cannot even hold pi/2.  Each series is evaluated by Horner
recursion on u = x**2 with the running value kept in the accumulator, an
Fx in a wide QFormat (36 bits with 31 fraction bits by default: the
product scale plus one fractional-mode left shift).  Only the multiplier
inputs are narrowed to operand width, and the result is narrowed once at
the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .fixedpoint import DomainError, Fx, Q1_15, QFormat, fx_cast, fx_from_real, fx_mul, fx_sub

TWO_PI = 2 * math.pi
HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


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


def series_sin(x: float, n_terms: int) -> float:
    """Double-precision truncated sine series (reference path)."""
    total = 0.0
    for k in range(n_terms):
        p = 2 * k + 1
        total += (-1.0) ** k * x**p / math.factorial(p)
    return total


def series_cos(x: float, n_terms: int) -> float:
    """Double-precision truncated cosine series (reference path)."""
    total = 0.0
    for k in range(n_terms):
        p = 2 * k
        total += (-1.0) ** k * x**p / math.factorial(p)
    return total


@lru_cache(maxsize=None)
def _sin_coeffs(n_terms: int, fmt: QFormat) -> tuple[Fx, ...]:
    # 1/3!, 1/5!, ... quantized once; the leading 1/1! never gets stored
    return tuple(
        fx_from_real(1.0 / math.factorial(2 * k + 1), fmt) for k in range(1, n_terms)
    )


@lru_cache(maxsize=None)
def _cos_coeffs(n_terms: int, fmt: QFormat) -> tuple[Fx, ...]:
    # 1/2!, 1/4!, ... quantized once; the leading 1 never gets stored
    return tuple(
        fx_from_real(1.0 / math.factorial(2 * k), fmt) for k in range(1, n_terms)
    )


def _horner(u: Fx, coeffs: tuple[Fx, ...], cfg: TaylorConfig) -> Fx:
    """c[0] - u*(c[1] - u*(c[2] - ...)), accumulator-resident."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    acc = fx_cast(coeffs[-1], acc_fmt)
    for c in coeffs[-2::-1]:
        prod = fx_mul(u, fx_cast(acc, fmt), acc_fmt)
        acc = fx_sub(fx_cast(c, acc_fmt), prod)
    return fx_cast(acc, fmt)


def _sin_core(t: Fx, cfg: TaylorConfig) -> Fx:
    """sin(t) = t - (t*u)*R(u) for t in [0, pi/4], u = t**2."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    coeffs = _sin_coeffs(cfg.n_terms, fmt)
    if not coeffs:
        return t
    u = fx_mul(t, t, fmt)
    z = fx_mul(t, u, fmt)
    r = _horner(u, coeffs, cfg)
    return fx_cast(fx_sub(fx_cast(t, acc_fmt), fx_mul(z, r, acc_fmt)), fmt)


def _cos_core(t: Fx, cfg: TaylorConfig) -> Fx:
    """cos(t) = 1 - u*S(u) for t in [0, pi/4], u = t**2."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    one = Fx(1 << acc_fmt.frac_bits, acc_fmt)
    coeffs = _cos_coeffs(cfg.n_terms, fmt)
    if not coeffs:
        return fx_cast(one, fmt)
    u = fx_mul(t, t, fmt)
    s = _horner(u, coeffs, cfg)
    return fx_cast(fx_sub(one, fx_mul(u, s, acc_fmt)), fmt)


def _eval_sin(angle: float, cfg: TaylorConfig) -> Fx:
    sign = -1 if angle < 0 else 1
    a = math.fmod(abs(angle), TWO_PI)
    if a >= math.pi:
        sign = -sign
        a -= math.pi
    if a > HALF_PI:
        a = math.pi - a
    if a > QUARTER_PI:
        out = _cos_core(fx_from_real(HALF_PI - a, cfg.operand_fmt), cfg)
    else:
        out = _sin_core(fx_from_real(a, cfg.operand_fmt), cfg)
    return Fx(sign * out.raw, out.fmt)


def _eval_cos(angle: float, cfg: TaylorConfig) -> Fx:
    sign = 1
    a = math.fmod(abs(angle), TWO_PI)
    if a > math.pi:
        a = TWO_PI - a
    if a > HALF_PI:
        sign = -1
        a = math.pi - a
    if a > QUARTER_PI:
        out = _sin_core(fx_from_real(HALF_PI - a, cfg.operand_fmt), cfg)
    else:
        out = _cos_core(fx_from_real(a, cfg.operand_fmt), cfg)
    return Fx(sign * out.raw, out.fmt)


def taylor_sin(x: Fx, cfg: TaylorConfig = DEFAULT_CONFIG) -> Fx:
    """Sine of any finite angle held in a sufficiently wide input format."""
    return _eval_sin(x.real, cfg)


def taylor_cos(x: Fx, cfg: TaylorConfig = DEFAULT_CONFIG) -> Fx:
    """Cosine of any finite angle held in a sufficiently wide input format."""
    return _eval_cos(x.real, cfg)


def taylor_sincos(theta: float, cfg: TaylorConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Float convenience wrapper: (cos, sin) of theta through the engine."""
    if not math.isfinite(theta):
        raise DomainError(f"angle {theta} is not finite")
    return _eval_cos(theta, cfg).real, _eval_sin(theta, cfg).real


def sincos_op_count(cfg: TaylorConfig = DEFAULT_CONFIG) -> int:
    """Modeled multiply/add count for one (cos, sin) pair."""
    horner = 2 * max(cfg.n_terms - 2, 0)
    return (4 + horner) + (3 + horner) + 6  # sin path + cos path + folding
