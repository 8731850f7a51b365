"""DSP-style sinusoid generation: truncated Taylor series in 16-bit
fixed point with a wide multiply-accumulate model.

Evaluation runs on a reduced argument in [0, pi/4]; anything larger folds
through fold_angle's quadrant and the sin/cos co-function first, because a
Q1.15 operand cannot even hold pi/2.  Each series is evaluated by Horner
recursion on u = x**2 with the running value kept in the accumulator, a
wide QFormat (36 bits with 31 fraction bits by default: the product scale
plus one fractional-mode left shift).  Only the multiplier inputs are
narrowed to operand width, and the result is narrowed once at the end.

The engine runs on lanes (see fixedpoint): one raw integer per angle in an
ndarray, every multiply, cast and subtract narrowed by rescale on all lanes
at once, so a batch of angles costs one pass of the series.  A float angle
is a one-lane call.  The quantized 1/k! coefficients are one table per
TaylorConfig (_acc_coeffs), whose dtype is the lane dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fixedpoint import (
    HALF_PI,
    Q1_15,
    QFormat,
    fold_angle,
    fx_from_real,
    lanes_from_real,
    lanes_real,
    quarter_turns,
    rescale,
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


@lru_cache(maxsize=None)
def _acc_coeffs(cfg: TaylorConfig) -> np.ndarray:
    """Raws of the sine (row 0: 1/3!, 1/5!, ...) and cosine (row 1: 1/2!,
    1/4!, ...) coefficients quantized to the operand format, in the
    accumulator.  The dtype is the lane dtype: int64 while acc_bits <= 63,
    where a difference of two accumulator raws fits and so does a product
    of two operand raws (at most 31 bits each, as acc_bits >= 2 * word_bits)
    shifted one bit left; object, exact Python ints, past that."""
    fmt = cfg.operand_fmt
    rows = [
        [rescale(fx_from_real(1.0 / math.factorial(2 * k + odd), fmt).raw, fmt.frac_bits, cfg.acc_fmt)
         for k in range(1, cfg.n_terms)]
        for odd in (1, 0)
    ]
    out = np.array(rows, dtype=np.int64 if cfg.acc_bits <= 63 else object)
    out.setflags(write=False)
    return out


def _cores(t: np.ndarray, cfg: TaylorConfig) -> np.ndarray:
    """Raws of sin (row 0) and cos (row 1) in the operand format, for lanes
    of raws t in [0, pi/4]: sin(t) = t - (t*u)*R(u) and cos(t) = 1 - u*S(u),
    u = t**2.  R and S run as one Horner recursion over both rows, kept in
    the accumulator; only the multiplier inputs are narrowed to operand
    width, and each result once at the end.  Each lane equals the same ops
    run one Fx at a time (tests/reference.py) bit for bit."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    frac, acc_frac = fmt.frac_bits, acc_fmt.frac_bits
    one = 1 << acc_frac
    coeffs = _acc_coeffs(cfg)
    if cfg.n_terms == 1:
        return np.stack([t, np.full(t.shape, rescale(one, acc_frac, fmt), dtype=t.dtype)])
    u = rescale(t * t, 2 * frac, fmt)
    z = rescale(t * u, 2 * frac, fmt)
    acc = coeffs[:, -1:]  # c[0] - u*(c[1] - u*(c[2] - ...)), both series at once
    for k in range(cfg.n_terms - 3, -1, -1):
        prod = rescale(u * rescale(acc, acc_frac, fmt), 2 * frac, acc_fmt)
        acc = rescale(coeffs[:, k : k + 1] - prod, acc_frac, acc_fmt)
    head = np.stack([rescale(t, frac, acc_fmt), np.full(t.shape, one, dtype=t.dtype)])  # t and 1
    prod = rescale(np.stack([z, u]) * rescale(acc, acc_frac, fmt), 2 * frac, acc_fmt)
    return rescale(rescale(head - prod, acc_frac, acc_fmt), acc_frac, fmt)  # t - z*R(u), 1 - u*S(u)


def taylor_sincos(theta, cfg: TaylorConfig = DEFAULT_CONFIG):
    """(cos, sin) of angles within +-MAX_ANGLE through the engine: a float
    or 0-d ndarray gives floats, another ndarray float64 ndarrays of its shape.

    Each angle is one lane of _cores.  One fold gives the quadrant q and a
    residual r in [0, pi/2); past pi/4 the cores run on pi/2 - r and trade
    places.  The octant is measured from the nearest multiple of pi, which
    is the far end of an odd quadrant, so there the tie r == pi/4 trades
    too.  The raws are bit-exactly odd (sine) and even (cosine) in theta,
    but a zero sine is +0.0 for either sign of theta.  Raises DomainError
    if any angle is beyond MAX_ANGLE or not finite.
    """
    arr = np.asarray(theta, dtype=np.float64)
    lanes = arr.reshape(-1)
    q, r = fold_angle(np.abs(lanes))
    odd = (q & 1).astype(bool)
    swap = np.where(odd, r >= HALF_PI / 2, r > HALF_PI / 2)
    t = lanes_from_real(np.where(swap, HALF_PI - r, r), cfg.operand_fmt)
    cores = _cores(t.astype(_acc_coeffs(cfg).dtype, copy=False), cfg)
    cos, sin = quarter_turns(q, *np.where(swap, cores, cores[::-1]))  # (cos r, sin r) turned by q
    sin = sin * np.where(lanes < 0, -1, 1)
    cos, sin = (lanes_real(v, cfg.operand_fmt).reshape(arr.shape) for v in (cos, sin))
    if arr.ndim == 0:
        return float(cos), float(sin)
    return cos, sin


def sincos_op_count(cfg: TaylorConfig = DEFAULT_CONFIG) -> int:
    """Modeled multiply/add count for one (cos, sin) pair."""
    horner = 2 * max(cfg.n_terms - 2, 0)
    return (4 + horner) + (3 + horner) + 6  # sin path + cos path + folding
