"""Scalar reference arithmetic the tests check the lane kernels against.

The package computes on lanes and narrows through fixedpoint.rescale; these
are the same rules one Fx at a time, plus the double-precision truncated
series the Taylor engine evaluates in fixed point.
"""

import math

from fkemu.fixedpoint import Fx, QFormat, rescale


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


def series_sin(x: float, n_terms: int) -> float:
    """Double-precision truncated sine series."""
    total = 0.0
    for k in range(n_terms):
        p = 2 * k + 1
        total += (-1.0) ** k * x**p / math.factorial(p)
    return total


def series_cos(x: float, n_terms: int) -> float:
    """Double-precision truncated cosine series."""
    total = 0.0
    for k in range(n_terms):
        p = 2 * k
        total += (-1.0) ** k * x**p / math.factorial(p)
    return total
