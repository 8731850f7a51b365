"""Constant-factor CORDIC recurrences with a scaled residual-angle variable.

The recurrences keep the residual angle pre-shifted, U[i] = 2**i * residual,
so the sign decision only ever looks at a fixed window of fractional bits.
That truncated-window view is how the redundant-arithmetic sign estimation
is modeled here: the selector sees a low-precision estimate of U, not the
exact value, and ties resolve to +1.  Each step applies a rotation by
-sigma*atan(2**-i), so driving U to zero rotates the vector by -angle while
the norm gain stays the same constant for every sigma sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .cordic import gain
from .fixedpoint import DomainError

SelectionPolicy = Callable[[float, int], int]


@dataclass(frozen=True, slots=True)
class CfrState:
    x: float
    y: float
    u: float  # scaled residual angle, 2**i times the remaining rotation
    i: int


def cfr_step(s: CfrState, sigma: int) -> CfrState:
    """X' = X + s*2^-i*Y, Y' = Y - s*2^-i*X, U' = 2*(U - s*2^i*atan 2^-i)."""
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be +-1, got {sigma}")
    t = math.ldexp(1.0, -s.i)
    a = math.atan(t)
    x = s.x + sigma * t * s.y
    y = s.y - sigma * t * s.x
    u = 2.0 * (s.u - sigma * math.ldexp(a, s.i))
    return CfrState(x, y, u, s.i + 1)


def selection(u: float, w_frac: int) -> int:
    """Sign of the residual estimated from its top w_frac fractional bits.

    Truncation is toward zero, so any |u| below one estimate quantum reads
    as zero and resolves to +1.
    """
    if w_frac < 1:
        raise ValueError("w_frac must be >= 1")
    est = math.trunc(math.ldexp(u, w_frac))
    return 1 if est >= 0 else -1


def exact_selection(u: float, i: int) -> int:
    return 1 if u >= 0 else -1


def truncated_selection(w_frac: int) -> SelectionPolicy:
    return lambda u, i: selection(u, w_frac)


def forced_selection(seq: Sequence[int]) -> SelectionPolicy:
    """Replay a fixed sigma sequence (for exhaustive gain enumeration)."""
    return lambda u, i: seq[i]


def cfr_range(n_iter: int) -> float:
    return sum(math.atan(math.ldexp(1.0, -i)) for i in range(n_iter))


def cfr_rotate(
    x0: float,
    y0: float,
    angle: float,
    n_iter: int,
    sel: SelectionPolicy | None = None,
    w_frac: int | None = None,
    repeat_indices: Sequence[int] = (),
) -> tuple[float, float]:
    """Rotate (x0, y0) by -angle_effective with the constant gain applied.

    Selection runs exact-sign for the first half of the iterations and
    switches to the truncated w_frac window for the second half when
    w_frac is given; repeat_indices lists correcting iterations executed
    twice.  An explicit sel policy overrides all of that.
    """
    if not abs(angle) <= cfr_range(n_iter):
        raise DomainError(f"angle {angle} outside +-{cfr_range(n_iter)}")
    boundary = n_iter // 2
    s = CfrState(x0, y0, angle, 0)
    step = 0
    for i in range(n_iter):
        repeats = 2 if i in repeat_indices else 1
        for _ in range(repeats):
            if s.i > i:
                # a repeated iteration: undo the first pass's doubling of U
                s = CfrState(s.x, s.y, math.ldexp(s.u, -1), i)
            # policies see the scaled residual: its fractional window keeps
            # sign information as the remaining angle shrinks
            if sel is not None:
                sigma = sel(s.u, step)
            elif w_frac is not None and i >= boundary:
                sigma = selection(s.u, w_frac)
            else:
                sigma = exact_selection(s.u, i)
            s = cfr_step(s, sigma)
            step += 1
    return s.x, s.y


def cfr_gain(n_iter: int, repeat_indices: Sequence[int] = ()) -> float:
    """Constant norm gain over the executed iteration list."""
    k = gain(n_iter)
    for i in range(n_iter):
        if i in repeat_indices:  # cfr_rotate's rule: each listed iteration runs twice
            k *= math.sqrt(1.0 + math.ldexp(1.0, -2 * i))
    return k
