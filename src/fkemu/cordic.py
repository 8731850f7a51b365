"""Generalized CORDIC iteration engine on fixed-point state.

One shift-add micro-rotation per step, in three coordinate systems selected
by the mode constant m: circular (1), linear (0), hyperbolic (-1).  Rotation
mode drives the angle residual z to zero, vectoring mode drives y to zero.
The circular gain K = prod sqrt(1 + 2**-2i) is never free: callers either
pre-scale by 1/K (see circ_rotate) or account for it themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .fixedpoint import DomainError, Fx, QFormat, fx_add, fx_from_real, fx_mul, fx_neg, fx_shr, fx_sub

CIRCULAR = 1
LINEAR = 0
HYPERBOLIC = -1

# Hyperbolic iterations must repeat these indices to converge.
_HYP_REPEAT = (4, 13, 40)

HALF_PI = math.pi / 2

# Max convergent |z0| in circular rotation mode, sum of all atan(2**-i).
CIRC_RANGE = 1.7433


@dataclass(frozen=True, slots=True)
class CordicState:
    x: Fx
    y: Fx
    z: Fx
    i: int


@dataclass(frozen=True, slots=True)
class CordicConfig:
    """Iteration count and datapath format."""

    n_iter: int
    fmt: QFormat

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        # beyond frac_bits + 2 the micro-angles fall below one quantum
        if self.n_iter > self.fmt.frac_bits + 2:
            raise ValueError(f"n_iter {self.n_iter} exceeds {self.fmt} resolution")


DEFAULT_CONFIG = CordicConfig(24, QFormat(32, 24))


def iteration_indices(mode: int, n_iter: int) -> list[int]:
    """Shift indices actually executed; hyperbolic repeats 4, 13, 40."""
    if mode in (CIRCULAR, LINEAR):
        return list(range(n_iter))
    seq: list[int] = []
    i = 1
    while len(seq) < n_iter:
        seq.append(i)
        if i in _HYP_REPEAT and (len(seq) < 2 or seq[-2] != i):
            continue  # stay on i once more
        i += 1
    return seq[:n_iter]


def angle_step(mode: int, i: int) -> float:
    """Elementary angle e_i for one micro-rotation at shift index i."""
    if mode == CIRCULAR:
        return math.atan(math.ldexp(1.0, -i))
    if mode == LINEAR:
        return math.ldexp(1.0, -i)
    if mode == HYPERBOLIC:
        return math.atanh(math.ldexp(1.0, -i))
    raise ValueError(f"bad mode {mode}")


def gain(n_iter: int, mode: int) -> float:
    """Norm scale factor accumulated over n_iter micro-rotations."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if mode == LINEAR:
        return 1.0
    k = 1.0
    for i in iteration_indices(mode, n_iter):
        k *= math.sqrt(1.0 + mode * math.ldexp(1.0, -2 * i))
    return k


@lru_cache(maxsize=None)
def _angle_fx(mode: int, i: int, fmt: QFormat) -> Fx:
    return fx_from_real(angle_step(mode, i), fmt)


def cordic_step(s: CordicState, mode: int, sigma: int) -> CordicState:
    """One micro-rotation: x' = x - m*s*2^-i*y, y' = y + s*2^-i*x, z' = z - s*e_i."""
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be +-1, got {sigma}")
    ty = fx_shr(s.y, s.i)
    tx = fx_shr(s.x, s.i)
    if mode == LINEAR:
        x = s.x
    elif mode * sigma > 0:
        x = fx_sub(s.x, ty)
    else:
        x = fx_add(s.x, ty)
    y = fx_add(s.y, tx) if sigma > 0 else fx_sub(s.y, tx)
    e = _angle_fx(mode, s.i, s.x.fmt)
    z = fx_sub(s.z, e) if sigma > 0 else fx_add(s.z, e)
    return CordicState(x, y, z, s.i + 1)


def _run(x0: Fx, y0: Fx, z0: Fx, mode: int, cfg: CordicConfig, vectoring: bool) -> tuple[Fx, Fx, Fx]:
    s = CordicState(x0, y0, z0, 0)
    for i in iteration_indices(mode, cfg.n_iter):
        s = CordicState(s.x, s.y, s.z, i)
        if vectoring:
            sigma = -1 if s.y.raw > 0 else 1
        else:
            sigma = 1 if s.z.raw >= 0 else -1
        s = cordic_step(s, mode, sigma)
    return s.x, s.y, s.z


def cordic_rotate(x0: Fx, y0: Fx, z0: Fx, mode: int, cfg: CordicConfig) -> tuple[Fx, Fx, Fx]:
    """Rotation mode: drive z to zero, sigma = sign(z), +1 on ties.

    Circular output is K*(x0*cos z0 - y0*sin z0, y0*cos z0 + x0*sin z0, ~0);
    linear output is (x0, y0 + x0*z0, ~0).
    """
    _check_range(mode, z0.real)
    return _run(x0, y0, z0, mode, cfg, vectoring=False)


def cordic_vector(x0: Fx, y0: Fx, z0: Fx, mode: int, cfg: CordicConfig) -> tuple[Fx, Fx, Fx]:
    """Vectoring mode: drive y to zero, sigma = -sign(y), +1 on ties.

    Circular output is (K*hypot(x0, y0), ~0, z0 + atan(y0/x0)); linear
    output accumulates the quotient, (x0, ~0, z0 + y0/x0).
    """
    if mode == CIRCULAR:
        if x0.raw == 0 and y0.raw == 0:
            raise DomainError("circular vectoring undefined at the origin")
        if x0.raw <= 0:
            raise DomainError("circular vectoring needs x0 > 0 for the principal angle")
    if mode == LINEAR and abs(y0.real) > 2.0 * abs(x0.real):
        raise DomainError("linear vectoring needs |y0/x0| <= 2")
    if mode == HYPERBOLIC and abs(y0.real) >= abs(x0.real):
        raise DomainError("hyperbolic vectoring needs |y0| < |x0|")
    return _run(x0, y0, z0, mode, cfg, vectoring=True)


def _check_range(mode: int, z: float) -> None:
    if mode == CIRCULAR and abs(z) > CIRC_RANGE:
        raise DomainError(f"angle {z} outside circular range +-{CIRC_RANGE}")
    if mode == LINEAR and abs(z) > 2.0:
        raise DomainError(f"linear argument {z} outside +-2")
    if mode == HYPERBOLIC and abs(z) > 1.118:
        raise DomainError(f"hyperbolic argument {z} outside +-1.118")


def circ_rotate(x: Fx, y: Fx, angle: float, cfg: CordicConfig) -> tuple[Fx, Fx]:
    """Gain-compensated plane rotation by any finite angle.

    Pre-scales the vector by 1/K, folds the angle to [-pi/4, pi/4] plus a
    whole number of quarter turns, iterates, then applies the quarter turns
    as exact sign/swap moves.  This is the reusable circular building block
    behind sin/cos generation and every link-rotation stage.
    """
    fmt = cfg.fmt
    inv_k = fx_from_real(1.0 / gain(cfg.n_iter, CIRCULAR), fmt)
    xs = fx_mul(x, inv_k, fmt)
    ys = fx_mul(y, inv_k, fmt)
    q = round(angle / HALF_PI)
    residual = angle - q * HALF_PI
    z = fx_from_real(residual, fmt)
    xr, yr, _ = cordic_rotate(xs, ys, z, CIRCULAR, cfg)
    return _quarter_turns(xr, yr, q)


def _quarter_turns(x: Fx, y: Fx, q: int) -> tuple[Fx, Fx]:
    q &= 3
    if q == 0:
        return x, y
    if q == 1:
        return fx_neg(y), x
    if q == 2:
        return fx_neg(x), fx_neg(y)
    return y, fx_neg(x)


def sincos_cordic(theta: Fx, cfg: CordicConfig = DEFAULT_CONFIG) -> tuple[Fx, Fx]:
    """Cosine and sine of any finite angle, gain pre-compensated."""
    one = fx_from_real(1.0, cfg.fmt)
    zero = Fx(0, cfg.fmt)
    return circ_rotate(one, zero, theta.real, cfg)


def sincos_tolerance(cfg: CordicConfig) -> float:
    """Worst-case absolute error bound for sincos_cordic.

    Residual angle after n iterations plus one truncation per iteration.
    Measured error sits well below this; the bound is for contracts.
    """
    return math.atan(math.ldexp(1.0, 1 - cfg.n_iter)) + (cfg.n_iter + 2) * cfg.fmt.eps


def circ1_op_count(n_iter: int) -> int:
    """Shift/add/sub ops for one gain-compensated circular rotation."""
    return 2 + 5 * n_iter  # 2 pre-scale multiplies, then 2 shifts + 3 adds per step


def lin1_op_count(n_iter: int) -> int:
    """Shift/add/sub ops for one linear-mode accumulate."""
    return 3 * n_iter  # y and z updates; x is static in linear mode
