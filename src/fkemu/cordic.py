"""CORDIC iteration engine on fixed-point state, as forward kinematics uses it.

One shift-add micro-rotation per step, in rotation mode (the angle residual
z is driven to zero), in two coordinate systems selected by the mode
constant m: circular (1) rotates a vector, linear (0) accumulates y + x*z.
The circular gain K = prod sqrt(1 + 2**-2i) is never free: callers either
pre-scale by 1/K (see circ_rotate_lanes) or account for it themselves.

The micro-rotation loop is written once, in cordic_lanes, over lanes: x, y
and z are ndarrays holding one raw integer per lane, and each lane picks
its own sigma, so a whole batch of independent rotations advances one
iteration per numpy operation.  Lanes are int64 for words up to 32 bits,
where every sum and the 1/K pre-scale product are exact, and object arrays
of Python ints for wider words (fixedpoint.lane_dtype); the loop is the
same.  Every add and sub saturates, so each lane equals a fold of the
scalar reference cordic_step bit for bit.  sincos_cordic is the trig
provider on top of it: one lane per angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fixedpoint import (
    HALF_PI,
    Fx,
    QFormat,
    clip,
    fold_angle,
    fx_add,
    fx_from_real,
    fx_shr,
    fx_sub,
    lane_dtype,
    lanes_from_real,
    lanes_real,
    quarter_turns,
    rescale,
)

CIRCULAR = 1
LINEAR = 0


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


def angle_step(mode: int, i: int) -> float:
    """Elementary angle e_i for one micro-rotation at shift index i."""
    if mode == CIRCULAR:
        return math.atan(math.ldexp(1.0, -i))
    if mode == LINEAR:
        return math.ldexp(1.0, -i)
    raise ValueError(f"bad mode {mode}")


def gain(n_iter: int) -> float:
    """Circular norm scale factor accumulated over n_iter micro-rotations."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    k = 1.0
    for i in range(n_iter):
        k *= math.sqrt(1.0 + math.ldexp(1.0, -2 * i))
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
    elif sigma > 0:
        x = fx_sub(s.x, ty)
    else:
        x = fx_add(s.x, ty)
    y = fx_add(s.y, tx) if sigma > 0 else fx_sub(s.y, tx)
    e = _angle_fx(mode, s.i, s.x.fmt)
    z = fx_sub(s.z, e) if sigma > 0 else fx_add(s.z, e)
    return CordicState(x, y, z, s.i + 1)


@lru_cache(maxsize=None)
def _micro_angles(mode: int, cfg: CordicConfig) -> tuple[tuple[int, int], ...]:
    """(shift index, micro-angle raw) of every iteration."""
    if cfg.n_iter > cfg.fmt.word_bits:
        raise ValueError(f"shift {cfg.n_iter - 1} out of range for {cfg.fmt}")
    return tuple((i, _angle_fx(mode, i, cfg.fmt).raw) for i in range(cfg.n_iter))


@lru_cache(maxsize=None)
def _inv_gain_raw(cfg: CordicConfig) -> int:
    return fx_from_real(1.0 / gain(cfg.n_iter), cfg.fmt).raw


def cordic_lanes(x, y, z, mode: int, cfg: CordicConfig):
    """The rotation-mode micro-rotation loop over lanes of raws in cfg.fmt;
    returns (x, y, z).

    x, y and z are arrays of lane_dtype(cfg.fmt), one raw per lane.  sigma
    is chosen per lane, sign(z) with +1 on ties, driving z to zero.
    Circular output is K*(x0*cos z0 - y0*sin z0, y0*cos z0 + x0*sin z0, ~0)
    for |z0| within the sum of all atan(2**-i), about 1.7433; linear output
    is (x0, y0 + x0*z0, ~0) for |z0| <= 2.  Each lane equals cordic_step
    folded over shift indices 0..n_iter-1, bit for bit.  No range checks:
    those belong to the callers that know what the lanes hold.
    """
    # bare clip, bounds hoisted: a rescale call makes each saturation ~50% slower on 64 lanes
    lo, hi = cfg.fmt.min_raw, cfg.fmt.max_raw
    for i, e in _micro_angles(mode, cfg):
        s = (z >> 63) | 1  # raws have at most 64 bits
        tx = x >> i
        if mode == CIRCULAR:
            x = clip(x - s * (y >> i), lo, hi)
        y = clip(y + s * tx, lo, hi)
        z = clip(z - s * e, lo, hi)
    return x, y, z


def circ_rotate_lanes(x, y, angle: np.ndarray, cfg: CordicConfig):
    """Gain-compensated plane rotation of every lane: raws x, y in cfg.fmt
    and a float64 angle within +-MAX_ANGLE per lane; returns the rotated raws.

    Pre-scales the vector by 1/K, folds |angle| to a residual in [-pi/4,
    pi/4] plus a whole number of quarter turns, iterates, then applies the
    quarter turns as exact sign/swap moves.  This is the circular building
    block behind sin/cos generation and every link-rotation stage.

    Odd symmetry holds only within sincos_tolerance, not bit for bit: the
    shift-add steps truncate toward -inf, so a rotation by -z is not the
    mirror image of one by z.  Raises DomainError if any |angle| exceeds
    MAX_ANGLE or is not finite.
    """
    fmt = cfg.fmt
    inv_k = _inv_gain_raw(cfg)
    xs = rescale(x * inv_k, 2 * fmt.frac_bits, fmt)
    ys = rescale(y * inv_k, 2 * fmt.frac_bits, fmt)
    q, r = fold_angle(np.abs(angle))
    up = r > HALF_PI / 2
    q, r = q + up, np.where(up, r - HALF_PI, r)
    neg = angle < 0
    q, r = np.where(neg, -q, q) & 3, np.where(neg, -r, r)
    xr, yr, _ = cordic_lanes(xs, ys, lanes_from_real(r, fmt), CIRCULAR, cfg)
    x_out, y_out = quarter_turns(q, xr, yr)
    return rescale(x_out, fmt.frac_bits, fmt), rescale(y_out, fmt.frac_bits, fmt)


def sincos_cordic(theta, cfg: CordicConfig = DEFAULT_CONFIG):
    """(cos, sin) of angles within +-MAX_ANGLE, gain pre-compensated: a
    float gives floats, an ndarray gives float64 ndarrays of its shape.

    Each angle is one lane of circ_rotate_lanes rotating (1, 0); each value
    has the bits Fx.real gives its raw in cfg.fmt.  Raises DomainError if
    any angle is beyond MAX_ANGLE or not finite.
    """
    arr = np.asarray(theta, dtype=np.float64)
    lanes = arr.reshape(-1)
    one = np.full(lanes.size, fx_from_real(1.0, cfg.fmt).raw, dtype=lane_dtype(cfg.fmt))
    xr, yr = circ_rotate_lanes(one, np.zeros_like(one), lanes, cfg)
    cos, sin = (lanes_real(v, cfg.fmt).reshape(arr.shape) for v in (xr, yr))
    if arr.ndim == 0:
        return float(cos), float(sin)
    return cos, sin


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
