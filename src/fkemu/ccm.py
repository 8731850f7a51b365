"""Two-stage CORDIC computational module and the cascaded n-link pipeline.

One module evaluates one link transform applied to a point using four
CORDIC processors: stage 1 runs a circular rotation of (y, z) by alpha in
parallel with a linear accumulate producing x + a; stage 2 rotates the
intermediate (x, y) by theta and accumulates z + d.  Cascading n modules
walks a point from the end-effector frame down to the base, one link per
module, with the documented (2*stage + overhead) latency model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cordic import (
    CordicConfig,
    DEFAULT_CONFIG,
    LINEAR,
    circ1_op_count,
    circ_rotate,
    cordic_rotate,
    lin1_op_count,
)
from .dh import DhChain, DhJoint, Vec4
from .fixedpoint import DomainError, Fx, fx_from_real, fx_shr


@dataclass(frozen=True)
class CcmResult:
    p_out: Vec4
    intermediates: tuple[Fx, Fx, Fx]  # (x_a, y_a, z_a)


@dataclass(frozen=True)
class PipelineModel:
    """Latency model: two stage delays per module plus a fixed overhead."""

    n_links: int
    stage_time_us: float = 40.0
    overhead_us: float = 120.0

    def __post_init__(self) -> None:
        if self.n_links < 1:
            raise ValueError("n_links must be >= 1")
        if self.stage_time_us <= 0 or self.overhead_us <= 0:
            raise ValueError("times must be positive")


@dataclass(frozen=True)
class LatencyReport:
    n_links: int
    processors: int
    latency_us: float


def latency_us(m: PipelineModel) -> float:
    return 2.0 * m.stage_time_us * m.n_links + m.overhead_us


def _lin_accumulate(const: Fx, value: Fx, cfg: CordicConfig) -> Fx:
    """Linear-mode CORDIC add: returns const + value (the LIN1 processor).

    Linear mode only converges for |z0| <= 2, so larger arguments are
    staged down by an exact power of two while the unit multiplicand is
    staged up by the same factor (y accumulates x0 * z0 either way).
    """
    fmt = cfg.fmt
    k = 0
    v = value
    k_max = fmt.word_bits - fmt.frac_bits - 2
    while abs(v.real) > 2.0 and k < k_max:
        k += 1
        v = fx_shr(value, k)
    scale = fx_from_real(float(1 << k), fmt)
    _, y, _ = cordic_rotate(scale, const, v, LINEAR, cfg)
    return y


def _stage1(j: DhJoint, x: Fx, y: Fx, z: Fx, w: float, cfg: CordicConfig) -> tuple[Fx, Fx, Fx]:
    # CIRC1 on (y, z; alpha) and LIN1 on (1, a; x) are independent and may
    # run in parallel; both read only stage inputs.
    y_a, z_a = circ_rotate(y, z, j.alpha, cfg)
    a_const = fx_from_real(j.a_eff * w, cfg.fmt)
    x_a = _lin_accumulate(a_const, x, cfg)
    return x_a, y_a, z_a


def _stage2(j: DhJoint, x_a: Fx, y_a: Fx, z_a: Fx, w: float, cfg: CordicConfig) -> tuple[Fx, Fx, Fx]:
    x_out, y_out = circ_rotate(x_a, y_a, j.theta, cfg)
    d_const = fx_from_real(j.d * w, cfg.fmt)
    z_out = _lin_accumulate(d_const, z_a, cfg)
    return x_out, y_out, z_out


def ccm_transform(j: DhJoint, p: Vec4, cfg: CordicConfig = DEFAULT_CONFIG) -> CcmResult:
    """Push one point (w=1) or free vector (w=0) through one module.

    Free vectors skip the translation constants, which is how orientation
    columns ride the same hardware as position.

    Raises DomainError unless 2|p|_2 + |a_eff w| + |d w| + 2 fits the
    format's range, so no value the module forms can saturate.  The
    circular stages keep a vector's norm at most |p|_2 + |a_eff|.  A linear
    accumulate c + v overshoots on its way to the sum by at most
    max(1, |v|), so it stays within |c| + 2|v| + 1, with |v| <= |p|_2.  The
    remaining 1 is margin for truncation drift.
    """
    if p.w not in (0.0, 1.0):
        raise ValueError(f"point w must be 0 or 1, got {p.w}")
    fmt = cfg.fmt
    reach = 2.0 * math.hypot(p.x, p.y, p.z) + abs(j.a_eff * p.w) + abs(j.d * p.w) + 2.0
    if not reach <= fmt.max_raw * fmt.eps:
        raise DomainError(f"link {j} on point {p} can saturate {fmt}")
    x = fx_from_real(p.x, fmt)
    y = fx_from_real(p.y, fmt)
    z = fx_from_real(p.z, fmt)
    inter = _stage1(j, x, y, z, p.w, cfg)
    x_out, y_out, z_out = _stage2(j, *inter, p.w, cfg)
    return CcmResult(Vec4(x_out.real, y_out.real, z_out.real, p.w), inter)


def fk_pipeline(
    chain: DhChain,
    p_end: Vec4,
    cfg: CordicConfig = DEFAULT_CONFIG,
    model: PipelineModel | None = None,
) -> tuple[Vec4, LatencyReport]:
    """Walk a point from frame n to the base: P_{i-1} = A_i P_i, i = n..1."""
    if len(chain) == 0:
        raise ValueError("empty chain")
    p = p_end
    for j in reversed(chain):
        p = ccm_transform(j, p, cfg).p_out
    if model is None:
        model = PipelineModel(len(chain))
    report = LatencyReport(len(chain), 4 * len(chain), latency_us(model))
    return p, report


def ccm_pose(chain: DhChain, cfg: CordicConfig = DEFAULT_CONFIG):
    """Full pose via the module cascade: three direction columns pushed as
    free vectors plus the origin pushed as a point."""
    cols = []
    for v in (Vec4(1, 0, 0, 0.0), Vec4(0, 1, 0, 0.0), Vec4(0, 0, 1, 0.0), Vec4(0, 0, 0, 1.0)):
        out, _ = fk_pipeline(chain, v, cfg)
        cols.append([out.x, out.y, out.z, out.w])
    return np.array(cols).T


def point_op_count(cfg: CordicConfig = DEFAULT_CONFIG) -> int:
    """Modeled scalar ops to push one point through one module."""
    return 2 * circ1_op_count(cfg.n_iter) + 2 * lin1_op_count(cfg.n_iter)


def pose_op_count(n_links: int, cfg: CordicConfig = DEFAULT_CONFIG) -> int:
    """Modeled scalar ops for a full pose (four column pushes per link)."""
    return 4 * n_links * point_op_count(cfg)
