"""Two-stage CORDIC computational module and the cascaded n-link pipeline.

One module evaluates one link transform applied to a point using four
CORDIC processors: stage 1 runs a circular rotation of (y, z) by alpha in
parallel with a linear accumulate producing x + a; stage 2 rotates the
intermediate (x, y) by theta and accumulates z + d.  Cascading n modules
walks a point from the end-effector frame down to the base, one link per
module, with the documented (2*stage + overhead) latency model.

The cascade runs on lanes (see cordic): lane k pushes points[k] through
chains[k], and every module processes all lanes at once, link by link.  A
pose is four lanes per chain: the three direction columns as free vectors
and the origin as a point, so ccm_poses on 16 chains runs 64 lanes.
Between links each lane passes through a double, as the real-valued point
a module takes and returns: exact for words up to 54 bits, and in wider
words it rounds raws beyond 2**53, as the scalar cascade always did.
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
    circ_rotate_lanes,
    cordic_lanes,
    lin1_op_count,
)
from .dh import DhChain, Vec4
from .fixedpoint import DomainError, lanes_from_real, lanes_real

# the paper's per-stage delay and fixed overhead of the cascade
STAGE_TIME_US = 40.0
OVERHEAD_US = 120.0


@dataclass(frozen=True)
class PipelineModel:
    """Latency model: two stage delays per module plus a fixed overhead."""

    n_links: int

    def __post_init__(self) -> None:
        if self.n_links < 1:
            raise ValueError("n_links must be >= 1")

    @property
    def processors(self) -> int:
        """Four CORDIC processors per module, one module per link."""
        return 4 * self.n_links


@dataclass(frozen=True)
class LatencyReport:
    processors: int
    latency_us: float


def latency_us(m: PipelineModel) -> float:
    return 2.0 * STAGE_TIME_US * m.n_links + OVERHEAD_US


def _lin_accumulate(const, value, cfg: CordicConfig):
    """Linear-mode CORDIC add on lanes: returns const + value (the LIN1 processor).

    Linear mode only converges for |z0| <= 2, so larger arguments are
    staged down by an exact power of two 2**k, chosen per lane, while the
    unit multiplicand is staged up by the same factor (y accumulates x0 * z0
    either way).  k stops at word_bits - frac_bits - 2, where every raw of
    the format is staged within 2.
    """
    fmt = cfg.fmt
    k_max = fmt.word_bits - fmt.frac_bits - 2
    two = math.ldexp(2.0, fmt.frac_bits)  # |v.real| > 2.0 on the raw's double

    def too_big(v, k):
        return (np.abs(v.astype(np.float64)) > two) & (k < k_max)

    k = np.zeros(len(value), dtype=np.int64)
    v = value
    big = too_big(v, k)
    while big.any():
        k = k + big
        v = value >> k
        big = too_big(v, k)
    scale = lanes_from_real(np.ldexp(1.0, k), fmt)
    _, y, _ = cordic_lanes(scale, const, v, LINEAR, cfg)
    return y


def _module(joints, p: np.ndarray, cfg: CordicConfig):
    """One module on every lane: joints[k] applied to the real point p[k] = (x, y, z, w).

    Returns the output raws (x, y, z).  A free vector (w = 0) skips the
    translation constants, which is how orientation columns ride the same
    hardware as position.

    Raises ValueError unless w is 0 or 1, and DomainError unless 2|p|_2 +
    |a_eff w| + |d w| + 2 fits the format's range, so no value the module
    forms can saturate.  The circular stages keep a vector's norm at most
    |p|_2 + |a_eff|.  A linear accumulate c + v overshoots on its way to the
    sum by at most max(1, |v|), so it stays within |c| + 2|v| + 1, with
    |v| <= |p|_2.  The remaining 1 is margin for truncation drift.
    """
    fmt = cfg.fmt
    limit = fmt.max_raw * fmt.eps
    for j, (px, py, pz, pw) in zip(joints, p.tolist()):
        if pw not in (0.0, 1.0):
            raise ValueError(f"point w must be 0 or 1, got {pw}")
        reach = 2.0 * math.hypot(px, py, pz) + abs(j.a_eff * pw) + abs(j.d * pw) + 2.0
        if not reach <= limit:
            raise DomainError(f"link {j} on point {Vec4(px, py, pz, pw)} can saturate {fmt}")
    theta, d, a_eff, alpha = np.array([(j.theta, j.d, j.a_eff, j.alpha) for j in joints], dtype=np.float64).T
    x, y, z = (lanes_from_real(p[:, c], fmt) for c in range(3))
    w = p[:, 3]
    # stage 1: CIRC1 on (y, z; alpha) and LIN1 on (1, a; x) are independent
    # and may run in parallel; both read only stage inputs
    y_a, z_a = circ_rotate_lanes(y, z, alpha, cfg)
    x_a = _lin_accumulate(lanes_from_real(a_eff * w, fmt), x, cfg)
    x_out, y_out = circ_rotate_lanes(x_a, y_a, theta, cfg)
    z_out = _lin_accumulate(lanes_from_real(d * w, fmt), z_a, cfg)
    return x_out, y_out, z_out


def ccm_points(chains, points, cfg: CordicConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Push points[k] (x, y, z, w) through chains[k] from frame n to the
    base, P_{i-1} = A_i P_i for i = n..1, all lanes at once; returns the
    (len(chains), 4) points.  The chains must have one length."""
    lengths = {len(c) for c in chains}
    if 0 in lengths:
        raise ValueError("empty chain")
    if len(lengths) != 1:
        raise ValueError(f"need one or more chains of one length, got lengths {sorted(lengths)}")
    p = np.array(points, dtype=np.float64).reshape(len(chains), 4)
    for link in reversed(range(lengths.pop())):
        out = _module([c[link] for c in chains], p, cfg)
        p = np.column_stack([lanes_real(v, cfg.fmt) for v in out] + [p[:, 3]])
    return p


def fk_pipeline(chain: DhChain, p_end: Vec4, cfg: CordicConfig = DEFAULT_CONFIG) -> tuple[Vec4, LatencyReport]:
    """Walk a point from frame n to the base: P_{i-1} = A_i P_i, i = n..1."""
    x, y, z, _ = ccm_points([chain], [p_end.as_array()], cfg)[0].tolist()
    model = PipelineModel(len(chain))
    report = LatencyReport(model.processors, latency_us(model))
    return Vec4(x, y, z, p_end.w), report


def ccm_poses(chains, cfg: CordicConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Full poses via the module cascade, (len(chains), 4, 4): per chain,
    the three direction columns pushed as free vectors plus the origin
    pushed as a point, four lanes per chain."""
    columns = np.tile(np.eye(4), (len(chains), 1))  # row k of eye(4) is column k of a pose
    out = ccm_points([c for c in chains for _ in range(4)], columns, cfg)
    return out.reshape(len(chains), 4, 4).transpose(0, 2, 1)


def point_op_count(cfg: CordicConfig = DEFAULT_CONFIG) -> int:
    """Modeled scalar ops to push one point through one module."""
    return 2 * circ1_op_count(cfg.n_iter) + 2 * lin1_op_count(cfg.n_iter)


def pose_op_count(n_links: int, cfg: CordicConfig = DEFAULT_CONFIG) -> int:
    """Modeled scalar ops for a full pose (four column pushes per link)."""
    return 4 * n_links * point_op_count(cfg)
