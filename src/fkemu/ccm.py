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
Every joint angle is known before the cascade starts, so ccm_points folds
all of them and finds all their sigmas in one pass (cordic.circ_sigmas);
each circular stage then only steps its (x, y).  Each linear processor is
cordic.linear_lanes's closed form, exact because each module's reach check
rules out saturation.  The emulated processors still run n_iter shift-add
steps each: op counts and the latency model do not change.
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
    circ1_op_count,
    circ_rotate_sigmas,
    circ_sigmas,
    lin1_op_count,
    linear_lanes,
)
from .dh import ChainSet, DhChain, Vec4
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
    the format is staged within 2.  The n_iter shift-add steps run in
    cordic.linear_lanes's closed form, which equals the clipping loop bit
    for bit because _module's reach check proves no partial sum saturates.
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
    return linear_lanes(lanes_from_real(np.ldexp(1.0, k), fmt), const, v, cfg)


def _module(chains: ChainSet, link: int, p: np.ndarray, turns, sigmas, cfg: CordicConfig):
    """One module on every lane: link `link` of chains[k] applied to p[k] = (x, y, z, w).

    turns and sigmas are circ_sigmas of the link's (alpha, theta) lanes.
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
    d, a_eff = chains.d[:, link], chains.a_eff[:, link]
    w = p[:, 3]
    bad_w = (w != 0.0) & (w != 1.0)
    # a sum past the double range is inf and inf * 0 is nan, as in float arithmetic; both fail the bound
    with np.errstate(over="ignore", invalid="ignore"):
        reach = 2.0 * np.array([math.hypot(*q) for q in p[:, :3].tolist()]) + abs(a_eff * w) + abs(d * w) + 2.0
    bad = bad_w | ~(reach <= fmt.max_raw * fmt.eps)
    first = np.argmax(bad)
    if bad_w[first]:
        raise ValueError(f"point w must be 0 or 1, got {w[first]}")
    if bad[first]:
        raise DomainError(f"link {link} can saturate {fmt} on points {p[bad].tolist()}")
    x, y, z = (lanes_from_real(p[:, c], fmt) for c in range(3))
    # stage 1: CIRC1 on (y, z; alpha) and LIN1 on (1, a; x) are independent
    # and may run in parallel; both read only stage inputs
    y_a, z_a = circ_rotate_sigmas(y, z, turns[0], sigmas[0], cfg)
    x_a = _lin_accumulate(lanes_from_real(a_eff * w, fmt), x, cfg)
    x_out, y_out = circ_rotate_sigmas(x_a, y_a, turns[1], sigmas[1], cfg)
    z_out = _lin_accumulate(lanes_from_real(d * w, fmt), z_a, cfg)
    return x_out, y_out, z_out


def ccm_points(chains: ChainSet, points, cfg: CordicConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Push points[k] (x, y, z, w) through chains[k], frame n to the base
    (P_{i-1} = A_i P_i, i = n..1) on all lanes at once: (len(chains), 4).

    Every alpha and theta is known before the cascade starts, so one fold
    and one sigma pass over all of them, link by (alpha, theta) by lane,
    come first: a joint angle beyond MAX_ANGLE raises its DomainError before
    any module checks its reach."""
    p = np.array(points, dtype=np.float64).reshape(len(chains), 4)
    turns, sigmas = circ_sigmas(np.stack([chains.alpha.T, chains.theta.T], axis=1), cfg)
    for link in reversed(range(chains.theta.shape[1])):
        out = _module(chains, link, p, turns[link], sigmas[link], cfg)
        p = np.column_stack([lanes_real(v, cfg.fmt) for v in out] + [p[:, 3]])
    return p


def fk_pipeline(chain: DhChain, p_end: Vec4, cfg: CordicConfig = DEFAULT_CONFIG) -> tuple[Vec4, LatencyReport]:
    """Walk a point from frame n to the base: P_{i-1} = A_i P_i, i = n..1."""
    x, y, z, _ = ccm_points(ChainSet.of([chain]), [p_end.as_array()], cfg)[0].tolist()
    model = PipelineModel(len(chain))
    report = LatencyReport(model.processors, latency_us(model))
    return Vec4(x, y, z, p_end.w), report


def ccm_poses(chains: ChainSet, cfg: CordicConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Full poses via the module cascade, (len(chains), 4, 4): per chain,
    the three direction columns pushed as free vectors plus the origin
    pushed as a point, four lanes per chain."""
    lanes = ChainSet(*(np.repeat(v, 4, axis=0) for v in (chains.theta, chains.d, chains.a_eff, chains.alpha)))
    out = ccm_points(lanes, np.tile(np.eye(4), (len(chains), 1)), cfg)  # row k of eye(4): column k of a pose
    return out.reshape(len(chains), 4, 4).transpose(0, 2, 1)


def point_op_count(cfg: CordicConfig = DEFAULT_CONFIG) -> int:
    """Modeled scalar ops to push one point through one module."""
    return 2 * circ1_op_count(cfg.n_iter) + 2 * lin1_op_count(cfg.n_iter)


def pose_op_count(n_links: int, cfg: CordicConfig = DEFAULT_CONFIG) -> int:
    """Modeled scalar ops for a full pose (four column pushes per link)."""
    return 4 * n_links * point_op_count(cfg)
