"""Two-stage CORDIC computational module and the cascaded n-link pipeline.

One module applies one link transform to a point with four CORDIC
processors: stage 1 rotates (y, z) by alpha (CIRC1) beside a linear
accumulate x + a (LIN1), and stage 2 rotates (x, y) by theta (CIRC2)
beside z + d (LIN2).  n modules walk a point from the end-effector frame
to the base; PipelineModel and latency_us model their processors and
their (2*stage + overhead) latency.

ccm_points and ccm_poses share one cascade, _cascade, which runs every
module on all lanes at once (a pose is four lanes per chain) on cordic's
lane kernels.  This module keeps the order of the links, the raws carried
between modules (CARRY_BITS) and the reach check under which every stage
runs with no clip: _module holds the proof, _reach_limit the per-config
limit, and _clears and _check_reach the two checks that apply it.  The
emulated processors still run n_iter steps each, so op counts and the
latency model are those of the hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cordic import (
    CordicConfig,
    DEFAULT_CONFIG,
    _operands,
    _repeated_plan,
    circ1_op_count,
    circ_rotate_sigmas,
    gain,
    lin1_op_count,
    linear_accumulate,
)
from .dh import ChainSet
from .fixedpoint import DomainError, frozen, lanes_from_real, lanes_real

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


def latency_us(m: PipelineModel) -> float:
    return 2.0 * STAGE_TIME_US * m.n_links + OVERHEAD_US


def _reach(norm, consts):
    """2|p|_2 + |a_eff w| + |d w| + 2, in this order, for consts = (a_eff w, d w)."""
    return 2.0 * norm + abs(consts[0]) + abs(consts[1]) + 2.0


# half-width of the band around the reach limit, relative, where a lane's
# norm is taken again by math.hypot: the vectorized norm is within a few
# ulps of it, 2**-49 relative at most, so outside the band both decide alike
NEAR_LIMIT = 2.0**-44


# the relative margin below the reach limit within which one bound clears
# a whole module: twice NEAR_LIMIT, so a lane it clears lies outside the
# band where the exact check takes math.hypot, and far more than the few
# ulps by which either computation's doubles round
CLEAR_MARGIN = 2.0 * NEAR_LIMIT
SQRT3 = math.sqrt(3.0)

# words of at most this many bits carry their raws from module to module:
# every raw is within 2**53 in magnitude, so a double holds it exactly, and
# the raw -> double -> raw round trip that carrying skips changes no bit.
# A wider word still takes that round trip between modules, which rounds
# raws past 2**53.
CARRY_BITS = 54


def _clears(top: float, c: float, limit: float) -> bool:
    """Whether one bound clears every lane of a module whose points have
    |x|, |y|, |z| <= top and whose link has |a_eff w| + |d w| <= c on every
    lane, against the reach limit `limit`, given that every w is 0 or 1.

    Every lane has |p|_2 <= sqrt(3) top, so its reach 2|p|_2 + |a_eff w| +
    |d w| + 2 is at most B = 2 sqrt(3) top + c + 2.  The exact check's
    reach of a lane, computed in doubles, exceeds its real value by at
    most ~10 roundings of nonnegative terms, under 2**-49 relative; B,
    computed here, falls short of the real B by as little (SQRT3 is within
    an ulp of sqrt(3)).  So a computed B at most limit (1 - CLEAR_MARGIN)
    puts every lane's computed reach below limit (1 - NEAR_LIMIT): outside
    the band where the exact check takes math.hypot, and within the limit,
    so _check_reach would pass every lane.  A NaN or an infinite top or c
    fails the comparison, and the exact check decides.
    """
    return 2.0 * SQRT3 * top + c + 2.0 <= limit * (1.0 - CLEAR_MARGIN)


def _check_reach(link: int, p: np.ndarray, w, bad_w, consts, cfg: CordicConfig) -> None:
    """The exact reach check of link `link` on every lane: p holds the
    points' x, y and z as doubles, shape (3, lanes); bad_w marks the lanes
    whose w is neither 0 nor 1; consts = (a_eff w, d w), (2, lanes).

    Raises ValueError unless w is 0 or 1, and DomainError unless the reach
    2|p|_2 + |a_eff w| + |d w| + 2 is at most _reach_limit(cfg); of the
    lanes failing either, the first decides which, and a DomainError names
    that lane's point and the number of lanes failing.  The norm is
    vectorized; only lanes whose reach falls within NEAR_LIMIT of the limit
    take it again as math.hypot, so every decision is the bound's own,
    evaluated in doubles.  Under the caller's np.errstate, a sum past the
    double range is inf and inf * 0 is nan, and both fail the bound.
    """
    limit = _reach_limit(cfg)
    reach = _reach(np.sqrt((p * p).sum(axis=0)), consts)
    near = abs(reach - limit) <= limit * NEAR_LIMIT
    if near.any():
        reach[near] = _reach(np.array([math.hypot(*q) for q in p[:, near].T.tolist()]), consts[:, near])
    bad = bad_w | ~(reach <= limit)
    first = np.argmax(bad)
    if bad_w[first]:
        raise ValueError(f"point w must be 0 or 1, got {w[first]}")
    if bad[first]:
        raise DomainError(
            f"link {link} can saturate {cfg.fmt} at n_iter {cfg.n_iter}: reach must be at most {limit}, "
            f"got {reach[first]} on point {np.append(p[:, first], w[first]).tolist()}, "
            f"the first of {bad.sum()} failing lanes"
        )


def _module(xyz: np.ndarray, raws, stages, cfg: CordicConfig) -> np.ndarray:
    """One module on every lane: a link applied to the points whose x, y
    and z raws xyz holds, shape (3, lanes).

    raws holds the link's constants (a_eff w, d w) as raws, (2, lanes);
    stages holds the stage plans of CIRC1 and CIRC2, circ_sigmas of the
    link's alpha and theta lanes.  Returns the output raws, (3, lanes).  A
    free vector (w = 0) has zero constants, which is how orientation
    columns ride the same hardware as position.

    CIRC1 and LIN1 both read only stage inputs, and LIN2 reads CIRC1's z,
    so after CIRC1 the two linear processors run as one accumulate on a
    (2, lanes) stack, then CIRC2.

    The caller has passed every lane through the reach check (_clears or
    _check_reach) on the points p as doubles, and no processor saturates
    on such a lane, so the module runs no clip, with the bits of the
    clipped route; linear_accumulate's closed form is exact where no
    partial sum saturates.  In raws, with u = 2**F (1.0), F = frac_bits,
    n = n_iter, M the format's top, a = a_eff w, d = d w and L the limit,
    a lane that passes has 2|p| + |a| + |d| <= L e - 2u, where e = 1 +
    2**-49 absorbs the rounding of the check's doubles; the raws of x, y,
    z, a and d lie within 1/2 of them.
    - A linear accumulate c + v keeps every partial sum within |c| +
      max(u, 2|v|).  The loop runs on v' = v >> k, staged so |v'| <= 2u,
      with the unit 2**(F + k).  Its first partial sum is +-2**k u, and a
      later one lies within 2**k (|v'| + u/2): the residual after step j
      is within 2**(F - j), and step F + 1, whose micro-angle rounds to 0,
      moves the sum by 2**(k - 1).  With k = 0 that is the bound.  With
      k >= 1, staging went on only while |v >> (k - 1)| > 2u, and a case
      analysis of the floor shifts keeps the sums within 2|v| (test_ccm
      checks the bound on every raw of the 8- and 12-bit formats).
    - A circular stage takes a vector of norm r to at most g r + D, every
      intermediate included.  The 1/K pre-scale by the raw c and the
      steps, step i scaling the norm by sqrt(1 + 4**-i), scale it by at
      most g = max(1, K c / u).  Each floor shift (the pre-scale's, and
      both of step i's for i >= 1) moves the vector by under sqrt(2), grown
      by the steps after it: D = sqrt(2) (K + sum_{i>=1} prod_{j>i}
      sqrt(1 + 4**-j)) <= 1.5 n + 1.  The quarter turns keep the norm,
      and a value within M negates within the range.
    - CIRC1 turns (y, z), of norm at most |p| + 1 once quantized, so its
      values, its z output included, stay within Z = g (|p| + 1) + D.
    - LIN1 gives x + a + err, |err| <= lam max(u, |x|) with lam =
      (max(1, 2**(F + 1 - n)) + 2 + 2**(F - 52)) / u.  The digits miss the
      staged value by at most max(1, 2**(F + 1 - n)) staged LSBs; staging
      by 2**k < max(1, |x| / u) floors off under one, and the staged
      value's top clip at most 1 + 2**(F - 52), the last term for raws a
      double rounds.
    - CIRC2 turns (x + a + err, CIRC1's y), of norm r2 <= |a| + (g + lam)
      |p| + lam u + g + 1/2 + D.  With s = max(1, (g + lam) / 2), |a| +
      (g + lam) |p| <= s (|a| + 2|p|) <= s (L e - 2u), and CIRC2's values,
      within g r2 + D, stay within M, and CIRC1's (within Z, below
      r2's bound) too, if
          (CIRC2) L e <= ((M - D) / g - lam u - g - 1/2 - D) / s + 2u.
    - LIN2 accumulates d + CIRC1's z, and LIN1 a + x.  As 2g|p| + |d| <=
      g (L e - 2u), LIN2's partial sums, within |d| + 1/2 + max(u, 2Z),
      stay within M where 2Z decides if
          (LIN2) L e <= (M - 2g - 2D - 1/2) / g + 2u,
      and where u decides, LIN1's too (within |a| + 1/2 + max(u, 2|p| +
      1), whose second term needs less, as u >= 1), if
          (LIN)  L e <= M + u - 1/2.
    _reach_limit(cfg) is the largest L, at most M, that meets all three.
    It is M in every config where the margin of 2 covers the stages' gain
    and drift, among them every n_iter from 1 up in Q8.24, Q4.12 and
    Q16.40; coarse formats get less, Q8.0 at 2 iterations about a quarter
    of its top, since its 1/K rounds to 1.
    """
    # no clip in any stage (the trailing False): the reach check rules every one out
    y_a, z_a = circ_rotate_sigmas(xyz[1], xyz[2], *stages[0], cfg, False)
    x_a, z_out = linear_accumulate(raws, np.array([xyz[0], z_a]), cfg)
    x_out, y_out = circ_rotate_sigmas(x_a, y_a, *stages[1], cfg, False)
    return np.array([x_out, y_out, z_out])


@lru_cache(maxsize=None)
def _reach_limit(cfg: CordicConfig) -> float:
    """The largest reach, at most the format's top, under which _module's
    proof that no processor saturates closes in cfg: the CIRC2, LIN2 and
    LIN conditions there, in the format's units.  Evaluated in doubles,
    which the proof's slack absorbs."""
    fmt, n = cfg.fmt, cfg.n_iter
    u, top, e = math.ldexp(1.0, fmt.frac_bits), float(fmt.max_raw), 1.0 + 2.0**-49
    g = max(1.0, gain(n) * int(_operands(cfg).inv_gain) / u)  # c: the stages' own 1/K raw
    drift = 1.5 * n + 1.0
    lam = (max(1.0, 2.0 ** (fmt.frac_bits + 1 - n)) + 2.0 + 2.0 ** (fmt.frac_bits - 52)) / u
    s = max(1.0, (g + lam) / 2.0)
    circ2 = ((top - drift) / g - lam * u - g - 0.5 - drift) / s + 2.0 * u
    lin2 = (top - 2.0 * g - 2.0 * drift - 0.5) / g + 2.0 * u
    return min(top, circ2 / e, lin2 / e, (top + u - 0.5) / e) * fmt.eps


def _by_link(a, b):
    """Two (lanes, links) arrays as one C-contiguous (links, 2, lanes) stack:
    the layout the kernels walk, adjacent lanes adjacent in memory."""
    out = np.empty((a.shape[1], 2, a.shape[0]))
    out[:, 0], out[:, 1] = a.T, b.T
    return out


def _cascade(chains: ChainSet, p: np.ndarray, reps: int, cfg: CordicConfig) -> np.ndarray:
    """Push p[k], (x, y, z, w) as doubles of shape (reps*len(chains), 4),
    through chains[k // reps], frame n to the base (P_{i-1} = A_i P_i,
    i = n..1), on all lanes at once: each chain's links drive reps adjacent
    lanes.  Returns the pushed points, (lanes, 4); no lanes give p itself.

    Every angle is known before the cascade starts, so one plan of them
    all, link by (alpha, theta) by chain, comes first
    (cordic._repeated_plan), and an angle beyond MAX_ANGLE raises before
    any module checks its reach.  w never changes, so the w check, the
    constants a_eff w and d w and each link's largest |a_eff w| + |d w|
    are made once, and the constants converted to raws once: one past the
    format's range fails its link's reach check before any module reads
    it, so it converts as 0, with no warning.  The first module's reach is
    checked on the caller's doubles, a later one's on its input raws (as
    doubles), carried as CARRY_BITS says."""
    fmt = cfg.fmt
    if not len(p):  # no lanes: no module has a point to push or check
        return p
    w = p[:, 3]
    bad_w = (w != 0.0) & (w != 1.0)
    clear_w, limit = not bad_w.any(), _reach_limit(cfg)
    swaps, signs, sigmas = _repeated_plan(_by_link(chains.alpha, chains.theta), cfg, reps)
    carry = fmt.word_bits <= CARRY_BITS
    # inf and nan fail the reach check, which reports them
    with np.errstate(over="ignore", invalid="ignore"):
        consts = _by_link(chains.a_eff, chains.d).repeat(reps, axis=-1) * w
        raws = lanes_from_real(np.where(abs(consts) <= fmt.max_raw * fmt.eps, consts, 0.0), fmt)
        c_link = np.abs(consts).sum(axis=1).max(axis=1).tolist()
        xyz, p = None, p[:, :3].T  # raws, or their doubles where xyz is None
        top = float(np.abs(p).max())
        for link in reversed(range(chains.theta.shape[1])):
            if not (clear_w and _clears(top, c_link[link], limit)):
                _check_reach(link, lanes_real(xyz, fmt) if p is None else p, w, bad_w, consts[link], cfg)
            if xyz is None:
                xyz = lanes_from_real(p, fmt)
            stages = [(swaps[link, s], signs[link, s], sigmas[link, s]) for s in (0, 1)]
            out = _module(xyz, raws[link], stages, cfg)
            top = float(np.abs(out).max()) * fmt.eps  # rounding is monotone: at least every |double| of out
            xyz, p = (out, None) if carry else (None, lanes_real(out, fmt))
        out = np.empty((len(w), 4))
        out[:, :3], out[:, 3] = (lanes_real(xyz, fmt) if p is None else p).T, w
        return out


def ccm_points(chains: ChainSet, points, cfg: CordicConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Push points[k] (x, y, z, w) through chains[k], frame n to the base
    (P_{i-1} = A_i P_i, i = n..1) on all lanes at once: (len(chains), 4),
    one lane per chain (_cascade).  A joint angle beyond MAX_ANGLE raises
    DomainError before any module checks its reach; a lane whose reach a
    module cannot take without saturating raises DomainError, and a w other
    than 0 or 1 ValueError.  No chains give a (0, 4) array."""
    return _cascade(chains, np.array(points, dtype=np.float64).reshape(len(chains), 4), 1, cfg)


_EYE = frozen(np.eye(4).reshape(1, 16))  # one chain's four lanes, (x, y, z, w) each


def ccm_poses(chains: ChainSet, cfg: CordicConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Full poses via the module cascade, (len(chains), 4, 4): per chain,
    the three direction columns pushed as free vectors plus the origin
    pushed as a point, four adjacent lanes per chain, which share the
    chain's one stage plan (_cascade)."""
    points = _EYE.repeat(len(chains), axis=0).reshape(-1, 4)  # row k of eye(4): column k of a pose
    return _cascade(chains, points, 4, cfg).reshape(len(chains), 4, 4).transpose(0, 2, 1)


def point_op_count(cfg: CordicConfig = DEFAULT_CONFIG) -> int:
    """Modeled scalar ops to push one point through one module."""
    return 2 * circ1_op_count(cfg.n_iter) + 2 * lin1_op_count(cfg.n_iter)


def pose_op_count(n_links: int, cfg: CordicConfig = DEFAULT_CONFIG) -> int:
    """Modeled scalar ops for a full pose (four column pushes per link)."""
    return 4 * n_links * point_op_count(cfg)
