"""Denavit-Hartenberg chain model in double precision.

Link transforms, the four-factor decomposition Tran(z,d)*Rot(z,theta)*
Tran(x,a)*Rot(x,alpha), chain products, and the six-joint closed-form pose
used as the arm-level oracle.  Everything here is the reference arithmetic
the emulated backends are measured against.

A chain set's poses take one of two routes.  The stacked one:
provider_links assembles every link of a ChainSet under several providers
as one (providers, chains, n, 4, 4) stack, and chain_product multiplies a
stack of any leading axes link by link; chain_poses is that route for one
provider.  The one-chain one: chain_pose.  Both take every link entry from
_link_top, and chain_product says why their bits agree.  provider_links
and chain_poses raise DomainError on a link constant that is not finite,
chain_pose and chain_poses on a pose past float64; chain_product leaves
the check to its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fixedpoint import DomainError, HALF_PI, frozen

ROTARY = "rotary"
PRISMATIC = "prismatic"


@dataclass(frozen=True)
class DhJoint:
    """One link: joint kind plus (theta, d, a, alpha).

    Rotary joints vary theta, prismatic joints vary d; the other three are
    fixed link constants.  A prismatic link carries no a-offset in its
    translation column.
    """

    kind: str
    theta: float
    d: float
    a: float
    alpha: float

    def __post_init__(self) -> None:
        if self.kind not in (ROTARY, PRISMATIC):
            raise ValueError(f"bad joint kind {self.kind!r}")

    @property
    def a_eff(self) -> float:
        return self.a if self.kind == ROTARY else 0.0


@dataclass(frozen=True, eq=False)
class ChainSet:
    """Chains of one length as (chains, links) float64 arrays, one per link
    constant, as the parallel modules read them; a_eff holds the prismatic rule."""

    theta: np.ndarray
    d: np.ndarray
    a_eff: np.ndarray
    alpha: np.ndarray

    @staticmethod
    def of(chains: Sequence[Sequence[DhJoint]]) -> "ChainSet":
        lengths = {len(c) for c in chains}
        if not lengths or 0 in lengths:
            raise ValueError("empty chain")
        if len(lengths) != 1:
            raise ValueError(f"need chains of one length, got lengths {sorted(lengths)}")
        rows = [[(j.theta, j.d, j.a_eff, j.alpha) for j in c] for c in chains]
        return ChainSet(*np.array(rows, dtype=np.float64).transpose(2, 0, 1))

    def __len__(self) -> int:
        return len(self.theta)


# A trig provider: theta -> (cos, sin), of the result kinds of fixedpoint.sincos_provider
SinCos = Callable


def exact_sincos(theta):
    """Double-precision (cos, sin): the oracle's trig provider.  math.cos
    and math.sin for a float, np.cos and np.sin for an ndarray."""
    # the float test first: it keeps the one-angle calls of chain_pose and
    # the VM within ~10 ns of plain math.cos/math.sin
    if type(theta) is float or not isinstance(theta, np.ndarray):
        return math.cos(theta), math.sin(theta)
    return np.cos(theta), np.sin(theta)


def _link_top(ct, st, ca, sa, a, d) -> tuple:
    """The top three rows of a link matrix, row-major, from (cos, sin) of
    theta and alpha, a_eff and d; row 3 is (0, 0, 0, 1).  Floats give one
    link's entries, arrays a stack of links' entries: both products take
    their links from these expressions."""
    return (
        ct, -ca * st, sa * st, a * ct,
        st, ca * ct, -sa * ct, a * st,
        0.0, sa, ca, d,
    )


_LINK_BOTTOM = (0.0, 0.0, 0.0, 1.0)
_ZEROS = frozen(np.zeros(16))


def tran(axis: str, t: float) -> np.ndarray:
    m = np.eye(4)
    m["xyz".index(axis), 3] = t
    return m


def rot(axis: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4)
    if axis == "z":
        m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, -s, s, c
    elif axis == "x":
        m[1, 1], m[1, 2], m[2, 1], m[2, 2] = c, -s, s, c
    else:
        raise ValueError(f"bad axis {axis!r}")
    return m


def decompose(j: DhJoint) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Four elementary factors whose product equals chain_pose([j])."""
    return (
        tran("z", j.d),
        rot("z", j.theta),
        tran("x", j.a_eff),
        rot("x", j.alpha),
    )


def finite(x, what: str):
    """x, unless some entry of it is NaN or infinite: link constants so large
    that a pose or an error leaves float64 are outside every backend's domain."""
    if np.count_nonzero(np.isfinite(x)) != np.size(x):  # half the cost of .all() on an array
        raise DomainError(f"{what} is not finite in float64")
    return x


def chain_pose(chain: Sequence[DhJoint], sincos: SinCos = exact_sincos) -> np.ndarray:
    """Left-to-right product of link transforms: the end-effector pose.

    With the default provider this is the oracle; any other provider gives
    that backend's pose through the same product.  Every link's sixteen
    entries go into one list, made one (n, 4, 4) array by np.fromiter, and
    the product runs ndarray.dot over its links[k] views: one array build
    a chain, not one a link.  dot on C-contiguous 4x4 float64 operands is
    the same dgemm as @, without the ufunc's dispatch.  Raises
    DomainError, with no warning, if the pose leaves float64.
    """
    if len(chain) == 0:
        raise ValueError("empty chain")
    flat = []
    for j in chain:
        (ct, st), (ca, sa) = sincos(j.theta), sincos(j.alpha)
        flat += _link_top(ct, st, ca, sa, j.a_eff, j.d)
        flat += _LINK_BOTTOM
    links = np.fromiter(flat, np.float64, len(flat)).reshape(len(chain), 4, 4)
    pose = links[0]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for k in range(1, len(chain)):
            pose = pose.dot(links[k])
        # a NaN or an infinity times 0.0 is NaN, a finite entry gives +-0.0:
        # one dot with zeros checks every entry, at half np.isfinite's cost
        if pose.ravel().dot(_ZEROS) != 0.0:
            raise DomainError("pose is not finite in float64")
    return pose


def _link_stack(cos, sin, a, d) -> np.ndarray:
    """Link matrices, shape (..., 4, 4), from the (cos, sin) of a stacked
    (theta, alpha), each of shape (2, ...), and a_eff and d broadcasting
    with (...): every entry of every link as one stack of _link_top
    entries, whatever the leading axes hold (chains and links, or
    providers, chains and links)."""
    (ct, ca), (st, sa) = cos, sin
    links = np.zeros(ct.shape + (4, 4))
    (
        links[..., 0, 0], links[..., 0, 1], links[..., 0, 2], links[..., 0, 3],
        links[..., 1, 0], links[..., 1, 1], links[..., 1, 2], links[..., 1, 3],
        _, links[..., 2, 1], links[..., 2, 2], links[..., 2, 3],  # [2, 0] stays np.zeros' 0.0
    ) = _link_top(ct, st, ca, sa, a, d)
    links[..., 3, 3] = 1.0
    return links


def _link_constants(chains: ChainSet) -> tuple[np.ndarray, np.ndarray]:
    """The set's (a_eff, d).  Raises DomainError if one is not finite: the
    providers check only the angles, and an infinite a_eff times a zero
    sine is NaN."""
    return finite(chains.a_eff, "link constant"), finite(chains.d, "link constant")


def provider_links(chains: ChainSet, providers: Sequence[SinCos]) -> np.ndarray:
    """The link matrices of the set under several providers at once,
    (len(providers), len(chains), n, 4, 4): each provider called once on
    the stacked (theta, alpha), and one _link_stack over all their (cos,
    sin).  Slot k has the bits of a one-provider call on providers[k].
    Raises DomainError if a link constant is not finite."""
    a_eff, d = _link_constants(chains)
    angles = np.array([chains.theta, chains.alpha])
    cos, sin = trig = np.empty((2, 2, len(providers), *angles.shape[1:]))  # (cos, sin) of (theta, alpha)
    for k, sincos in enumerate(providers):
        trig[:, :, k] = sincos(angles)
    return _link_stack(cos, sin, a_eff, d)


def chain_product(links: np.ndarray) -> np.ndarray:
    """The left-to-right product of each chain's links: (..., 4, 4) poses
    from a (..., n, 4, 4) stack, one (4, 4) pose from a bare (n, 4, 4)
    chain, link by link with a stacked matmul.  Whatever the leading axes
    hold, every 4x4 operand has the strides of a C-contiguous 4x4 float64
    array, so each step is the same dgemm as chain_pose's dot: a pose
    depends on its own chain's links alone, and has the bits of a product
    of one np.array per link at any stack size or shape.  The IEEE layer:
    a pose past float64 holds inf or nan, and its caller checks it."""
    pose = links[..., 0, :, :]
    for k in range(1, links.shape[-3]):
        pose = pose @ links[..., k, :, :]
    return pose


def chain_poses(chains: ChainSet, sincos: SinCos = exact_sincos) -> np.ndarray:
    """chain_pose of every chain of the set, as one (len(chains), 4, 4)
    array: one provider call on every theta and alpha, one _link_stack and
    one chain_product.  Each pose equals chain_pose(chain, sincos) bit for
    bit when the provider's bits on an array equal its bits angle by
    angle.  Raises DomainError, with no warning, if a link constant is not
    finite or a pose leaves float64."""
    a_eff, d = _link_constants(chains)
    with np.errstate(over="ignore", invalid="ignore"):  # finite reports it
        links = _link_stack(*sincos(np.array([chains.theta, chains.alpha])), a_eff, d)
        return finite(chain_product(links), "pose")


def pose_op_count(n_links: int, sincos_ops: int) -> int:
    """Modeled scalar ops for a full pose: two (cos, sin) pairs per link,
    6 trig-entry products, and 112 for the link's 4x4 matrix product."""
    return n_links * (2 * sincos_ops + 6 + 112)


@dataclass(frozen=True)
class PumaParams:
    """The five link constants of the six-revolute arm."""

    d2: float
    d4: float
    d6: float
    a2: float
    a3: float


def puma_chain(thetas: Sequence[float], params: PumaParams) -> list[DhJoint]:
    """Six-joint chain whose product the closed form must reproduce."""
    if len(thetas) != 6:
        raise ValueError("need six joint angles")
    t1, t2, t3, t4, t5, t6 = thetas
    return [
        DhJoint(ROTARY, t1, 0.0, 0.0, -HALF_PI),
        DhJoint(ROTARY, t2, params.d2, params.a2, 0.0),
        DhJoint(ROTARY, t3, 0.0, params.a3, HALF_PI),
        DhJoint(ROTARY, t4, params.d4, 0.0, -HALF_PI),
        DhJoint(ROTARY, t5, 0.0, 0.0, HALF_PI),
        DhJoint(ROTARY, t6, params.d6, 0.0, 0.0),
    ]


def puma_closed_form(thetas: Sequence[float], params: PumaParams) -> np.ndarray:
    """Closed-form pose of the six-revolute arm.

    Uses the compound-angle abbreviations C23 = cos(theta2 + theta3) etc.
    Must match chain_pose(puma_chain(...)) to double-precision noise.
    """
    if len(thetas) != 6:
        raise ValueError("need six joint angles")
    t1, t2, t3, t4, t5, t6 = thetas
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    c23, s23 = math.cos(t2 + t3), math.sin(t2 + t3)
    c4, s4 = math.cos(t4), math.sin(t4)
    c5, s5 = math.cos(t5), math.sin(t5)
    c6, s6 = math.cos(t6), math.sin(t6)
    d2, d4, d6, a2, a3 = params.d2, params.d4, params.d6, params.a2, params.a3

    nx = c1 * (c23 * (c4 * c5 * c6 - s4 * s6) - s23 * s5 * c6) - s1 * (s4 * c5 * c6 + c4 * s6)
    ny = s1 * (c23 * (c4 * c5 * c6 - s4 * s6) - s23 * s5 * c6) + c1 * (s4 * c5 * c6 + c4 * s6)
    nz = -s23 * (c4 * c5 * c6 - s4 * s6) - c23 * s5 * c6

    sx = c1 * (-c23 * (c4 * c5 * s6 + s4 * c6) + s23 * s5 * s6) - s1 * (-s4 * c5 * s6 + c4 * c6)
    sy = s1 * (-c23 * (c4 * c5 * s6 + s4 * c6) + s23 * s5 * s6) + c1 * (-s4 * c5 * s6 + c4 * c6)
    sz = s23 * (c4 * c5 * s6 + s4 * c6) + c23 * s5 * s6

    ax = c1 * (c23 * c4 * s5 + s23 * c5) - s1 * s4 * s5
    ay = s1 * (c23 * c4 * s5 + s23 * c5) + c1 * s4 * s5
    az = -s23 * c4 * s5 + c23 * c5

    reach = d6 * (c23 * c4 * s5 + s23 * c5) + s23 * d4 + a3 * c23 + a2 * c2
    px = c1 * reach - s1 * (d6 * s4 * s5 + d2)
    py = s1 * reach + c1 * (d6 * s4 * s5 + d2)
    pz = d6 * (c23 * c5 - s23 * c4 * s5) + c23 * d4 - a3 * s23 - a2 * s2

    return np.array([
        [nx, sx, ax, px],
        [ny, sy, ay, py],
        [nz, sz, az, pz],
        [0.0, 0.0, 0.0, 1.0],
    ])
