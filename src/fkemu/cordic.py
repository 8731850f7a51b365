"""CORDIC iteration engine on fixed-point state, as forward kinematics uses it.

One shift-add micro-rotation per step, in rotation mode (the angle residual
z is driven to zero), in two coordinate systems selected by the mode
constant m: circular (1) rotates a vector, linear (0) accumulates y + x*z.
The circular gain K = prod sqrt(1 + 2**-2i) is never free: callers either
pre-scale by 1/K (see circ_rotate_lanes) or account for it themselves.
cordic_step is one micro-rotation of one lane's raws in either mode,
written on rescale; the tests fold it over a lane to check the kernels
below.

The emulator runs lanes: x, y and z are ndarrays holding one raw integer
per lane, each lane picks its own sigma, and a whole batch of independent
rotations advances one step per numpy operation.  Lanes are int64 for
words up to 32 bits, where every sum and the 1/K pre-scale product are
exact, and object arrays of Python ints for wider words
(fixedpoint.lane_dtype); the code is the same.  The emulated hardware runs
n_iter steps either way; the emulator skips work whose result it knows:

- sigmas depend on z alone, so a circular rotation is a sigma pass over z
  (_sigma_pass, which has no clip: a z update cannot saturate), then the
  (x, y) steps (_stacked_steps), which take their clip as an operand, so
  one loop serves the callers that need the clip and the cascade, which
  has proved it cannot fire.  circ_sigmas (fold and sigma pass) makes a
  stage plan and circ_rotate_sigmas (pre-scale, steps, quarter turns)
  runs it, so the module cascade makes one plan for all its angles, one
  lane per chain, repeats it onto the lanes each chain drives
  (_repeated_plan: the int8 sigmas repeat before their cast), and runs a
  slice of it per stage.  circ_rotate_sigmas clips unless told not
  to: circ_rotate_lanes and sincos_cordic take arbitrary raws and keep
  every clip (cos 0 saturates in a format with one integer bit), and the
  cascade runs it with none, since ccm's reach check rules every one out.
- a stage holds x and y as one 1-D mirrored stack, _mirror's
  [x_0 ... x_{L-1}, y_{L-1} ... y_0], so swapping x and y is the reversed
  view v[::-1], which numpy runs on its fast path, where a (2, lanes)
  stack's v[::-1] takes the general iterator at about twice the cost per
  call on 64 lanes.  The plan is mirrored to match: the sigma stack, and
  the quarter turns' moves as a swap mask and signs (_turn_moves, read off
  fixedpoint.quarter_turns once), with the signs and sigmas in the lane
  dtype, cast once per plan, not once per stage.
- every kernel runs its ufuncs with a positional out into arrays it
  allocated itself (the sigma pass's residuals, a stage's mirrored stack
  and its one step temporary, the closed form's clip output), so a
  circular step is three ufunc calls and no allocation, and no kernel
  writes an array its caller passed.
- linear sigmas are the binary digits of z0, and linear_accumulate's
  multiplicand is always the unit 2**(frac_bits + k), staged up as its
  argument is staged down, so linear_unit_lanes sums the loop in closed
  form with a few ufuncs per lane, exact where no partial sum saturates;
  both run on a stack of rows as on one.  The general-multiplicand form
  it is summed from is the tests' reference (tests/reference.py).

Every per-config constant (range, shifts, micro-angles, the 1/K pre-scale)
is in one table of lane-dtype arrays made once per CordicConfig
(_operands), not Python ints that numpy would convert on every call; ccm's
reach limit reads its 1/K there too.

Each lane equals a fold of cordic_step over its raws bit for bit
(linear_unit_lanes under its precondition).  sincos_cordic is the trig
provider on top: one lane per angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .fixedpoint import (
    HALF_PI,
    Q8_24,
    QFormat,
    clip,
    fold_angle,
    frozen,
    fx_from_real,
    lane_dtype,
    lanes_from_real,
    lanes_real,
    quarter_turns,
    rescale,
    sincos_provider,
)

CIRCULAR = 1
LINEAR = 0


@dataclass(frozen=True, slots=True)
class CordicConfig:
    """Iteration count and datapath format."""

    n_iter: int
    fmt: QFormat
    # the hash, stored once: every kernel call looks its constants up by config
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        # beyond frac_bits + 2 the micro-angles fall below one quantum
        if self.n_iter > self.fmt.frac_bits + 2:
            raise ValueError(f"n_iter {self.n_iter} exceeds {self.fmt} resolution")
        if self.n_iter > self.fmt.word_bits:
            raise ValueError(f"shift {self.n_iter - 1} out of range for {self.fmt}")
        object.__setattr__(self, "_hash", hash((self.n_iter, self.fmt)))

    def __hash__(self) -> int:
        return self._hash


DEFAULT_CONFIG = CordicConfig(24, Q8_24)


def gain(n_iter: int) -> float:
    """Circular norm scale factor accumulated over n_iter micro-rotations."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    k = 1.0
    for i in range(n_iter):
        k *= math.sqrt(1.0 + math.ldexp(1.0, -2 * i))
    return k


@lru_cache(maxsize=None)
def _angle_fx(mode: int, i: int, fmt: QFormat) -> int:
    """The raw of the elementary angle e_i of one micro-rotation at shift
    index i, in fmt."""
    if mode == CIRCULAR:
        return fx_from_real(math.atan(math.ldexp(1.0, -i)), fmt)
    if mode == LINEAR:
        return fx_from_real(math.ldexp(1.0, -i), fmt)
    raise ValueError(f"bad mode {mode}")


def cordic_step(x: int, y: int, z: int, i: int, mode: int, sigma: int, fmt: QFormat):
    """One micro-rotation at shift index i of the raws x, y and z in fmt:
    returns x' = x - m*s*2^-i*y, y' = y + s*2^-i*x and z' = z - s*e_i, each
    sum saturating in fmt.  It serves only the tests, which fold it over a
    lane to check the kernels, and stays in the package until perfbench's
    tracer stops reading it.

    Raises ValueError unless sigma is +-1 and i is in 0..word_bits-1.
    """
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be +-1, got {sigma}")
    if not 0 <= i < fmt.word_bits:
        raise ValueError(f"shift {i} out of range for {fmt}")
    sigma = int(sigma)  # a Python int keeps sigma * raw exact at any word width
    x_out = x if mode == LINEAR else rescale(x - sigma * (y >> i), fmt.frac_bits, fmt)
    y_out = rescale(y + sigma * (x >> i), fmt.frac_bits, fmt)
    return x_out, y_out, rescale(z - sigma * _angle_fx(mode, i, fmt), fmt.frac_bits, fmt)


class _Operands(NamedTuple):
    lo: np.ndarray  # the format's raw range
    hi: np.ndarray
    sign_shift: np.ndarray  # z >> 63 is -1 or 0: raws have at most 64 bits
    zero: np.ndarray
    one: np.ndarray
    angles: tuple  # circular micro-angle raws, one per step
    shifts: tuple  # the step index i, one per step
    top_lo: np.ndarray  # the clip bounds of z in the linear closed form, -+2**(frac_bits + 1)
    top_hi: np.ndarray
    lin_shift: np.ndarray  # frac_bits + 1 - n_iter, the linear closed form's shift less k
    inv_gain: np.ndarray  # 1/K, the circular pre-scale
    frac: np.ndarray  # frac_bits, the shift that narrows the pre-scale product


@lru_cache(maxsize=None)
def _operands(cfg: CordicConfig) -> _Operands:
    """Every per-config constant of the kernels as a read-only array of
    lane_dtype(cfg.fmt), made once per config: numpy converts a Python int
    operand on every ufunc call, which on 64 lanes costs about as much as
    the operation itself.  Keyed on the whole config, since the range, the
    micro-angles, 1/K and the number of steps all depend on it."""
    fmt, n = cfg.fmt, cfg.n_iter
    top = 1 << (fmt.frac_bits + 1)
    const = partial(frozen, dtype=lane_dtype(fmt))
    return _Operands(
        lo=const(fmt.min_raw),
        hi=const(fmt.max_raw),
        sign_shift=const(63),
        zero=const(0),
        one=const(1),
        angles=tuple(const(_angle_fx(CIRCULAR, i, fmt)) for i in range(n)),
        shifts=tuple(map(const, range(n))),
        top_lo=const(-top),
        top_hi=const(top - 1),
        lin_shift=const(fmt.frac_bits + 1 - n),
        inv_gain=const(fx_from_real(1.0 / gain(n), fmt)),
        frac=const(fmt.frac_bits),
    )


def _mirror(x, y):
    """x and y, each of shape (..., lanes), as one mirrored lane stack of
    shape (..., 2*lanes): [x_0 ... x_{L-1}, y_{L-1} ... y_0].  Its reversal
    v[..., ::-1] holds y where v holds x and x where v holds y, lane for
    lane."""
    return np.concatenate([x, y[..., ::-1]], axis=-1)


def _unmirror(v):
    """The x and y of a mirrored lane stack v, each of shape (..., lanes),
    in lane order."""
    lanes = v.shape[-1] // 2
    return v[..., :lanes], v[..., lanes:][..., ::-1]


# per quarter turn q, read off quarter_turns' image of (1, 2): whether x
# and y swap, then the signs they take; int8, so gathers stay small
_TURNED = quarter_turns(np.arange(4), 1, 2)
_SWAP = abs(_TURNED[0]) == 2
_X_SIGN, _Y_SIGN = np.sign(_TURNED).astype(np.int8)


def _turn_moves(q, dtype):
    """quarter_turns' moves for an int array q of shape (..., lanes), for
    (x, y) as a mirrored stack v = _mirror(x, y): the swap mask (bool) and
    the signs (of dtype), both mirrored, of shape (..., 2*lanes).
    np.where(swap, v[::-1], v) * signs is _mirror(*quarter_turns(q, x, y))
    for a q of shape (lanes,)."""
    swap = _SWAP[q]
    return _mirror(swap, swap), _mirror(_X_SIGN[q], _Y_SIGN[q]).astype(dtype)


def _sigma_pass(z, cfg: CordicConfig):
    """The circular z pass over raw residuals z, shape (..., lanes): returns
    the signed sigma stack, int8 of shape (..., n_iter, 2*lanes) holding
    _mirror(-sigma_i, +sigma_i) at step i (-sigma by lane, then +sigma in
    reversed lane order: the signs of x's and y's updates in a mirrored
    (x, y) stack), and the final residuals.

    sigma_i is sign(z_i) with +1 on ties, driving z to zero.  z never reads
    x or y, so every sigma is known before the first (x, y) step.  No z
    update can saturate, from any raw in the format: z >= 0 goes to
    z - e_i >= -e_i and z < 0 to z + e_i < e_i, and e_i is a raw of the
    format, so the pass has no clip to run.
    """
    ops = _operands(cfg)
    sigmas = np.empty(z.shape[:-1] + (cfg.n_iter, z.shape[-1]), dtype=np.int8)
    # the pass's own residuals and sigma row, which every ufunc writes in place
    z, s = z.copy(), np.empty_like(z)
    sign, one = ops.sign_shift, ops.one
    shift, bit_or, mul, sub = np.right_shift, np.bitwise_or, np.multiply, np.subtract
    for i, e in enumerate(ops.angles):
        shift(z, sign, s)
        bit_or(s, one, s)
        sigmas[..., i, :] = s
        mul(s, e, s)
        sub(z, s, z)
    return _mirror(-sigmas, sigmas), z


def _stacked_steps(v, sigmas, cfg: CordicConfig, saturate: bool = True):
    """The circular (x, y) steps, in place on v = _mirror(x, y), shape
    (2*lanes,), an array its caller owns, driven by a signed sigma stack of
    _sigma_pass in v's dtype: x' = x - s*(y >> i) and y' = y + s*(x >> i),
    as one shift of the reversed view v[::-1] (y where v holds x, x where v
    holds y) into a temporary of the stage, one multiply and one add per
    step, and a clip unless saturate is False, which a caller may pass only
    where it has proved that no step leaves the format.  Returns v.

    Every ufunc writes its output as a positional argument: on 128 values
    the keyword out= costs more than the allocation it saves, and the
    positional form less.  The shift reads all of v before the add writes
    any of it, so the view and the update never overlap."""
    # bare clip, not rescale: a call per step would cost more than the clip on 64 lanes
    ops = _operands(cfg)
    lo, hi, shift, mul, add = ops.lo, ops.hi, np.right_shift, np.multiply, np.add
    r, t = v[::-1], np.empty_like(v)
    for s, i in zip(sigmas, ops.shifts):
        shift(r, i, t)
        mul(t, s, t)
        add(v, t, v)
        if saturate:
            clip(v, lo, hi, v)
    return v


def linear_unit_lanes(y, z, k, cfg: CordicConfig):
    """The linear rotation-mode loop over lanes of raws in cfg.fmt on the
    unit multiplicand staged up by 2**k, x0 = 2**(F + k) with F = frac_bits,
    in closed form: returns y0 + x0*z0, as the loop leaves it in y.

    y and z are arrays of lane_dtype(cfg.fmt), of one shape, and k an
    int64 array broadcasting with them, k >= 0 and F + k <= word_bits - 2
    (x0 a raw of the format); every operation is per element, so a stack
    of rows is as many independent accumulates.

    The loop's sigmas are the non-restoring digits of z0 over the
    power-of-two micro-angles e_i = 2**(F - i).  Their sum E and the last
    nonzero one e_l make E + e_l = 2**(F+1), so with T = clip(z0 +
    2**(F+1), 0, 2**(F+2) - 1), sigma_i = 2*bit_{F+1-i}(T) - 1.  That is
    T = clip(z0 + E + e_l, 0, 2E + e_l - 1) with the top widened by e_l, so
    that the step whose micro-angle rounds to 0 (i = F + 1) reads bit 0,
    which is the sign of its residual.  Step i adds sigma_i*(x0 >> i) =
    sigma_i*2**(F + k - i), nonzero up to i = F + k, so the sum over the
    steps i = 0..m, m = min(n_iter - 1, F + k), telescopes: with z_c =
    clip(z0, -2**(F+1), 2**(F+1) - 1) and lo = F + 1 - m = max(F + 2 -
    n_iter, 1 - k), it is ((z_c >> lo) << (lo + k)) + 2**(lo + k - 1),
    which is (((z_c << k) >> e) | 1) << e for e = lo + k - 1 >= 0.  lo
    depends on k only at n_iter = F + 2.  Then y = clip(y0 + sum).

    Each lane equals cordic_step folded over shift indices 0..n_iter-1 in
    LINEAR mode from (x0, y0, z0), bit for bit, provided no partial sum
    y0 + sum_{j<=i} sigma_j*(x0 >> j) saturates: the loop clips every
    partial sum, this form only the last (z never saturates in the loop).
    The digits also need 1.0 to be a power-of-two raw, frac_bits <=
    word_bits - 2; a format without it raises ValueError.
    """
    if cfg.fmt.frac_bits > cfg.fmt.word_bits - 2:
        raise ValueError(f"linear lanes need 1.0 as a power-of-two raw, which {cfg.fmt} lacks")
    ops = _operands(cfg)
    e = np.maximum(k + ops.lin_shift, ops.zero)
    s = clip(z, ops.top_lo, ops.top_hi)  # a fresh array: the rest runs in place on it
    np.left_shift(s, k, s)
    np.right_shift(s, e, s)
    np.bitwise_or(s, ops.one, s)
    np.left_shift(s, e, s)
    np.add(y, s, s)
    return clip(s, ops.lo, ops.hi, s)


# k = 0 on every lane, as one 0-d int64 array that broadcasts
_UNSTAGED = frozen(0, np.int64)


def linear_accumulate(const, value, cfg: CordicConfig):
    """Linear-mode CORDIC add on lanes of raws in cfg.fmt, of any shape
    (..., lanes): returns const + value (ccm's LIN1 and LIN2 processors,
    one per row of a stack).

    Linear mode only converges for |z0| <= 2, so larger arguments are
    staged down by an exact power of two 2**k, chosen per lane, while the
    unit multiplicand is staged up by the same factor (y accumulates x0 * z0
    either way).  k stops at linear_unit_lanes' bound word_bits - frac_bits
    - 2, where every raw of the format is staged within 2.  The n_iter
    shift-add steps on the unit 2**(frac_bits + k) run in linear_unit_lanes'
    closed form, which equals the clipping loop bit for bit where no
    partial sum saturates: ccm's reach check proves that on every lane it
    passes (ccm._module's proof).

    One test decides whether any lane stages at all: a raw's double
    rounds monotonically, so the largest |raw|'s double is the largest
    |double| of a raw.  With no lane past 2.0, k is the 0-d _UNSTAGED and
    no staging array is made.
    """
    fmt = cfg.fmt
    k_max = fmt.word_bits - fmt.frac_bits - 2
    two = math.ldexp(2.0, fmt.frac_bits)  # |v.real| > 2.0 on the raw's double
    if k_max <= 0 or not float(np.abs(value).max()) > two:
        return linear_unit_lanes(const, value, _UNSTAGED, cfg)

    def too_big(v, k):
        return (np.abs(v.astype(np.float64)) > two) & (k < k_max)

    k = np.zeros(value.shape, dtype=np.int64)
    v = value
    big = too_big(v, k)
    while big.any():
        k = k + big
        v = value >> k
        big = too_big(v, k)
    return linear_unit_lanes(const, v, k, cfg)


def _repeated_plan(angle: np.ndarray, cfg: CordicConfig, reps: int):
    """circ_sigmas(angle.repeat(reps, axis=-1), cfg), the stage plan with
    every lane of angle repeated on reps adjacent lanes, from one fold and
    one sigma pass over angle's own lanes.

    Every operation of the plan is per angle, and _mirror commutes with a
    per-lane repeat (reversed, a sequence whose elements each appear reps
    times in a row is the reversal with each element repeated), so the
    plan of the repeated lanes is the plan repeated along its last axis.
    The quarter turns repeat before their moves are read, and the int8
    sigma stack before its cast, so the one copy at the repeated size is
    the cast itself.
    """
    q, r = fold_angle(np.abs(angle))
    up = r > HALF_PI / 2
    q, r = q + up, np.where(up, r - HALF_PI, r)
    neg = angle < 0
    q, r = np.where(neg, -q, q) & 3, np.where(neg, -r, r)
    sigmas, _ = _sigma_pass(lanes_from_real(r, cfg.fmt), cfg)
    if reps > 1:
        q, sigmas = q.repeat(reps, axis=-1), sigmas.repeat(reps, axis=-1)
    dtype = lane_dtype(cfg.fmt)
    return *_turn_moves(q, dtype), sigmas.astype(dtype)


def circ_sigmas(angle: np.ndarray, cfg: CordicConfig):
    """The stage plan of float64 angles within +-MAX_ANGLE, of any shape
    (..., lanes), as circ_rotate_sigmas runs it: (swap, signs, sigmas),
    the quarter turns' moves (_turn_moves), (..., 2*lanes), and the signed
    sigma stack of the folded residuals (_sigma_pass), (..., n_iter,
    2*lanes), all mirrored, with signs and sigmas of lane_dtype(cfg.fmt).
    Every operation is per angle, so the plan of a stack of angles, sliced
    at a row, is the plan of that row alone.

    |angle| folds to a residual in [-pi/4, pi/4] plus a whole number of
    quarter turns, and one z pass over every residual gives every sigma.
    Raises DomainError if any |angle| exceeds MAX_ANGLE or is not finite.
    """
    return _repeated_plan(angle, cfg, 1)


def circ_rotate_sigmas(x, y, swap, signs, sigmas, cfg: CordicConfig, saturate: bool = True):
    """The back of circ_rotate_lanes: raws x and y in cfg.fmt, shape
    (lanes,), rotated by one stage plan of circ_sigmas, whose mirrored
    lanes are 2*lanes; returns the rotated raws (x, y).

    Pre-scales the vector by 1/K, steps it, then applies the quarter turns
    as exact swap and sign moves, all on (x, y) as one mirrored stack,
    saturating after the pre-scale, each step and the turns.
    saturate=False leaves out every clip, for a caller that has proved no
    value leaves the format; the bits are then the same.  The module
    cascade is that caller: every one of its stages runs with no clip, on
    lanes that ccm's reach check passed.
    """
    ops = _operands(cfg)
    # the product is the stage's own array, in the dtype x, y and 1/K promote
    # to; every later step writes into it or into the np.where result
    v = np.multiply(_mirror(x, y), ops.inv_gain)
    np.right_shift(v, ops.frac, v)
    if saturate:
        clip(v, ops.lo, ops.hi, v)
    _stacked_steps(v, sigmas, cfg, saturate)
    v = np.where(swap, v[::-1], v)
    np.multiply(v, signs, v)
    if saturate:
        clip(v, ops.lo, ops.hi, v)
    return _unmirror(v)


def circ_rotate_lanes(x, y, angle: np.ndarray, cfg: CordicConfig):
    """Gain-compensated plane rotation of every lane: raws x, y in cfg.fmt
    and a float64 angle within +-MAX_ANGLE per lane; returns the rotated
    raws (x, y).

    circ_sigmas (fold and sigma pass), then circ_rotate_sigmas (pre-scale
    by 1/K, steps, quarter turns) with every clip.  This is the circular
    building block behind sin/cos generation and every link-rotation
    stage; the cascade calls its two halves itself, so one sigma pass
    serves all links.

    Odd symmetry holds only within sincos_tolerance, not bit for bit: the
    shift-add steps truncate toward -inf, so a rotation by -z is not the
    mirror image of one by z.  Raises DomainError if any |angle| exceeds
    MAX_ANGLE or is not finite.
    """
    return circ_rotate_sigmas(x, y, *circ_sigmas(angle, cfg), cfg)


@sincos_provider
def sincos_cordic(theta, cfg: CordicConfig = DEFAULT_CONFIG):
    """(cos, sin) of flat angles within +-MAX_ANGLE, gain pre-compensated.

    Each angle is one lane of circ_rotate_lanes rotating (1, 0); each value
    is its raw in cfg.fmt times 2**-frac_bits (lanes_real), so a zero sine
    is +0.0 for either sign of theta.  Raises DomainError if any angle is
    beyond MAX_ANGLE or not finite.
    """
    one = np.array([fx_from_real(1.0, cfg.fmt)], dtype=lane_dtype(cfg.fmt)).repeat(theta.size)
    xr, yr = circ_rotate_lanes(one, np.zeros(theta.size, dtype=one.dtype), theta, cfg)
    return lanes_real(xr, cfg.fmt), lanes_real(yr, cfg.fmt)


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
