"""Reference code the tests check the package's fast paths against.

The package computes on lanes of raws and narrows through
fixedpoint.rescale; these are the same rules one Fx (a raw and its format)
at a time, plus the double-precision truncated series the Taylor engine
evaluates in fixed point and its quantized coefficients, the Taylor lanes
with every narrowing clipped, the linear CORDIC loop's closed form for any
multiplicand, the circular loop on arbitrary raws with every clip, the
quarter-turn unfold as a select and a product by each sign, the thumb
VM's dispatch one FkInstr at a time, and a CFR sign policy that replays a
fixed sequence.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from fkemu.cordic import _mirror, _sigma_pass, _stacked_steps, _unmirror
from fkemu.fixedpoint import QFormat, clip, fx_from_real, lane_dtype, rescale
from fkemu.umdh import ADD, LOADK, MUL, SINCOS, SUB, CapacityError, FkProgram, UmdhParams, VmConfig


@dataclass(frozen=True, slots=True)
class Fx:
    """A fixed-point scalar: raw integer plus its format."""

    raw: int
    fmt: QFormat

    @property
    def real(self) -> float:
        return math.ldexp(float(self.raw), -self.fmt.frac_bits)

    def __repr__(self) -> str:
        return f"Fx({self.real!r}, {self.fmt})"


def fx_quantize(v: float, fmt: QFormat) -> Fx:
    """v quantized to fmt: the raw fixedpoint.fx_from_real gives, as an Fx."""
    return Fx(fx_from_real(v, fmt), fmt)


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


# per quarter turn q, a turn by q * 90 degrees: whether x and y swap, then
# the signs they take, (x, y) -> (x, y), (-y, x), (-x, -y), (y, -x)
_ODD = np.array([False, True, False, True])
_X_SIGN = np.array([1, -1, -1, 1], dtype=np.int8)
_Y_SIGN = np.array([1, 1, -1, -1], dtype=np.int8)


def quarter_turns_ref(q, x, y):
    """fixedpoint.quarter_turns as swap-then-sign moves: an odd q selects
    the swapped operands, then each is multiplied by its quadrant's int8
    sign, so the dtype is that of x and y together."""
    odd = _ODD[q]
    return np.where(odd, y, x) * _X_SIGN[q], np.where(odd, x, y) * _Y_SIGN[q]


def forced_selection(seq):
    """A cfr_rotate sign policy replaying a fixed sigma sequence (for
    exhaustive gain enumeration)."""
    return lambda u, i: seq[i]


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


def taylor_coeffs(which: str, n_terms: int, fmt: QFormat) -> tuple[Fx, ...]:
    """The coefficients an n-term series stores, each 1/k! quantized to fmt:
    1/3!, 1/5!, ... for "sin" and 1/2!, 1/4!, ... for "cos" (the leading
    1/1! and 1 are never stored)."""
    first = {"sin": 3, "cos": 2}[which]
    return tuple(fx_quantize(1.0 / math.factorial(first + 2 * k), fmt) for k in range(n_terms - 1))


def cores_reference(t: np.ndarray, cfg) -> np.ndarray:
    """taylor._cores as the engine is specified: every narrowing through
    rescale, clip included, and a Horner step for every coefficient, zeros
    too.  t holds raws of [0, pi/4] in the lane dtype of cfg's accumulator;
    returns the (sin, cos) raws, (2, lanes)."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    frac, acc_frac = fmt.frac_bits, acc_fmt.frac_bits
    one = 1 << acc_frac
    if cfg.n_terms == 1:
        return np.stack([t, np.full(t.shape, rescale(one, acc_frac, fmt), dtype=t.dtype)])
    coeffs = np.array(
        [[fx_cast(c, acc_fmt).raw for c in taylor_coeffs(which, cfg.n_terms, fmt)] for which in ("sin", "cos")],
        dtype=t.dtype,
    )
    u = rescale(t * t, 2 * frac, fmt)
    z = rescale(t * u, 2 * frac, fmt)
    acc = coeffs[:, -1:]  # c[0] - u*(c[1] - u*(c[2] - ...)), both series at once
    for k in range(cfg.n_terms - 3, -1, -1):
        prod = rescale(u * rescale(acc, acc_frac, fmt), 2 * frac, acc_fmt)
        acc = rescale(coeffs[:, k : k + 1] - prod, acc_frac, acc_fmt)
    head = np.stack([rescale(t, frac, acc_fmt), np.full(t.shape, one, dtype=t.dtype)])  # t and 1
    prod = rescale(np.stack([z, u]) * rescale(acc, acc_frac, fmt), 2 * frac, acc_fmt)
    return rescale(rescale(head - prod, acc_frac, acc_fmt), acc_frac, fmt)  # t - z*R(u), 1 - u*S(u)


def cordic_lanes(x, y, z, cfg):
    """The circular rotation-mode loop over lanes of raws in cfg.fmt, with
    every clip; returns (x, y, z).

    x, y and z are arrays of lane_dtype(cfg.fmt), one raw per lane, and
    sigma is sign(z) with +1 on ties, driving z to zero: the output is
    K*(x0*cos z0 - y0*sin z0, y0*cos z0 + x0*sin z0, ~0) for |z0| within
    the sum of all atan(2**-i), about 1.7433.  It is the package's sigma
    pass over z, then its clipped (x, y) steps on the mirrored stack, with
    no pre-scale or quarter turn; each lane must equal cordic_step folded
    over shift indices 0..n_iter-1 in CIRCULAR mode, bit for bit.
    """
    sigmas, z = _sigma_pass(z, cfg)
    x, y = _unmirror(_stacked_steps(_mirror(x, y), sigmas.astype(x.dtype), cfg))
    return x, y, z


def linear_lanes(x, y, z, cfg):
    """The linear rotation-mode loop over lanes of raws in cfg.fmt, in
    closed form for any multiplicand x: returns y0 + x0*z0, as the loop
    leaves it in y.  cordic.linear_unit_lanes is this form summed by hand
    for the unit multiplicand x0 = 2**(frac_bits + k).

    x, y and z are arrays of lane_dtype(cfg.fmt) of one shape (..., lanes):
    the steps run along a new last axis, so a stack of rows is as many
    independent accumulates, each with the bits of a call on its row alone.

    The loop's sigmas are the non-restoring digits of z0 over the
    power-of-two micro-angles e_i = 2**(F - i), F = frac_bits.  Their sum E
    and the last nonzero one e_l make E + e_l = 2**(F+1), so with T =
    clip(z0 + 2**(F+1), 0, 2**(F+2) - 1), sigma_i = 2*bit_{F+1-i}(T) - 1.
    That is T = clip(z0 + E + e_l, 0, 2E + e_l - 1) with the top widened by
    e_l, so that the step whose micro-angle rounds to 0 (i = F + 1) reads
    bit 0, which is the sign of its residual.  Then y = clip(y0 + sum
    sigma_i*(x0 >> i)): one (..., lanes, n_iter) shift, multiply and sum.

    Each lane equals cordic_step folded over shift indices 0..n_iter-1 in
    LINEAR mode, bit for bit, provided no partial sum y0 + sum_{j<=i}
    sigma_j*(x0 >> j) saturates: the loop clips every partial sum, this
    form only the last (z never saturates in the loop).  The digits also
    need 1.0 to be a power-of-two raw, frac_bits <= word_bits - 2; a format
    without it raises ValueError.
    """
    fmt = cfg.fmt
    if fmt.frac_bits > fmt.word_bits - 2:
        raise ValueError(f"linear lanes need 1.0 as a power-of-two raw, which {fmt} lacks")
    top, shifts = 1 << (fmt.frac_bits + 1), np.arange(cfg.n_iter).astype(lane_dtype(fmt))
    t = clip(z, -top, top - 1) + top
    sigma = ((t[..., None] >> (fmt.frac_bits + 1 - shifts)) & 1) * 2 - 1
    return rescale(y + (sigma * (x[..., None] >> shifts)).sum(axis=-1), fmt.frac_bits, fmt)


# the two-operand units and what each computes: dst <- src1 op src2
_BINARY = {ADD: operator.add, SUB: operator.sub, MUL: operator.mul}


def vm_run_reference(
    prog: FkProgram, t1: float, t2: float, t3: float, t4: float, p: UmdhParams, hw: VmConfig = VmConfig()
) -> tuple[np.ndarray, int]:
    """umdh.vm_run dispatching on each FkInstr's fields, with the unit looked
    up in _BINARY per instruction; vm_run runs the program's host function
    and must equal this bit for bit, pose and cycles."""
    need = prog.max_register + 1
    if need > hw.capacity:
        raise CapacityError(
            f"program needs {need} registers, file provides {hw.capacity}"
            f"{' (half-sized)' if hw.half_sized else ''}"
        )
    pool = p.pool()
    regs = [0.0] * hw.capacity
    regs[0:4] = [t1, t2, t3, t4]
    cycles = len(prog.instrs)
    for ins in prog.instrs:
        if ins.op == LOADK:
            regs[ins.dst] = pool[ins.src1]
        elif ins.op == SINCOS:
            regs[ins.dst], regs[ins.dst + 1] = hw.sincos(regs[ins.src1])
            cycles += hw.sincos_cycles - 1
        else:
            regs[ins.dst] = _BINARY[ins.op](regs[ins.src1], regs[ins.src2])
    vals = [regs[r] for r in prog.outputs]
    pose = np.array([
        vals[0:4],
        vals[4:8],
        vals[8:12],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return pose, cycles
