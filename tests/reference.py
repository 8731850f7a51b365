"""Reference code the tests check the package's fast paths against.

The package computes on lanes and narrows through fixedpoint.rescale; these
are the same rules one Fx at a time, plus the double-precision truncated
series the Taylor engine evaluates in fixed point and its quantized
coefficients, the Taylor lanes with every narrowing clipped, and the thumb
VM's dispatch one FkInstr at a time.
"""

import math

import numpy as np

from fkemu.fixedpoint import Fx, QFormat, fx_from_real, rescale
from fkemu.umdh import _BINARY, LOADK, SINCOS, CapacityError, FkProgram, UmdhParams, VmConfig


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
    return tuple(fx_from_real(1.0 / math.factorial(first + 2 * k), fmt) for k in range(n_terms - 1))


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


def vm_run_reference(
    prog: FkProgram, t1: float, t2: float, t3: float, t4: float, p: UmdhParams, hw: VmConfig = VmConfig()
) -> tuple[np.ndarray, int]:
    """umdh.vm_run dispatching on each FkInstr's fields, with the unit looked
    up in _BINARY per instruction; vm_run runs prog.decoded and must equal
    this bit for bit, pose and cycles."""
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
