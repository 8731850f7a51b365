"""Reference code the tests check the package's fast paths against.

The package computes on lanes and narrows through fixedpoint.rescale; these
are the same rules one Fx at a time, plus the double-precision truncated
series the Taylor engine evaluates in fixed point and its quantized
coefficients, and the thumb VM's dispatch one FkInstr at a time.
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
