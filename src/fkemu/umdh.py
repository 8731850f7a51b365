"""Four-joint thumb forward kinematics and a micro-coded FK-processor VM.

The pose matrix has twelve non-constant entries (the top three rows).
Both schedules of them are FkPrograms, checked and translated into one
host function when built, and counted by arith_ops: umdh_t04_naive's
(57 ops) evaluates each entry on its own, umdh_program's (24 ops) shares
the compound angles t2+t3 and t2+t3+t4, the four sin/cos pairs and the
reach term.  An op is any instruction but LOADK: a fused (cos, sin) pair,
an add, a subtract or a multiply; a negation is a SUB from the zero
register r9.

The VM is single-issue: one functional-unit dispatch per cycle, with a
configurable cycle cost for the cosine/sine unit, whose arithmetic is any
trig provider (exact by default).  SINCOS writes cos to dst and sin to
dst+1.  Registers r0..r3 hold the four joint angles at entry; the constant
pool holds the five loaded constants plus 0.0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dh import DhJoint, ROTARY, SinCos, exact_sincos
from .fixedpoint import HALF_PI


class CapacityError(RuntimeError):
    """Program needs more registers than the configured file provides."""


@dataclass(frozen=True)
class UmdhParams:
    """The five constants loaded before execution."""

    a0: float
    a1: float
    a2: float
    a3: float
    d1: float

    def pool(self) -> tuple[float, ...]:
        return (self.a0, self.a1, self.a2, self.a3, self.d1, 0.0)


LOADK = "LOADK"
SINCOS = "SINCOS"
ADD = "ADD"
SUB = "SUB"
MUL = "MUL"

# the two-operand units and the Python operator each translates to: dst <- src1 op src2
_INFIX = {ADD: "+", SUB: "-", MUL: "*"}


def _ints(values, where) -> tuple[int, ...]:
    """values as ints (operator.index), the only numbers a host function's
    source spells; ValueError for one that is not an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"non-integer register or slot number in {where}") from None


_POOL_SLOTS = len(UmdhParams(0.0, 0.0, 0.0, 0.0, 0.0).pool())


@dataclass(frozen=True)
class FkInstr:
    """LOADK dst k(src1), SINCOS dst src1, or an _INFIX unit dst src1 src2.

    The register and slot numbers are stored as ints (operator.index).
    Raises ValueError for an unknown opcode, an operand that is not an
    integer or is negative, or a LOADK slot outside the constant pool.
    """

    op: str
    dst: int
    src1: int = 0
    src2: int = 0

    def __post_init__(self) -> None:
        if self.op not in (LOADK, SINCOS) and self.op not in _INFIX:
            raise ValueError(f"bad opcode {self.op!r}")
        for name, value in zip(("dst", "src1", "src2"), _ints((self.dst, self.src1, self.src2), self)):
            object.__setattr__(self, name, value)
        if min(self.dst, self.src1, self.src2) < 0:
            raise ValueError(f"negative operand in {self}")
        if self.op == LOADK and self.src1 >= _POOL_SLOTS:
            raise ValueError(f"LOADK slot k{self.src1} outside the {_POOL_SLOTS}-entry pool")

    def text(self) -> str:
        if self.op == LOADK:
            return f"LOADK r{self.dst} k{self.src1}"
        if self.op == SINCOS:
            return f"SINCOS r{self.dst} r{self.src1}"
        return f"{self.op} r{self.dst} r{self.src1} r{self.src2}"

    def statement(self) -> str:
        """The instruction as one Python statement on register locals."""
        if self.op == LOADK:
            return f"r{self.dst} = pool[{self.src1}]"
        if self.op == SINCOS:
            return f"r{self.dst}, r{self.dst + 1} = sincos(r{self.src1})"
        return f"r{self.dst} = r{self.src1} {_INFIX[self.op]} r{self.src2}"


@dataclass(frozen=True)
class FkProgram:
    """Straight-line instruction sequence plus the output register map.

    outputs lists twelve register ids, row-major over the top three rows
    of the pose matrix.  One pass at construction raises ValueError for a
    read of a register that is neither an angle register nor written
    earlier, and for outputs that are not twelve written registers.  It
    stores arith_ops (every instruction but LOADK), max_register (the
    highest register written, at least r3), sincos_count, and host: the
    program as one Python function, host(r0, r1, r2, r3, pool, sincos),
    made by exec from the checked instructions' statements, returning the
    sixteen pose entries as a list.  Each statement is its instruction's
    operation on its operands, in program order, so host has the bits of
    dispatching the instructions one at a time.  The four are derived, so
    equality, hash and repr see instrs and outputs only.
    """

    instrs: tuple[FkInstr, ...]
    outputs: tuple[int, ...]
    arith_ops: int = field(init=False, repr=False, compare=False)
    max_register: int = field(init=False, repr=False, compare=False)
    sincos_count: int = field(init=False, repr=False, compare=False)
    host: Callable[..., list] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        written = {0, 1, 2, 3}  # r0..r3 carry the angles
        for ins in self.instrs:
            reads = () if ins.op == LOADK else (ins.src1,) if ins.op == SINCOS else (ins.src1, ins.src2)
            for r in reads:
                if r not in written:
                    raise ValueError(f"{ins.text()} reads r{r}, which no earlier instruction wrote")
            written.update((ins.dst, ins.dst + 1) if ins.op == SINCOS else (ins.dst,))
        outputs = _ints(self.outputs, "outputs")
        if len(outputs) != 12 or not written.issuperset(outputs):
            raise ValueError(f"outputs must be 12 written registers, got {self.outputs}")
        ops = [ins.op for ins in self.instrs]
        object.__setattr__(self, "arith_ops", len(ops) - ops.count(LOADK))
        object.__setattr__(self, "max_register", max(written))
        object.__setattr__(self, "sincos_count", ops.count(SINCOS))
        source = "\n    ".join([
            "def host(r0, r1, r2, r3, pool, sincos):",
            *(ins.statement() for ins in self.instrs),
            f"return [{', '.join(f'r{r}' for r in outputs)}, 0.0, 0.0, 0.0, 1.0]",
        ])
        namespace: dict = {}
        exec(source, namespace)
        object.__setattr__(self, "host", namespace["host"])

    def __reduce__(self):
        # pickle has no name to find an exec-made function by: a copy is translated anew
        return FkProgram, (self.instrs, self.outputs)

    def to_text(self) -> str:
        lines = ["# four-joint thumb pose, straight-line schedule"]
        lines += [ins.text() for ins in self.instrs]
        lines.append("# outputs " + " ".join(f"r{r}" for r in self.outputs))
        return "\n".join(lines) + "\n"


REGISTERS = 32  # full-sized register file; half_sized halves it


@dataclass(frozen=True)
class VmConfig:
    half_sized: bool = False
    sincos_cycles: int = 1
    sincos: SinCos = exact_sincos

    def __post_init__(self) -> None:
        if self.sincos_cycles < 1:
            raise ValueError(f"sincos_cycles must be >= 1, got {self.sincos_cycles}")

    @property
    def capacity(self) -> int:
        return REGISTERS // 2 if self.half_sized else REGISTERS


def _naive_program() -> FkProgram:
    """umdh_t04_naive's schedule, 57 arithmetic ops in 63 instructions: each
    entry re-evaluates its own SINCOS pairs and compound angles, in scratch
    registers r24..r31; trig(24, 0) leaves c1, s1 in r24, r25 and
    trig(26, 1, 2, 3) c234, s234 in r26, r27."""
    instrs = [FkInstr(LOADK, 4 + slot, slot) for slot in range(6)]

    def emit(op: str, dst: int, src1: int = 0, src2: int = 0) -> int:
        instrs.append(FkInstr(op, dst, src1, src2))
        return dst

    def trig(dst: int, total: int, *more: int) -> int:  # SINCOS of the angles' sum, summed in dst
        for angle in more:
            total = emit(ADD, dst, total, angle)
        return emit(SINCOS, dst, total)

    def reach(dst: int, factor: int) -> int:  # factor * (a1 + a2*c2 + a3*c23)
        c2, c23 = trig(26, 1), trig(28, 1, 2)
        inner = emit(ADD, 30, 5, emit(MUL, 30, 6, c2))
        return emit(MUL, dst, factor, emit(ADD, 30, inner, emit(MUL, 31, 7, c23)))

    def height(dst: int) -> int:  # a2*s2 + a3*s23 + d1
        s2, s23 = trig(24, 1) + 1, trig(26, 1, 2) + 1
        return emit(ADD, dst, emit(ADD, dst, emit(MUL, 28, 6, s2), emit(MUL, 29, 7, s23)), 8)

    outputs = (
        emit(MUL, 10, trig(24, 0), trig(26, 1, 2, 3)),                          # c1*c234
        emit(SUB, 11, 9, emit(MUL, 11, trig(24, 0), trig(26, 1, 2, 3) + 1)),    # -c1*s234
        trig(12, 0) + 1,                                                        # s1
        emit(ADD, 14, 4, reach(14, trig(24, 0))),                               # a0 + c1*reach
        emit(MUL, 15, trig(24, 0) + 1, trig(26, 1, 2, 3)),                      # s1*c234
        emit(SUB, 16, 9, emit(MUL, 16, trig(24, 0) + 1, trig(26, 1, 2, 3) + 1)),  # -s1*s234
        emit(SUB, 17, 9, trig(24, 0)),                                          # -c1
        reach(18, trig(24, 0) + 1),                                             # s1*reach
        trig(19, 1, 2, 3) + 1,                                                  # s234
        trig(21, 1, 2, 3),                                                      # c234
        9,                                                                      # 0.0
        height(23),
    )
    return FkProgram(tuple(instrs), outputs)


_NAIVE = _naive_program()


def umdh_t04_naive(t1: float, t2: float, t3: float, t4: float, p: UmdhParams) -> tuple[np.ndarray, int]:
    """Per-entry evaluation with no term sharing: the per-entry program run
    with exact trig; returns (pose, its arithmetic-op count)."""
    return np.array(_NAIVE.host(t1, t2, t3, t4, p.pool(), exact_sincos)).reshape(4, 4), _NAIVE.arith_ops


def umdh_program(p: UmdhParams) -> FkProgram:
    """Shared-term schedule: 24 arithmetic ops in 30 instructions.

    Emission is value-independent; the params bind at run time through
    the constant pool.
    """
    del p  # constants bind by slot at execution
    k = [FkInstr(LOADK, 4 + slot, slot) for slot in range(6)]
    body = [
        FkInstr(ADD, 10, 1, 2),      # t23
        FkInstr(ADD, 11, 10, 3),     # t234
        FkInstr(SINCOS, 12, 0),      # c1/s1
        FkInstr(SINCOS, 14, 1),      # c2/s2
        FkInstr(SINCOS, 16, 10),     # c23/s23
        FkInstr(SINCOS, 18, 11),     # c234/s234
        FkInstr(MUL, 20, 12, 18),    # c1*c234
        FkInstr(MUL, 21, 12, 19),
        FkInstr(SUB, 21, 9, 21),     # -c1*s234
        FkInstr(MUL, 22, 13, 18),    # s1*c234
        FkInstr(MUL, 23, 13, 19),
        FkInstr(SUB, 23, 9, 23),     # -s1*s234
        FkInstr(SUB, 24, 9, 12),     # -c1
        FkInstr(MUL, 25, 6, 14),     # a2*c2
        FkInstr(MUL, 26, 7, 16),     # a3*c23
        FkInstr(ADD, 27, 5, 25),
        FkInstr(ADD, 27, 27, 26),    # reach = a1 + a2*c2 + a3*c23
        FkInstr(MUL, 28, 12, 27),
        FkInstr(ADD, 28, 4, 28),     # a0 + c1*reach
        FkInstr(MUL, 29, 13, 27),    # s1*reach
        FkInstr(MUL, 25, 6, 15),     # a2*s2 (register reuse)
        FkInstr(MUL, 26, 7, 17),     # a3*s23
        FkInstr(ADD, 30, 25, 26),
        FkInstr(ADD, 30, 30, 8),     # a2*s2 + a3*s23 + d1
    ]
    outputs = (20, 21, 13, 28, 22, 23, 24, 29, 19, 18, 9, 30)
    return FkProgram(tuple(k + body), outputs)


def vm_run(
    prog: FkProgram, t1: float, t2: float, t3: float, t4: float, p: UmdhParams, hw: VmConfig = VmConfig()
) -> tuple[np.ndarray, int]:
    """Execute a program: one call of its host function; returns (pose,
    cycles), one cycle per instruction plus sincos_cycles - 1 more per
    SINCOS, the count of a single-issue machine."""
    need = prog.max_register + 1
    if need > hw.capacity:
        raise CapacityError(
            f"program needs {need} registers, file provides {hw.capacity}"
            f"{' (half-sized)' if hw.half_sized else ''}"
        )
    pose = np.array(prog.host(t1, t2, t3, t4, p.pool(), hw.sincos)).reshape(4, 4)
    return pose, len(prog.instrs) + prog.sincos_count * (hw.sincos_cycles - 1)


def clock_time(cycles: int, f_mhz: float = 10.3) -> float:
    """Microseconds for a cycle count at the given clock."""
    if cycles < 0:
        raise ValueError("cycles must be >= 0")
    if not 0 < f_mhz < math.inf:
        raise ValueError(f"clock must be finite and > 0 MHz, got {f_mhz}")
    return cycles / f_mhz


def umdh_chain(t1: float, t2: float, t3: float, t4: float, p: UmdhParams) -> list[DhJoint]:
    """DH chain reproducing the closed-form pose: a fixed base offset of a0
    along x, then theta1 with a half-turn twist, then three planar joints."""
    return [
        DhJoint(ROTARY, 0.0, 0.0, p.a0, 0.0),
        DhJoint(ROTARY, t1, p.d1, p.a1, HALF_PI),
        DhJoint(ROTARY, t2, 0.0, p.a2, 0.0),
        DhJoint(ROTARY, t3, 0.0, p.a3, 0.0),
        DhJoint(ROTARY, t4, 0.0, 0.0, 0.0),
    ]
