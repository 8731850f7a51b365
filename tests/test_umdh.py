import dataclasses
import math
import pickle
import random
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fkemu import umdh
from fkemu.cordic import sincos_cordic
from fkemu.dh import chain_pose, exact_sincos
from fkemu.lut import build_table, lut_sincos
from fkemu.taylor import taylor_sincos
from fkemu.umdh import (
    ADD,
    CapacityError,
    FkInstr,
    FkProgram,
    LOADK,
    MUL,
    SINCOS,
    SUB,
    UmdhParams,
    VmConfig,
    clock_time,
    umdh_chain,
    umdh_program,
    umdh_t04_naive,
    vm_run,
)
from reference import vm_run_reference

P = UmdhParams(a0=0.05, a1=0.04, a2=0.03, a3=0.025, d1=0.02)
PROG = umdh_program(P)


def test_naive_zero_angles():
    pose, _ = umdh_t04_naive(0, 0, 0, 0, P)
    want = np.array([
        [1, 0, 0, P.a0 + P.a1 + P.a2 + P.a3],
        [0, 0, -1, 0],
        [0, 1, 0, P.d1],
        [0, 0, 0, 1.0],
    ])
    assert np.abs(pose - want).max() < 1e-15


def test_naive_quarter_turn_base():
    pose, _ = umdh_t04_naive(math.pi / 2, 0, 0, 0, P)
    assert np.allclose(pose[0], [0, 0, 1, P.a0], atol=1e-15)
    assert np.allclose(pose[1], [1, 0, 0, P.a1 + P.a2 + P.a3], atol=1e-15)


def test_naive_operation_count_is_57():
    _, ops = umdh_t04_naive(0.3, -0.8, 1.1, 0.5, P)
    assert ops == 57


def test_naive_matches_chain_oracle():
    rng = random.Random(71)
    for _ in range(300):
        ts = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
        pose, _ = umdh_t04_naive(*ts, P)
        oracle = chain_pose(umdh_chain(*ts, P))
        assert np.abs(pose - oracle).max() < 1e-12


def test_program_facts_pinned():
    assert PROG.max_register == 30
    assert PROG.arith_ops == 24


def test_program_counts():
    naive_ops = umdh_t04_naive(0.1, 0.2, 0.3, 0.4, P)[1]
    assert PROG.arith_ops <= 28
    assert len(PROG.instrs) <= 45
    assert 1 - PROG.arith_ops / naive_ops >= 0.50


def test_program_reads_follow_writes():
    written = {0, 1, 2, 3}  # angle registers are preloaded
    for ins in PROG.instrs:
        if ins.op in (ADD, SUB, MUL):
            assert ins.src1 in written and ins.src2 in written
        elif ins.op == SINCOS:
            assert ins.src1 in written
        if ins.op == SINCOS:
            written.add(ins.dst)
            written.add(ins.dst + 1)
        else:
            written.add(ins.dst)
    for reg in PROG.outputs:
        assert reg in written
    assert len(PROG.outputs) == 12


@pytest.mark.parametrize("op, dst, src1, src2", [
    ("DIV", 20, 1, 2),      # no such unit
    (LOADK, 4, 9, 0),       # the pool has six slots
    (LOADK, 4, 6, 0),
    (SINCOS, -1, 2, 0),     # would write regs[-1] and regs[0]
    (ADD, 20, 1, -2),
    (ADD, 20, 1.5, 2),      # a register number is an integer
])
def test_bad_instruction_rejected_when_built(op, dst, src1, src2):
    with pytest.raises(ValueError):
        FkInstr(op, dst, src1, src2)


def test_register_numbers_are_stored_as_ints():
    # the host function's source spells them: an integer type becomes an int
    ins = FkInstr(ADD, np.int64(20), np.int32(1), 2)
    assert ins == FkInstr(ADD, 20, 1, 2)
    assert type(ins.dst) is type(ins.src1) is int and ins.statement() == "r20 = r1 + r2"


def test_read_before_write_rejected_when_built():
    # r31 is never written: at run time it would read the file's initial 0.0
    with pytest.raises(ValueError, match="r31"):
        FkProgram(PROG.instrs + (FkInstr(ADD, 20, 31, 31),), PROG.outputs)
    # the instruction that writes r10 comes after the one that reads it
    swapped = PROG.instrs[:6] + (PROG.instrs[7], PROG.instrs[6]) + PROG.instrs[8:]
    with pytest.raises(ValueError, match="r10"):
        FkProgram(swapped, PROG.outputs)


@pytest.mark.parametrize("outputs", [
    PROG.outputs[:11],
    PROG.outputs + (30,),
    PROG.outputs[:11] + (31,),  # r31 is never written
    PROG.outputs[:11] + (30.0,),  # a register number is an integer
])
def test_outputs_must_be_twelve_written_registers(outputs):
    with pytest.raises(ValueError, match="outputs"):
        FkProgram(PROG.instrs, outputs)


def test_program_equality_ignores_derived_facts():
    again = FkProgram(PROG.instrs, PROG.outputs)
    assert again == PROG and hash(again) == hash(PROG)
    assert repr(again) == f"FkProgram(instrs={PROG.instrs!r}, outputs={PROG.outputs!r})"
    seen = {f.name for f in dataclasses.fields(FkProgram) if f.compare or f.repr or f.init}
    assert seen == {"instrs", "outputs"}
    assert PROG.sincos_count == sum(ins.op == SINCOS for ins in PROG.instrs) == 4
    assert again.host is not PROG.host  # each program translated when built
    copied, ts = pickle.loads(pickle.dumps(PROG)), (0.1, 0.2, 0.3, 0.4)
    assert copied == PROG and vm_run(copied, *ts, P)[0].tobytes() == vm_run(PROG, *ts, P)[0].tobytes()


@st.composite
def straight_line_programs(draw):
    """A valid FkProgram: every read follows a write, every opcode can
    appear, and the highest register may or may not fit a half-sized file."""
    top = draw(st.integers(4, 31))
    written = [0, 1, 2, 3]
    instrs = []
    for _ in range(draw(st.integers(1, 40))):
        op = draw(st.sampled_from([LOADK, SINCOS, ADD, SUB, MUL]))
        dst = draw(st.integers(0, top))
        if op == LOADK:
            ins = FkInstr(op, dst, draw(st.integers(0, 5)))
        elif op == SINCOS:
            ins = FkInstr(op, dst, draw(st.sampled_from(written)))
        else:
            ins = FkInstr(op, dst, draw(st.sampled_from(written)), draw(st.sampled_from(written)))
        instrs.append(ins)
        written = sorted({*written, dst, dst + 1} if op == SINCOS else {*written, dst})
    outputs = tuple(draw(st.lists(st.sampled_from(written), min_size=12, max_size=12)))
    return FkProgram(tuple(instrs), outputs)


def _outcome(run, *args):
    try:
        pose, cycles = run(*args)
    except (CapacityError, ValueError) as e:  # a full file; math.cos(inf) or a Taylor DomainError
        return type(e), str(e)
    return pose.shape, pose.tobytes(), cycles


angle = st.floats(-math.pi, math.pi)
length = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@example(prog=umdh._NAIVE, ts=(0.3, -0.8, 1.1, 0.5), p=P, hw=VmConfig())
@example(prog=umdh._NAIVE, ts=(-0.0, 0.0, -0.0, 0.0), p=P, hw=VmConfig(sincos_cycles=3, sincos=taylor_sincos))
@example(prog=umdh._NAIVE, ts=(0.3, -0.8, 1.1, 0.5), p=P, hw=VmConfig(half_sized=True))
@given(
    prog=straight_line_programs(),
    ts=st.tuples(angle, angle, angle, angle),
    p=st.builds(UmdhParams, length, length, length, length, length),
    hw=st.builds(VmConfig, st.booleans(), st.integers(1, 4), st.sampled_from([exact_sincos, taylor_sincos])),
)
def test_vm_run_equals_reference_dispatch(prog, ts, p, hw):
    assert _outcome(vm_run, prog, *ts, p, hw) == _outcome(vm_run_reference, prog, *ts, p, hw)


def test_vm_zero_angles():
    pose, cycles = vm_run(PROG, 0, 0, 0, 0, P)
    want, _ = umdh_t04_naive(0, 0, 0, 0, P)
    assert np.abs(pose - want).max() < 1e-15
    assert cycles == len(PROG.instrs)


def test_naive_program_runs_on_the_vm():
    # umdh_t04_naive is one run of the unshared program, which fits only the full file
    naive = umdh._NAIVE
    assert (naive.arith_ops, len(naive.instrs), naive.max_register) == (57, 63, 30)
    for ts in ((0.3, -0.8, 1.1, 0.5), (-0.0, 0.0, 0.0, -0.0)):
        pose, cycles = vm_run(naive, *ts, P)
        assert pose.tobytes() == umdh_t04_naive(*ts, P)[0].tobytes() and cycles == len(naive.instrs)
    with pytest.raises(CapacityError, match="31 registers, file provides 16"):
        vm_run(naive, 0.3, -0.8, 1.1, 0.5, P, VmConfig(half_sized=True))


def test_naive_program_derives_to_itself():
    # no output of the naive schedule reads a value another output computed, so there is nothing to undo
    assert umdh._unshared(umdh._NAIVE).instrs == umdh._NAIVE.instrs


def test_vm_matches_naive_and_chain():
    # both schedules round the same operations in the same order: equal bytes, signed zeros too
    rng = random.Random(72)
    for _ in range(300):
        ts = [rng.choice([0.0, -0.0]) if rng.random() < 0.2 else rng.uniform(-math.pi, math.pi) for _ in range(4)]
        vm_pose, _ = vm_run(PROG, *ts, P)
        naive_pose, _ = umdh_t04_naive(*ts, P)
        oracle = chain_pose(umdh_chain(*ts, P))
        assert vm_pose.tobytes() == naive_pose.tobytes()
        assert np.abs(vm_pose - oracle).max() < 1e-12
        assert np.array_equal(vm_pose[3], [0, 0, 0, 1])


def test_vm_rotation_block_orthonormal():
    rng = random.Random(73)
    for _ in range(100):
        ts = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
        pose, _ = vm_run(PROG, *ts, P)
        r = pose[:3, :3]
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9


def test_half_sized_register_file_overflows():
    with pytest.raises(CapacityError, match="register"):
        vm_run(PROG, 0, 0, 0, 0, P, VmConfig(half_sized=True))


def test_full_register_file_fits():
    assert PROG.max_register < VmConfig().capacity


def test_sincos_cycle_cost():
    _, base = vm_run(PROG, 0.1, 0.2, 0.3, 0.4, P, VmConfig(sincos_cycles=1))
    _, slow = vm_run(PROG, 0.1, 0.2, 0.3, 0.4, P, VmConfig(sincos_cycles=5))
    n_sincos = sum(1 for i in PROG.instrs if i.op == SINCOS)
    assert slow - base == n_sincos * 4


def test_clock_time():
    assert clock_time(0) == 0.0
    assert math.isclose(clock_time(103), 10.0, rel_tol=0, abs_tol=1e-12)
    assert clock_time(206, f_mhz=20.6) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        clock_time(-1)


def test_program_text_format():
    text = PROG.to_text()
    assert text == PROG.to_text()  # deterministic emission
    lines = text.splitlines()
    assert lines[0].startswith("#")
    pattern = re.compile(r"^(LOADK r\d+ k\d+|SINCOS r\d+ r\d+|(ADD|SUB|MUL) r\d+ r\d+ r\d+)$")
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        assert pattern.match(line), line


def test_trig_backends_agree_within_tolerance():
    ts = (0.4, -1.1, 0.7, 2.0)
    exact, _ = vm_run(PROG, *ts, P)
    for hw, tol in (
        (VmConfig(sincos=sincos_cordic), 1e-5),
        (VmConfig(sincos=taylor_sincos), 1e-3),
        (VmConfig(sincos=partial(lut_sincos, table=build_table(4096, mode="linear"))), 1e-5),
    ):
        pose, _ = vm_run(PROG, *ts, P, hw)
        assert np.abs(pose - exact).max() < tol
