import math
import random
import re
from functools import partial

import numpy as np
import pytest

from fkemu.cordic import sincos_cordic
from fkemu.dh import chain_pose
from fkemu.lut import build_table, lut_sincos
from fkemu.taylor import taylor_sincos
from fkemu.umdh import (
    ADD,
    CapacityError,
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


def test_vm_zero_angles():
    pose, cycles = vm_run(PROG, 0, 0, 0, 0, P)
    want, _ = umdh_t04_naive(0, 0, 0, 0, P)
    assert np.abs(pose - want).max() < 1e-15
    assert cycles == len(PROG.instrs)


def test_vm_matches_naive_and_chain():
    rng = random.Random(72)
    for _ in range(300):
        ts = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
        vm_pose, _ = vm_run(PROG, *ts, P)
        naive_pose, _ = umdh_t04_naive(*ts, P)
        oracle = chain_pose(umdh_chain(*ts, P))
        assert np.abs(vm_pose - naive_pose).max() < 1e-12
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

