"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Run with -s (or read test_output.txt) to see one measured pass line per
criterion.  Hardware timings (stage delays, clock rates) are model
constants verified as formulas; numerical claims are verified against
independently computed oracles.
"""

import itertools
import math
import random
import time

import numpy as np

from fkemu import cli
from fkemu.ccm import PipelineModel, ccm_points, fk_pipeline, latency_us
from fkemu.cfr import CfrState, cfr_gain, cfr_rotate, cfr_step, forced_selection
from fkemu.cordic import CordicConfig, circ_rotate_lanes
from fkemu.dh import (
    DhJoint,
    ROTARY,
    PumaParams,
    Vec4,
    apply_point,
    chain_pose,
    decompose,
    link_transform,
    puma_chain,
    puma_closed_form,
)
from fkemu.fixedpoint import Q1_15, Q8_24, fx_from_real, lanes_from_real, lanes_real
from fkemu.lut import LINEAR, NEAREST, build_table, error_profile
from fkemu.taylor import TaylorConfig, remainder_bound, series_cos, series_sin, taylor_sincos
from fkemu.umdh import UmdhParams, clock_time, umdh_chain, umdh_program, umdh_t04_naive, vm_run

MODULE_START = time.monotonic()

CFG = CordicConfig(24, Q8_24)


def test_c01_decomposition_identity():
    rng = random.Random(101)
    n = 10_000
    joints = [
        DhJoint(ROTARY, rng.uniform(-math.pi, math.pi), rng.uniform(-1, 1),
                rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
        for _ in range(n)
    ]
    start = time.monotonic()
    factors = np.empty((n, 4, 4, 4))
    links = np.empty((n, 4, 4))
    for k, j in enumerate(joints):
        tz, rz, tx, rx = decompose(j)
        factors[k] = (tz, rz, tx, rx)
        links[k] = link_transform(j)
    product = factors[:, 0] @ factors[:, 1] @ factors[:, 2] @ factors[:, 3]
    worst = float(np.abs(product - links).max())
    elapsed = time.monotonic() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    print(f"criterion 1 PASS: decomposition identity, max {worst:.3e} over {n} joints in {elapsed:.2f}s")


def test_c02_ccm_equivalence():
    rng = random.Random(102)
    strict = 32 * 2.0**-24
    joints, points = [], []
    for _ in range(1000):
        joints.append(DhJoint(ROTARY, rng.uniform(-math.pi, math.pi), rng.uniform(-1, 1),
                              rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)))
        points.append(Vec4(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)))
    # one lane per (joint, point): each lane is what ccm_transform computes
    got = ccm_points([(j,) for j in joints], [p.as_array() for p in points], CFG)
    want = np.array([apply_point(link_transform(j), p).as_array() for j, p in zip(joints, points)])
    worst = float(np.abs(got[:, :3] - want[:, :3]).max())
    assert worst <= 1e-4  # relaxed gate
    assert worst <= strict  # 32 ulps of Q8.24
    print(f"criterion 2 PASS: module vs matrix, max {worst:.3e} <= {strict:.3e}")


def test_c03_cordic_sincos():
    rng = random.Random(103)
    th = np.array([rng.uniform(-math.pi, math.pi) for _ in range(10_000)])
    # one lane per angle: each lane is what sincos_cordic computes
    quantized = lanes_real(lanes_from_real(th, Q8_24), Q8_24)
    one = np.full(th.size, fx_from_real(1.0, Q8_24).raw)
    c, s = (lanes_real(v, Q8_24) for v in circ_rotate_lanes(one, np.zeros_like(one), quantized, CFG))
    worst = float(max(np.abs(c - np.cos(th)).max(), np.abs(s - np.sin(th)).max()))
    worst_pyth = float(np.abs(c**2 + s**2 - 1.0).max())
    assert worst <= 1e-6
    assert worst_pyth <= 4e-6
    print(f"criterion 3 PASS: sincos max {worst:.3e} <= 1e-6, pythagorean {worst_pyth:.3e} <= 4e-6")


def test_c04_latency_formula():
    for n in range(1, 11):
        assert latency_us(PipelineModel(n)) == 80.0 * n + 120.0
    _, report = fk_pipeline(
        [DhJoint(ROTARY, 0, 0, 0, 0)] * 6, Vec4(0, 0, 0), CFG
    )
    assert report.latency_us == 600.0
    assert report.processors == 24
    print("criterion 4 PASS: latency 80n+120 exact for n=1..10, n=6 -> 600us, 24 processors")


def test_c05_puma_oracle():
    rng = random.Random(105)
    params = PumaParams(d2=0.14909, d4=0.43307, d6=0.05625, a2=0.4318, a3=-0.02032)
    worst = 0.0
    for _ in range(1000):
        th = [rng.uniform(-math.pi, math.pi) for _ in range(6)]
        diff = np.abs(puma_closed_form(th, params) - chain_pose(puma_chain(th, params)))
        worst = max(worst, float(diff.max()))
    assert worst <= 1e-9
    print(f"criterion 5 PASS: closed form vs chain product, max {worst:.3e} <= 1e-9")


def test_c06_taylor_engine():
    cfg = TaylorConfig()
    # truncation bound check; 1e-15 covers double rounding noise, which
    # dominates near zero where the mathematical bound vanishes
    worst_series = 0.0
    for k in range(10_000):
        x = -math.pi / 2 + k * math.pi / 9999
        ax = abs(x)
        es = abs(series_sin(x, 8) - math.sin(x))
        ec = abs(series_cos(x, 8) - math.cos(x))
        assert es <= remainder_bound(ax, 15, "sin") + 1e-15
        assert ec <= remainder_bound(ax, 15, "cos") + 1e-15
        worst_series = max(worst_series, es, ec)
    rng = random.Random(106)
    gate = 2.0**-13
    worst = 0.0
    for _ in range(10_000):
        th = rng.uniform(-math.pi / 2, math.pi / 2)
        c, s = taylor_sincos(fx_from_real(th, Q8_24).real, cfg)
        worst = max(worst, abs(s - math.sin(th)), abs(c - math.cos(th)))
    assert worst <= gate
    assert cfg.operand_fmt == Q1_15
    print(f"criterion 6 PASS: series within bound (max {worst_series:.3e}), Q1.15 max {worst:.3e} <= 2^-13")


def test_c07_cfr_constant_factor():
    base = math.hypot(0.52, -0.33)
    gains = []
    for seq in itertools.product((-1, 1), repeat=8):
        x, y = cfr_rotate(0.52, -0.33, 0.0, 8, sel=forced_selection(seq))
        gains.append(math.hypot(x, y) / base)
    spread = max(gains) - min(gains)
    assert spread < 1e-12
    assert abs(gains[0] - cfr_gain(8)) < 1e-12

    rng = random.Random(107)
    for _ in range(300):
        angle = rng.uniform(-1.7, 1.7)
        s = CfrState(1.0, 0.0, angle, 0)
        z = angle
        for i in range(16):
            sigma = 1 if z >= 0 else -1
            z = z - sigma * math.atan(math.ldexp(1.0, -i))
            s = cfr_step(CfrState(s.x, s.y, s.u, i), sigma)
            assert math.ldexp(s.u, -(i + 1)) == z
    print(f"criterion 7 PASS: 256 sigma sequences, gain spread {spread:.3e}; U*2^-i == classic residual exactly")


def test_c08_umdh_reduction_and_vm():
    params = UmdhParams(a0=0.05, a1=0.04, a2=0.03, a3=0.025, d1=0.02)
    prog = umdh_program(params)
    _, naive_ops = umdh_t04_naive(0.2, 0.4, -0.6, 0.8, params)
    assert naive_ops == 57
    assert prog.arith_ops <= 28
    assert 1 - prog.arith_ops / naive_ops >= 0.50
    assert len(prog.instrs) <= 45

    rng = random.Random(108)
    worst = 0.0
    for _ in range(1000):
        ts = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
        naive_pose, _ = umdh_t04_naive(*ts, params)
        vm_pose, _ = vm_run(prog, *ts, params)
        oracle = chain_pose(umdh_chain(*ts, params))
        worst = max(
            worst,
            float(np.abs(vm_pose - naive_pose).max()),
            float(np.abs(naive_pose - oracle).max()),
        )
    assert worst <= 1e-12
    assert math.isclose(clock_time(103), 10.0, rel_tol=0, abs_tol=1e-12)
    print(
        f"criterion 8 PASS: ops {prog.arith_ops}/{naive_ops} "
        f"({100 * (1 - prog.arith_ops / naive_ops):.1f}% cut), {len(prog.instrs)} instrs, "
        f"three-way max {worst:.3e}, clock_time(103)=10.0us"
    )


def test_c09_lut_error_bounds():
    lines = []
    for n in (256, 1024, 4096):
        step = (math.pi / 2) / n
        near, _ = error_profile(build_table(n, mode=NEAREST))
        lin, _ = error_profile(build_table(n, mode=LINEAR))
        assert near <= step
        assert lin <= step**2 / 8
        lines.append(f"n={n} nearest {near:.3e}<= {step:.3e}, linear {lin:.3e} <= {step**2 / 8:.3e}")
    r1 = error_profile(build_table(256, mode=LINEAR))[0] / error_profile(build_table(512, mode=LINEAR))[0]
    r2 = error_profile(build_table(2048, mode=LINEAR))[0] / error_profile(build_table(4096, mode=LINEAR))[0]
    assert r1 >= 3.5
    assert r2 >= 3.5
    print(f"criterion 9 PASS: {'; '.join(lines)}; doubling ratios {r1:.2f}x, {r2:.2f}x >= 3.5x")


def test_c10_backend_benchmark(capsys):
    argv = ["bench", "puma560", "--trials", "12", "--seed", "42"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical rerun
    rows = {line.split(",")[0]: line.split(",") for line in first.strip().splitlines()[1:]}
    lut_ops, cordic_ops = int(rows["lut"][3]), int(rows["cordic"][3])
    lut_err, cordic_err = float(rows["lut"][1]), float(rows["cordic"][1])
    assert lut_ops < cordic_ops
    assert cordic_err < lut_err
    print(
        f"criterion 10 PASS: lut ops {lut_ops} < cordic ops {cordic_ops}; "
        f"cordic err {cordic_err:.3e} < lut err {lut_err:.3e}; CSV byte-identical"
    )


def test_c11_runtime_budget():
    elapsed = time.monotonic() - MODULE_START
    assert elapsed < 60.0
    print(f"criterion 11 PASS: acceptance module {elapsed:.1f}s; see suite summary for the full-run time")
