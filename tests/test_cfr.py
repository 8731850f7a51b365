import itertools
import math
import random

import pytest

from fkemu.cfr import (
    CfrState,
    MacroPeModel,
    cfr_gain,
    cfr_range,
    cfr_rotate,
    cfr_step,
    forced_selection,
    macro_pe_apply,
    pipeline_timing,
    selection,
    truncated_selection,
)
from fkemu.cordic import DomainError
from fkemu.dh import DhJoint, ROTARY, Vec4, apply_point, link_transform


def test_step_example():
    out = cfr_step(CfrState(1.0, 0.0, math.pi / 4, 0), 1)
    assert out.x == 1.0
    assert out.y == -1.0
    assert out.u == 0.0
    assert out.i == 1


def test_step_sigma_symmetry():
    s = CfrState(0.75, -0.375, 0.25, 3)  # dyadic, so the updates are exact
    up = cfr_step(s, 1)
    dn = cfr_step(s, -1)
    assert up.x - s.x == -(dn.x - s.x)
    assert up.y - s.y == -(dn.y - s.y)
    s = CfrState(0.8, -0.35, 0.2, 3)
    up = cfr_step(s, 1)
    dn = cfr_step(s, -1)
    assert up.x - s.x == pytest.approx(-(dn.x - s.x), abs=1e-15)
    assert up.y - s.y == pytest.approx(-(dn.y - s.y), abs=1e-15)


def test_step_rejects_bad_sigma():
    with pytest.raises(ValueError):
        cfr_step(CfrState(1, 0, 0, 0), 2)


def test_u_tracks_classic_residual_exactly():
    rng = random.Random(51)
    for _ in range(200):
        angle = rng.uniform(-1.7, 1.7)
        s = CfrState(1.0, 0.0, angle, 0)
        z = angle
        for i in range(20):
            sigma = 1 if z >= 0 else -1
            z = z - sigma * math.atan(math.ldexp(1.0, -i))
            s = cfr_step(CfrState(s.x, s.y, s.u, i), sigma)
            assert math.ldexp(s.u, -(i + 1)) == z  # exact, not approximate


def test_constant_factor_across_all_sigma_sequences():
    base = math.hypot(0.37, -0.61)
    gains = []
    for seq in itertools.product((-1, 1), repeat=8):
        x, y = cfr_rotate(0.37, -0.61, 0.0, 8, sel=forced_selection(seq))
        gains.append(math.hypot(x, y) / base)
    assert max(gains) - min(gains) < 1e-12
    assert gains[0] == pytest.approx(cfr_gain(8), rel=1e-12)


def test_rotate_semantics_and_zero_angle():
    k = cfr_gain(24)
    for ang in (0.0, 0.45, -1.3, 1.69):
        x, y = cfr_rotate(0.5, 0.25, ang, 24)
        want_x = k * (0.5 * math.cos(-ang) - 0.25 * math.sin(-ang))
        want_y = k * (0.25 * math.cos(-ang) + 0.5 * math.sin(-ang))
        slack = k * math.atan(2.0**-23) + 1e-9
        assert abs(x - want_x) <= slack
        assert abs(y - want_y) <= slack


def test_two_step_closed_form():
    # an angle that two +1 steps drive to zero exactly
    angle = math.atan(1.0) + math.atan(0.5)
    x, y = cfr_rotate(1.0, 0.0, angle, 2, sel=forced_selection((1, 1)))
    k = cfr_gain(2)
    assert x == pytest.approx(k * math.cos(angle), abs=1e-12)
    assert y == pytest.approx(-k * math.sin(angle), abs=1e-12)


def test_rotate_out_of_range():
    with pytest.raises(DomainError):
        cfr_rotate(1.0, 0.0, cfr_range(8) + 0.01, 8)


def test_selection_policy():
    assert selection(2.0**-3, 4) == 1
    assert selection(-(2.0**-3), 4) == -1
    assert selection(2.0**-7, 4) == 1  # below the estimate quantum: tie -> +1
    assert selection(-(2.0**-7), 4) == 1
    with pytest.raises(ValueError):
        selection(0.5, 0)


def test_truncated_selection_still_converges():
    sel = truncated_selection(12)
    for ang in (0.4, -0.9, 1.1):
        x, y = cfr_rotate(1.0, 0.0, ang, 16, sel=sel)
        k = cfr_gain(16)
        got = math.atan2(-y, x)
        assert abs(got - ang) <= 2.0**-11 + math.atan(2.0**-15)
        assert math.hypot(x, y) == pytest.approx(k, rel=1e-12)


def test_second_group_truncation_via_w_frac():
    x, y = cfr_rotate(1.0, 0.0, 0.8, 16, w_frac=10)
    assert abs(math.atan2(-y, x) - 0.8) <= 2.0**-9


def test_repeat_indices_extend_gain():
    k = cfr_gain(8, repeat_indices=(4, 6))
    manual = cfr_gain(8) * math.sqrt(1 + 2.0**-8) * math.sqrt(1 + 2.0**-12)
    assert k == pytest.approx(manual, rel=1e-15)
    x, y = cfr_rotate(1.0, 0.0, 0.3, 8, repeat_indices=(4, 6))
    assert math.hypot(x, y) == pytest.approx(k, rel=1e-10)


def test_macro_pe_zero_joint_is_identity():
    p = Vec4(0.3, -0.4, 0.5)
    assert macro_pe_apply(DhJoint(ROTARY, 0, 0, 0, 0), p) == p


def test_macro_pe_matches_matrix_oracle():
    rng = random.Random(52)
    for _ in range(300):
        j = DhJoint(ROTARY, rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3))
        p = Vec4(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = macro_pe_apply(j, p)
        want = apply_point(link_transform(j), p)
        assert abs(got.x - want.x) < 1e-12
        assert abs(got.y - want.y) < 1e-12
        assert abs(got.z - want.z) < 1e-12


def test_macro_pe_w_validation():
    with pytest.raises(ValueError):
        macro_pe_apply(DhJoint(ROTARY, 0, 0, 0, 0), Vec4(0, 0, 0, 0.25))


def test_pipeline_timing():
    fill, rate = pipeline_timing(MacroPeModel(6, 1, 1.0))
    assert fill == 12.0
    assert rate == 1.0
    fill2, rate2 = pipeline_timing(MacroPeModel(6, 2, 1.0))
    assert fill2 == 2 * fill
    assert rate2 == rate / 2


def test_model_validation():
    with pytest.raises(ValueError):
        MacroPeModel(0)
    with pytest.raises(ValueError):
        MacroPeModel(3, micro_stages=0)
    with pytest.raises(ValueError):
        MacroPeModel(3, stage_delay=0.0)
