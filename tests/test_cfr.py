import itertools
import math
import random

import pytest

from fkemu.cfr import (
    CfrState,
    cfr_gain,
    cfr_range,
    cfr_rotate,
    cfr_step,
    selection,
)
from fkemu.fixedpoint import DomainError
from reference import forced_selection


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
    for angle, n_iter, w_frac in ((cfr_range(8) + 0.01, 8, None), (math.nan, 8, None), (math.nan, 16, 10)):
        with pytest.raises(DomainError):
            cfr_rotate(1.0, 0.0, angle, n_iter, w_frac=w_frac)


def test_selection_policy():
    assert selection(2.0**-3, 4) == 1
    assert selection(-(2.0**-3), 4) == -1
    assert selection(2.0**-7, 4) == 1  # below the estimate quantum: tie -> +1
    assert selection(-(2.0**-7), 4) == 1
    with pytest.raises(ValueError):
        selection(0.5, 0)


def test_truncated_selection_still_converges():
    for ang in (0.4, -0.9, 1.1):
        x, y = cfr_rotate(1.0, 0.0, ang, 16, sel=lambda u, i: selection(u, 12))
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


@pytest.mark.parametrize("n_iter", [8, 16, 24])
@pytest.mark.parametrize(
    "repeats", [(), (0,), (2,), (4, 6), (2, 2), (-1,), (8,)], ids=["none", "0", "2", "4,6", "2,2", "-1", "8"]
)
def test_repeat_indices_keep_the_rotation_angle(n_iter, repeats):
    # a repeated iteration must step the residual by atan(2**-i) again,
    # not by a U the first pass already doubled; an iteration runs twice
    # however often it is listed, and an index outside 0..n_iter-1 never runs
    x0, y0 = 0.6, -0.2
    r = cfr_range(n_iter)
    bound = math.atan(math.ldexp(1.0, 1 - n_iter)) + 1e-9
    for k in range(201):
        angle = (k - 100) / 100 * r
        x, y = cfr_rotate(x0, y0, angle, n_iter, repeat_indices=repeats)
        turned = math.atan2(y, x) - math.atan2(y0, x0)
        assert abs(math.remainder(turned + angle, 2 * math.pi)) <= bound
        ratio = math.hypot(x, y) / math.hypot(x0, y0)
        assert abs(ratio - cfr_gain(n_iter, repeats)) <= 1e-12
