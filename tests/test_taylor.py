import math
import random

import pytest

from fkemu.fixedpoint import DomainError, Q8_24, QFormat, fx_from_real
from fkemu.taylor import (
    TaylorConfig,
    remainder_bound,
    series_cos,
    series_sin,
    taylor_cos,
    taylor_sin,
    taylor_sincos,
)

CFG = TaylorConfig()
WIDE = Q8_24  # input carrier wide enough for any reduced angle
GATE = 2.0**-13


def fx(v):
    return fx_from_real(v, WIDE)


def test_config_validation():
    with pytest.raises(ValueError):
        TaylorConfig(n_terms=0)
    with pytest.raises(ValueError):
        TaylorConfig(acc_bits=20)
    with pytest.raises(ValueError):
        TaylorConfig(operand_fmt=QFormat(40, 38), acc_bits=80)  # accumulator over 64 bits


def test_remainder_bound_examples():
    assert remainder_bound(0.0, 3, "sin") == 0.0
    assert remainder_bound(0.0, 8, "cos") == 0.0
    # direct factorial evaluation: 1/8!
    assert remainder_bound(1.0, 7, "sin") == pytest.approx(2.48015873015873e-05, rel=1e-12)
    assert remainder_bound(1.0, 8, "cos") == pytest.approx(1.0 / math.factorial(8), rel=1e-12)


def test_remainder_bound_monotone_in_r():
    prev = remainder_bound(0.9, 3, "sin")
    for r in range(5, 17, 2):
        cur = remainder_bound(0.9, r, "sin")
        assert cur < prev
        prev = cur


def test_remainder_bound_validation():
    with pytest.raises(ValueError):
        remainder_bound(-0.1, 3, "sin")
    with pytest.raises(ValueError):
        remainder_bound(0.5, 0, "sin")
    with pytest.raises(ValueError):
        remainder_bound(0.5, 3, "tan")


def test_series_within_remainder_bound():
    # truncation bound plus an allowance for double rounding noise, which
    # dominates near zero where the mathematical bound vanishes
    for k in range(2001):
        x = k * (math.pi / 2) / 2000
        assert abs(series_sin(x, 8) - math.sin(x)) <= remainder_bound(x, 15, "sin") + 1e-15
        assert abs(series_cos(x, 8) - math.cos(x)) <= remainder_bound(x, 15, "cos") + 1e-15


def test_trivial_values():
    assert taylor_sin(fx(0.0), CFG).raw == 0
    one = taylor_cos(fx(0.0), CFG)
    assert abs(one.real - 1.0) <= 2.0**-15  # saturated +1 in Q1.15


def test_known_angles():
    s = taylor_sin(fx(math.pi / 6), CFG)
    assert abs(s.real - 0.5) <= GATE
    c = taylor_cos(fx(math.pi / 3), CFG)
    assert abs(c.real - 0.5) <= GATE


def test_fixed_point_accuracy_on_reduced_range():
    rng = random.Random(41)
    for _ in range(2000):
        th = rng.uniform(-math.pi / 2, math.pi / 2)
        assert abs(taylor_sin(fx(th), CFG).real - math.sin(th)) <= GATE
        assert abs(taylor_cos(fx(th), CFG).real - math.cos(th)) <= GATE


def test_fixed_point_tracks_double_series():
    budget = (CFG.n_terms + 2) * 2.0**-CFG.operand_fmt.frac_bits
    rng = random.Random(42)
    for _ in range(1000):
        th = rng.uniform(-math.pi / 2, math.pi / 2)
        assert abs(taylor_sin(fx(th), CFG).real - series_sin(th, CFG.n_terms)) <= budget
        assert abs(taylor_cos(fx(th), CFG).real - series_cos(th, CFG.n_terms)) <= budget


def test_symmetry_is_bit_exact():
    rng = random.Random(43)
    for _ in range(500):
        th = rng.uniform(-8, 8)
        assert taylor_sin(fx(th), CFG).raw == -taylor_sin(fx(-th), CFG).raw
        assert taylor_cos(fx(th), CFG).raw == taylor_cos(fx(-th), CFG).raw


def test_full_range_reduction():
    rng = random.Random(44)
    for _ in range(800):
        th = rng.uniform(-10, 10)
        assert abs(taylor_sin(fx(th), CFG).real - math.sin(th)) <= GATE
        assert abs(taylor_cos(fx(th), CFG).real - math.cos(th)) <= GATE


def test_sincos_convenience_matches_fx_path():
    for th in (0.0, 0.6, -2.4, 3.3, 7.1):
        c, s = taylor_sincos(th, CFG)
        assert c == taylor_cos(fx(th), CFG).real
        assert s == taylor_sin(fx(th), CFG).real


def test_single_term_degenerates_cleanly():
    cfg = TaylorConfig(n_terms=1)
    assert taylor_sin(fx_from_real(0.5, WIDE), cfg).real == pytest.approx(0.5, abs=2**-15)
    assert taylor_cos(fx_from_real(0.2, WIDE), cfg).real == pytest.approx(1.0, abs=2**-14)


def test_other_operand_formats():
    cfg = TaylorConfig(operand_fmt=QFormat(24, 22), acc_bits=50)
    th = 1.1
    assert abs(taylor_sin(fx(th), cfg).real - math.sin(th)) <= 2.0**-20


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_raises_domain_error(angle):
    with pytest.raises(DomainError):
        taylor_sincos(angle, CFG)
