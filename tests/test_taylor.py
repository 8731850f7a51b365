import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fkemu.fixedpoint import MAX_ANGLE, DomainError, Q8_24, QFormat, fx_from_real
from fkemu.taylor import TaylorConfig, remainder_bound, series_cos, series_sin, taylor_sincos

CFG = TaylorConfig()
GATE = 2.0**-13
ANGLES = st.floats(-MAX_ANGLE, MAX_ANGLE)


def sincos(th, cfg=CFG):
    """(cos, sin) of th quantized to Q8.24 first, as a wide input register holds it."""
    return taylor_sincos(fx_from_real(th, Q8_24).real, cfg)


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
    c, s = sincos(0.0)
    assert s == 0.0
    assert abs(c - 1.0) <= 2.0**-15  # saturated +1 in Q1.15


def test_known_angles():
    assert abs(sincos(math.pi / 6)[1] - 0.5) <= GATE
    assert abs(sincos(math.pi / 3)[0] - 0.5) <= GATE


def test_fixed_point_accuracy_on_reduced_range():
    rng = random.Random(41)
    for _ in range(2000):
        th = rng.uniform(-math.pi / 2, math.pi / 2)
        c, s = sincos(th)
        assert abs(s - math.sin(th)) <= GATE
        assert abs(c - math.cos(th)) <= GATE


def test_fixed_point_tracks_double_series():
    budget = (CFG.n_terms + 2) * 2.0**-CFG.operand_fmt.frac_bits
    rng = random.Random(42)
    for _ in range(1000):
        th = rng.uniform(-math.pi / 2, math.pi / 2)
        c, s = sincos(th)
        assert abs(s - series_sin(th, CFG.n_terms)) <= budget
        assert abs(c - series_cos(th, CFG.n_terms)) <= budget


@given(ANGLES)
def test_symmetry_is_bit_exact(th):
    c1, s1 = taylor_sincos(th, CFG)
    c2, s2 = taylor_sincos(-th, CFG)
    assert s1 == -s2
    assert c1 == c2


@example(3 * math.pi / 4)  # the octant tie of the second quadrant
@given(st.floats(math.pi / 2, math.pi))
def test_supplementary_angles_are_bit_exact(th):
    # pi - th is exact on this range; n_terms=3 has sin_core != cos_core at pi/4
    for cfg in (CFG, TaylorConfig(n_terms=3)):
        c1, s1 = taylor_sincos(th, cfg)
        c2, s2 = taylor_sincos(math.pi - th, cfg)
        assert (c1, s1) == (-c2, s2)


@given(ANGLES)
def test_full_range_reduction(th):
    c, s = taylor_sincos(th, CFG)
    assert abs(s - math.sin(th)) <= GATE
    assert abs(c - math.cos(th)) <= GATE


def test_single_term_degenerates_cleanly():
    cfg = TaylorConfig(n_terms=1)
    assert sincos(0.5, cfg)[1] == pytest.approx(0.5, abs=2**-15)
    assert sincos(0.2, cfg)[0] == pytest.approx(1.0, abs=2**-14)


def test_other_operand_formats():
    cfg = TaylorConfig(operand_fmt=QFormat(24, 22), acc_bits=50)
    th = 1.1
    assert abs(sincos(th, cfg)[1] - math.sin(th)) <= 2.0**-20


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, math.nextafter(MAX_ANGLE, math.inf), -1e15])
def test_non_finite_angle_raises_domain_error(angle):
    with pytest.raises(DomainError):
        taylor_sincos(angle, CFG)
