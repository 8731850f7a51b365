import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fkemu.fixedpoint import (
    HALF_PI,
    MAX_ANGLE,
    Q8_24,
    QFormat,
    fold_angle,
    fx_from_real,
)
from fkemu.taylor import TaylorConfig, _cores, remainder_bound, taylor_sincos
from reference import Fx, cores_reference, fx_cast, fx_mul, fx_quantize, fx_sub, series_cos, series_sin, taylor_coeffs

CFG = TaylorConfig()
GATE = 2.0**-13
ANGLES = st.floats(-MAX_ANGLE, MAX_ANGLE)


def sincos(th, cfg=CFG):
    """(cos, sin) of th quantized to Q8.24 first, as a wide input register holds it."""
    return taylor_sincos(fx_from_real(th, Q8_24) * Q8_24.eps, cfg)


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


@example(3 * math.pi / 4)  # the octant tie of the second quadrant
@given(st.floats(math.pi / 2, math.pi))
def test_supplementary_angles_are_bit_exact(th):
    # pi - th is exact on this range; n_terms=3 has sin_core != cos_core at pi/4
    for cfg in (CFG, TaylorConfig(n_terms=3)):
        c1, s1 = taylor_sincos(th, cfg)
        c2, s2 = taylor_sincos(math.pi - th, cfg)
        assert (c1, s1) == (-c2, s2)


def test_single_term_degenerates_cleanly():
    cfg = TaylorConfig(n_terms=1)
    assert sincos(0.5, cfg)[1] == pytest.approx(0.5, abs=2**-15)
    assert sincos(0.2, cfg)[0] == pytest.approx(1.0, abs=2**-14)


def test_other_operand_formats():
    cfg = TaylorConfig(operand_fmt=QFormat(24, 22), acc_bits=50)
    th = 1.1
    assert abs(sincos(th, cfg)[1] - math.sin(th)) <= 2.0**-20


# -- the Fx reference the lanes are checked against ---------------------------
#
# The engine one angle at a time on Fx scalars: every op is an fx_mul, fx_cast
# or fx_sub, as the datapath is specified.  taylor_sincos runs the same ops on
# lanes and must equal this bit for bit.


def _horner(u: Fx, coeffs: tuple[Fx, ...], cfg: TaylorConfig) -> Fx:
    """c[0] - u*(c[1] - u*(c[2] - ...)), accumulator-resident."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    acc = fx_cast(coeffs[-1], acc_fmt)
    for c in coeffs[-2::-1]:
        prod = fx_mul(u, fx_cast(acc, fmt), acc_fmt)
        acc = fx_sub(fx_cast(c, acc_fmt), prod)
    return fx_cast(acc, fmt)


def _sin_core(t: Fx, cfg: TaylorConfig) -> Fx:
    """sin(t) = t - (t*u)*R(u) for t in [0, pi/4], u = t**2."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    coeffs = taylor_coeffs("sin", cfg.n_terms, fmt)
    if not coeffs:
        return t
    u = fx_mul(t, t, fmt)
    z = fx_mul(t, u, fmt)
    r = _horner(u, coeffs, cfg)
    return fx_cast(fx_sub(fx_cast(t, acc_fmt), fx_mul(z, r, acc_fmt)), fmt)


def _cos_core(t: Fx, cfg: TaylorConfig) -> Fx:
    """cos(t) = 1 - u*S(u) for t in [0, pi/4], u = t**2."""
    fmt, acc_fmt = cfg.operand_fmt, cfg.acc_fmt
    one = Fx(1 << acc_fmt.frac_bits, acc_fmt)
    coeffs = taylor_coeffs("cos", cfg.n_terms, fmt)
    if not coeffs:
        return fx_cast(one, fmt)
    u = fx_mul(t, t, fmt)
    s = _horner(u, coeffs, cfg)
    return fx_cast(fx_sub(one, fx_mul(u, s, acc_fmt)), fmt)


def reference_raws(theta: float, cfg: TaylorConfig) -> tuple[int, int]:
    """Raw (cos, sin) of one angle through the Fx reference."""
    q, r = fold_angle(abs(theta))
    swap = r >= HALF_PI / 2 if q & 1 else r > HALF_PI / 2
    t = fx_quantize(HALF_PI - r if swap else r, cfg.operand_fmt)
    s, c = _sin_core(t, cfg).raw, _cos_core(t, cfg).raw
    if swap:
        s, c = c, s
    cos, sin = ((c, s), (-s, c), (-c, -s), (s, -c))[q]
    return cos, -sin if theta < 0 else sin


def lane_raws(angles, cfg: TaylorConfig) -> np.ndarray:
    """Raw (cos, sin) of taylor_sincos on one array of angles, shape (2, n)."""
    cos, sin = taylor_sincos(np.asarray(angles, dtype=np.float64), cfg)
    raws = np.ldexp(np.array([cos, sin]), cfg.operand_fmt.frac_bits)
    assert np.array_equal(raws, np.rint(raws))
    return raws.astype("<i8")


TIES = [k * math.pi / 4 for k in range(-40, 41)]
LANE_CONFIGS = [
    TaylorConfig(n_terms=1),
    TaylorConfig(n_terms=3),
    TaylorConfig(n_terms=8),
    TaylorConfig(operand_fmt=QFormat(24, 22), acc_bits=50),
    TaylorConfig(acc_bits=64),  # accumulator over 63 bits: object lanes
    TaylorConfig(operand_fmt=QFormat(32, 31), acc_bits=64),  # the constant 1 alone needs 64 bits
]


@pytest.mark.parametrize("cfg", LANE_CONFIGS, ids=str)
@settings(max_examples=40, deadline=None)
@example(angles=[0.0, -0.0, MAX_ANGLE, -MAX_ANGLE] + TIES)
@given(angles=st.lists(st.one_of(ANGLES, st.sampled_from(TIES + [0.0, -0.0])), min_size=1, max_size=24))
def test_lanes_equal_fx_reference(cfg, angles):
    want = np.array([reference_raws(th, cfg) for th in angles]).T
    assert np.array_equal(lane_raws(angles, cfg), want)


@pytest.mark.parametrize("acc_bits", [32, 36, 64])
@pytest.mark.parametrize("n_terms", range(1, 11))
def test_cores_equal_clipped_reference_on_every_raw(n_terms, acc_bits):
    # every Q1.15 raw of [0, pi/4], the whole domain of the clip-free
    # cores, against every narrowing clipped and every zero step run
    cfg = TaylorConfig(n_terms=n_terms, acc_bits=acc_bits)
    t = np.arange(round(math.pi / 4 * 2**15) + 1).astype(np.int64 if acc_bits <= 63 else object)
    got, want = _cores(t, cfg), cores_reference(t, cfg)
    assert got.shape == want.shape == (2, len(t))
    assert np.array_equal(got, want)


def pin_angles() -> np.ndarray:
    ends = [0.0, -0.0, MAX_ANGLE, -MAX_ANGLE, 2.0**20 - 0.5, 1e-9, -1e-9]
    return np.array(
        TIES + ends + np.linspace(-30.0, 30.0, 1001).tolist() + np.linspace(-MAX_ANGLE, MAX_ANGLE, 257).tolist()
    )


# sha256 of the raw (cos, sin) pairs of the scalar Fx engine on pin_angles,
# captured before the engine moved onto lanes
TAYLOR_RAW_PINS = [
    (TaylorConfig(), "bb038a0fc9803c84484ceedb847c6a52860a12e7f44b5d52a0b8c5b424657638"),
    (TaylorConfig(n_terms=3), "44d26752aa70a314498a1a0ab735e46bb99869c4283dda94d9430ef1396d04d5"),
    (TaylorConfig(n_terms=1), "3c96fdd558fddee371119c37568530991476a47f68006682347fb3f2e79c0fb4"),
    (TaylorConfig(operand_fmt=QFormat(24, 22), acc_bits=50),
     "be171559f75dc2875ff920754d5d3e85b448d712f4a2df7e06379a8856d5bf4f"),
    (TaylorConfig(acc_bits=64), "bb038a0fc9803c84484ceedb847c6a52860a12e7f44b5d52a0b8c5b424657638"),
    (TaylorConfig(operand_fmt=QFormat(32, 31), acc_bits=64),
     "99f91fe489755a0727ad34fba6e2d02d02278165f99f5c186bdde1433fb67ed4"),
]


@pytest.mark.parametrize("cfg,digest", TAYLOR_RAW_PINS, ids=[str(c) for c, _ in TAYLOR_RAW_PINS])
def test_taylor_raws_golden(cfg, digest):
    pairs = lane_raws(pin_angles(), cfg).T  # one (cos, sin) row per angle
    assert hashlib.sha256(np.ascontiguousarray(pairs).tobytes()).hexdigest() == digest
