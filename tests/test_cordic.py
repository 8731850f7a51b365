import math
import random

import pytest

from fkemu.cordic import (
    CIRCULAR,
    CordicConfig,
    CordicState,
    DomainError,
    HYPERBOLIC,
    LINEAR,
    circ_rotate,
    cordic_rotate,
    cordic_step,
    cordic_vector,
    gain,
    iteration_indices,
    sincos_cordic,
    sincos_tolerance,
)
from fkemu.fixedpoint import Q8_24, fx_from_real

CFG = CordicConfig(24, Q8_24)


def fx(v):
    return fx_from_real(v, Q8_24)


def test_config_validation():
    with pytest.raises(ValueError):
        CordicConfig(0, Q8_24)
    with pytest.raises(ValueError):
        CordicConfig(27, Q8_24)  # beyond frac_bits + 2


def test_step_linear_example():
    s = CordicState(fx(1.0), fx(0.0), fx(0.5), 1)
    out = cordic_step(s, LINEAR, 1)
    assert out.y.real == 0.5
    assert out.z.real == 0.0
    assert out.x.raw == s.x.raw
    assert out.i == 2


def test_step_circular_example():
    s = CordicState(fx(1.0), fx(0.0), fx(0.0), 0)
    out = cordic_step(s, CIRCULAR, 1)
    assert out.x.real == 1.0
    assert out.y.real == 1.0
    assert abs(out.z.real + math.atan(1.0)) < Q8_24.eps


def test_step_linear_cancels():
    s = CordicState(fx(0.7), fx(0.3), fx(0.2), 3)
    fwd = cordic_step(s, LINEAR, 1)
    back = cordic_step(CordicState(fwd.x, fwd.y, fwd.z, 3), LINEAR, -1)
    assert back.y.raw == s.y.raw


def test_step_rejects_bad_sigma():
    s = CordicState(fx(1.0), fx(0.0), fx(0.0), 0)
    with pytest.raises(ValueError):
        cordic_step(s, CIRCULAR, 0)


def test_rotate_linear_is_multiply_accumulate():
    # (1, a, b) -> y = a + b
    out = cordic_rotate(fx(1.0), fx(0.25), fx(0.6), LINEAR, CFG)
    assert abs(out[1].real - 0.85) < 1e-6
    rng = random.Random(10)
    for _ in range(50):
        x0, y0, z0 = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1.9, 1.9)
        out = cordic_rotate(fx(x0), fx(y0), fx(z0), LINEAR, CFG)
        assert abs(out[1].real - (y0 + x0 * z0)) <= CFG.n_iter * Q8_24.eps + abs(x0) * 2.0 ** (1 - CFG.n_iter)


def test_rotate_zero_angle_returns_gain():
    inv_k = fx(1.0 / gain(24, CIRCULAR))
    x, y, z = cordic_rotate(inv_k, fx(0.0), fx(0.0), CIRCULAR, CFG)
    assert abs(x.real - 1.0) < 1e-6
    assert abs(y.real) < 1e-6


def test_rotate_pi_over_six():
    # double-precision trig oracle, frozen
    inv_k = fx(1.0 / gain(24, CIRCULAR))
    x, y, _ = cordic_rotate(inv_k, fx(0.0), fx(math.pi / 6), CIRCULAR, CFG)
    assert abs(x.real - 0.8660254037844387) < 1e-6
    assert abs(y.real - 0.5) < 1e-6


def test_rotate_out_of_range_raises():
    with pytest.raises(DomainError):
        cordic_rotate(fx(1.0), fx(0.0), fx(1.8), CIRCULAR, CFG)
    with pytest.raises(DomainError):
        cordic_rotate(fx(1.0), fx(0.0), fx(2.5), LINEAR, CFG)


def test_vector_aligned_gives_gain():
    x, y, z = cordic_vector(fx(1.0), fx(0.0), fx(0.0), CIRCULAR, CFG)
    assert abs(x.real - gain(24, CIRCULAR)) < 1e-6
    assert abs(y.real) < 1e-6
    assert abs(z.real) < 1e-6


def test_vector_atan():
    # atan oracle, frozen pi/4
    _, y, z = cordic_vector(fx(1.0), fx(1.0), fx(0.0), CIRCULAR, CFG)
    assert abs(z.real - 0.7853981633974483) < 1e-6
    assert abs(y.real) < 2e-6


def test_vector_linear_division():
    # oracle: y0/d
    _, y, z = cordic_vector(fx(0.8), fx(0.3), fx(0.0), LINEAR, CFG)
    assert abs(z.real - 0.375) < 1e-6
    assert abs(y.real) < 1e-6


def test_vector_domain_errors():
    zero = fx(0.0)
    with pytest.raises(DomainError):
        cordic_vector(zero, zero, zero, CIRCULAR, CFG)
    with pytest.raises(DomainError):
        cordic_vector(fx(-1.0), fx(0.5), zero, CIRCULAR, CFG)
    with pytest.raises(DomainError):
        cordic_vector(fx(0.1), fx(0.9), zero, LINEAR, CFG)


def test_gain_values():
    assert gain(7, LINEAR) == 1.0
    assert gain(1, CIRCULAR) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # independent product loop
    k = 1.0
    for i in range(24):
        k *= math.sqrt(1.0 + 2.0 ** (-2 * i))
    assert gain(24, CIRCULAR) == pytest.approx(k, rel=1e-15)
    kh = 1.0
    for i in iteration_indices(HYPERBOLIC, 20):
        kh *= math.sqrt(1.0 - 2.0 ** (-2 * i))
    assert gain(20, HYPERBOLIC) == pytest.approx(kh, rel=1e-15)


def test_hyperbolic_indices_repeat():
    seq = iteration_indices(HYPERBOLIC, 16)
    assert seq[:6] == [1, 2, 3, 4, 4, 5]
    assert seq.count(4) == 2
    assert seq.count(13) == 2
    assert iteration_indices(CIRCULAR, 5) == [0, 1, 2, 3, 4]


def test_hyperbolic_rotation_gives_cosh_sinh():
    kh = gain(24, HYPERBOLIC)
    x, y, _ = cordic_rotate(fx(1.0 / kh), fx(0.0), fx(0.5), HYPERBOLIC, CFG)
    assert abs(x.real - math.cosh(0.5)) < 1e-5
    assert abs(y.real - math.sinh(0.5)) < 1e-5


def test_sincos_examples():
    c, s = sincos_cordic(fx(0.0), CFG)
    assert abs(c.real - 1.0) < 1e-6
    assert abs(s.real) < 1e-6
    c, s = sincos_cordic(fx(math.pi / 2), CFG)
    assert abs(c.real) < 1e-6
    assert abs(s.real - 1.0) < 1e-6
    # frozen double trig oracle values for 1 radian
    c, s = sincos_cordic(fx(1.0), CFG)
    assert abs(c.real - 0.5403023058681398) < 1e-6
    assert abs(s.real - 0.8414709848078965) < 1e-6


def test_sincos_full_circle_and_pythagoras():
    tol = sincos_tolerance(CFG)
    rng = random.Random(11)
    for _ in range(400):
        th = rng.uniform(-2 * math.pi, 2 * math.pi)
        c, s = sincos_cordic(fx(th), CFG)
        assert abs(c.real - math.cos(th)) <= tol
        assert abs(s.real - math.sin(th)) <= tol
        assert abs(c.real**2 + s.real**2 - 1.0) <= 4 * tol


def test_rotation_residual_bound():
    rng = random.Random(12)
    bound = math.atan(2.0 ** -(CFG.n_iter - 1)) + Q8_24.eps
    for _ in range(200):
        z0 = rng.uniform(-1.7, 1.7)
        _, _, z = cordic_rotate(fx(0.3), fx(0.1), fx(z0), CIRCULAR, CFG)
        assert abs(z.real) <= bound


def test_norm_growth_matches_gain():
    rng = random.Random(13)
    k = gain(24, CIRCULAR)
    for _ in range(200):
        x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        z0 = rng.uniform(-1.7, 1.7)
        x, y, _ = cordic_rotate(fx(x0), fx(y0), fx(z0), CIRCULAR, CFG)
        got = math.hypot(x.real, y.real)
        want = k * math.hypot(fx(x0).real, fx(y0).real)
        assert abs(got - want) <= CFG.n_iter * Q8_24.eps


def test_circ_rotate_any_angle():
    rng = random.Random(14)
    for _ in range(100):
        x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        ang = rng.uniform(-3 * math.pi, 3 * math.pi)
        x, y = circ_rotate(fx(x0), fx(y0), ang, CFG)
        ex = x0 * math.cos(ang) - y0 * math.sin(ang)
        ey = y0 * math.cos(ang) + x0 * math.sin(ang)
        assert abs(x.real - ex) < 2e-6
        assert abs(y.real - ey) < 2e-6
