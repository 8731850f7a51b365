import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkemu.cordic import (
    CIRCULAR,
    CordicConfig,
    CordicState,
    LINEAR,
    circ_rotate_lanes,
    cordic_lanes,
    cordic_step,
    gain,
    sincos_cordic,
    sincos_tolerance,
)
from fkemu.fixedpoint import (
    MAX_ANGLE,
    Q8_24,
    DomainError,
    Fx,
    QFormat,
    fx_from_real,
    lane_dtype,
    lanes_from_real,
    lanes_real,
)

CFG = CordicConfig(24, Q8_24)


def fx(v):
    return fx_from_real(v, Q8_24)


def rotate(x0, y0, z0, mode):
    """cordic_lanes on Q8.24 lanes quantized from the reals; returns the real outputs."""
    out = cordic_lanes(*(lanes_from_real(np.atleast_1d(v), Q8_24) for v in (x0, y0, z0)), mode, CFG)
    return tuple(lanes_real(v, Q8_24) for v in out)


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
    # lane 0: (1, a, b) -> y = a + b
    rng = random.Random(10)
    x0, y0, z0 = np.array([(1.0, 0.25, 0.6)] + [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1.9, 1.9)) for _ in range(50)
    ]).T
    _, y, _ = rotate(x0, y0, z0, LINEAR)
    assert abs(y[0] - 0.85) < 1e-6
    assert (np.abs(y - (y0 + x0 * z0)) <= CFG.n_iter * Q8_24.eps + np.abs(x0) * 2.0 ** (1 - CFG.n_iter)).all()


def test_rotate_zero_angle_returns_gain():
    x, y, _ = rotate(1.0 / gain(24), 0.0, 0.0, CIRCULAR)
    assert abs(x[0] - 1.0) < 1e-6
    assert abs(y[0]) < 1e-6


def test_rotate_pi_over_six():
    # double-precision trig oracle, frozen
    x, y, _ = rotate(1.0 / gain(24), 0.0, math.pi / 6, CIRCULAR)
    assert abs(x[0] - 0.8660254037844387) < 1e-6
    assert abs(y[0] - 0.5) < 1e-6


def test_gain_values():
    assert gain(1) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # independent product loop
    k = 1.0
    for i in range(24):
        k *= math.sqrt(1.0 + 2.0 ** (-2 * i))
    assert gain(24) == pytest.approx(k, rel=1e-15)


def test_sincos_examples():
    c, s = sincos_cordic(fx(0.0).real, CFG)
    assert abs(c - 1.0) < 1e-6
    assert abs(s) < 1e-6
    c, s = sincos_cordic(fx(math.pi / 2).real, CFG)
    assert abs(c) < 1e-6
    assert abs(s - 1.0) < 1e-6
    # frozen double trig oracle values for 1 radian
    c, s = sincos_cordic(fx(1.0).real, CFG)
    assert abs(c - 0.5403023058681398) < 1e-6
    assert abs(s - 0.8414709848078965) < 1e-6


def test_sincos_full_circle_and_pythagoras():
    tol = sincos_tolerance(CFG)
    rng = random.Random(11)
    for _ in range(400):
        th = rng.uniform(-2 * math.pi, 2 * math.pi)
        c, s = sincos_cordic(fx(th).real, CFG)
        assert abs(c - math.cos(th)) <= tol
        assert abs(s - math.sin(th)) <= tol
        assert abs(c**2 + s**2 - 1.0) <= 4 * tol


@given(st.floats(-MAX_ANGLE, MAX_ANGLE))
def test_sincos_error_bound_over_domain(th):
    # odd symmetry is not bit-exact (shifts truncate toward -inf), so the
    # mirrored angle is held to the same tolerance instead
    tol = sincos_tolerance(CFG)
    for a in (th, -th):
        c, s = sincos_cordic(a, CFG)
        assert abs(c - math.cos(a)) <= tol
        assert abs(s - math.sin(a)) <= tol


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, math.nextafter(MAX_ANGLE, math.inf), -1e16])
def test_sincos_outside_domain_raises(angle):
    with pytest.raises(DomainError):
        sincos_cordic(angle, CFG)


def test_rotation_residual_bound():
    rng = random.Random(12)
    bound = math.atan(2.0 ** -(CFG.n_iter - 1)) + Q8_24.eps
    z0 = np.array([rng.uniform(-1.7, 1.7) for _ in range(200)])
    _, _, z = rotate(np.full(200, 0.3), np.full(200, 0.1), z0, CIRCULAR)
    assert np.abs(z).max() <= bound


def test_norm_growth_matches_gain():
    rng = random.Random(13)
    x0, y0, z0 = np.array([(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1.7, 1.7)) for _ in range(200)]).T
    x, y, _ = rotate(x0, y0, z0, CIRCULAR)
    want = gain(24) * np.hypot(*(lanes_real(lanes_from_real(v, Q8_24), Q8_24) for v in (x0, y0)))
    assert np.abs(np.hypot(x, y) - want).max() <= CFG.n_iter * Q8_24.eps


def test_circ_rotate_any_angle():
    rng = np.random.default_rng(14)
    x0, y0 = rng.uniform(-1, 1, (2, 100))
    ang = rng.uniform(-3 * math.pi, 3 * math.pi, 100)
    xs, ys = circ_rotate_lanes(lanes_from_real(x0, Q8_24), lanes_from_real(y0, Q8_24), ang, CFG)
    x, y = lanes_real(xs, Q8_24), lanes_real(ys, Q8_24)
    ex = x0 * np.cos(ang) - y0 * np.sin(ang)
    ey = y0 * np.cos(ang) + x0 * np.sin(ang)
    assert np.abs(x - ex).max() < 2e-6
    assert np.abs(y - ey).max() < 2e-6


# a 16-bit word saturates quickly; Q8.24 is the default; a 56-bit word
# runs on object lanes
LANE_FORMATS = [QFormat(16, 12), Q8_24, QFormat(56, 40)]


def scalar_reference(x, y, z, mode, cfg):
    """The micro-rotation loop as a fold of cordic_step over one lane."""
    s = CordicState(Fx(x, cfg.fmt), Fx(y, cfg.fmt), Fx(z, cfg.fmt), 0)
    for _ in range(cfg.n_iter):
        s = cordic_step(s, mode, 1 if s.z.raw >= 0 else -1)
    return s.x.raw, s.y.raw, s.z.raw


@st.composite
def lane_batches(draw):
    fmt = draw(st.sampled_from(LANE_FORMATS))
    cfg = CordicConfig(draw(st.integers(1, fmt.frac_bits + 2)), fmt)
    raw = st.one_of(
        st.sampled_from([fmt.min_raw, fmt.max_raw, 0, -1, 1]),
        st.integers(fmt.min_raw, fmt.max_raw),
    )
    lanes = draw(st.lists(st.tuples(raw, raw, raw), min_size=1, max_size=6))
    return cfg, lanes


@settings(deadline=None)
@given(lane_batches(), st.sampled_from([CIRCULAR, LINEAR]))
def test_lane_kernel_equals_scalar_reference(batch, mode):
    cfg, lanes = batch
    x, y, z = (np.array(v, dtype=lane_dtype(cfg.fmt)) for v in zip(*lanes))
    out = cordic_lanes(x, y, z, mode, cfg)
    for k, lane in enumerate(lanes):
        want = scalar_reference(*lane, mode, cfg)
        assert tuple(int(v[k]) for v in out) == want


def test_lane_dtype_follows_word_width():
    assert lane_dtype(QFormat(32, 24)) is np.int64
    assert lane_dtype(QFormat(33, 24)) is object
    x, y, z = (np.array([v], dtype=object) for v in (1 << 40, 0, 1 << 38))
    out = cordic_lanes(x, y, z, CIRCULAR, CordicConfig(40, QFormat(56, 40)))
    assert all(type(v[0]) is int for v in out)


@settings(deadline=None)
@given(st.sampled_from(LANE_FORMATS), st.lists(st.floats(-MAX_ANGLE, MAX_ANGLE), min_size=1, max_size=8))
def test_sincos_cordic_array_equals_float_calls(fmt, angles):
    cfg = CordicConfig(fmt.frac_bits, fmt)
    cos, sin = sincos_cordic(np.array(angles).reshape(-1, 1), cfg)
    assert cos.shape == sin.shape == (len(angles), 1)
    assert cos.dtype == sin.dtype == np.float64
    for k, a in enumerate(angles):
        c, s = sincos_cordic(a, cfg)
        assert type(c) is float and type(s) is float
        assert np.array([c, s]).tobytes() == np.array([cos[k, 0], sin[k, 0]]).tobytes()
