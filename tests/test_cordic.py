import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkemu.ccm import ccm_points
from fkemu.cordic import (
    CIRCULAR,
    CordicConfig,
    LINEAR,
    _mirror,
    _sigma_pass,
    _turn_moves,
    _unmirror,
    circ_rotate_lanes,
    circ_rotate_sigmas,
    circ_sigmas,
    cordic_step,
    gain,
    linear_accumulate,
    linear_unit_lanes,
    sincos_cordic,
    sincos_tolerance,
)
from fkemu.dh import ChainSet
from fkemu.fixedpoint import (
    HALF_PI,
    MAX_ANGLE,
    Q8_24,
    QFormat,
    fx_from_real,
    lane_dtype,
    lanes_from_real,
    lanes_real,
    quarter_turns,
)
from reference import cordic_lanes, linear_lanes

CFG = CordicConfig(24, Q8_24)


def fx(v):
    return fx_from_real(v, Q8_24)


def fx_real(v):
    """v quantized to Q8.24, as the real its raw stands for (exact: a power-of-two scale)."""
    return fx(v) * Q8_24.eps


def quantized(*reals):
    return (lanes_from_real(np.atleast_1d(v), Q8_24) for v in reals)


def rotate(x0, y0, z0):
    """cordic_lanes on Q8.24 lanes quantized from the reals; returns the real outputs."""
    return tuple(lanes_real(v, Q8_24) for v in cordic_lanes(*quantized(x0, y0, z0), CFG))


def test_config_validation():
    with pytest.raises(ValueError):
        CordicConfig(0, Q8_24)
    with pytest.raises(ValueError):
        CordicConfig(27, Q8_24)  # beyond frac_bits + 2
    with pytest.raises(ValueError, match=r"^shift 8 out of range for Q1\.7$"):
        CordicConfig(9, QFormat(8, 7))  # within frac_bits + 2, but step 8 shifts a whole 8-bit word


def test_step_linear_example():
    x, y, z = fx(1.0), fx(0.0), fx(0.5)
    assert cordic_step(x, y, z, 1, LINEAR, 1, Q8_24) == (x, fx(0.5), 0)


def test_step_circular_example():
    x, y, z = cordic_step(fx(1.0), fx(0.0), fx(0.0), 0, CIRCULAR, 1, Q8_24)
    assert (x, y) == (fx(1.0), fx(1.0))
    assert abs(z * Q8_24.eps + math.atan(1.0)) < Q8_24.eps


def test_step_linear_cancels():
    x, y, z = fx(0.7), fx(0.3), fx(0.2)
    fwd = cordic_step(x, y, z, 3, LINEAR, 1, Q8_24)
    assert cordic_step(*fwd, 3, LINEAR, -1, Q8_24)[1] == y


def test_step_rejects_bad_sigma():
    with pytest.raises(ValueError):
        cordic_step(fx(1.0), fx(0.0), fx(0.0), 0, CIRCULAR, 0, Q8_24)


@pytest.mark.parametrize("mode", [CIRCULAR, LINEAR])
def test_step_rejects_shift_beyond_word(mode):
    for i in (Q8_24.word_bits, Q8_24.word_bits + 5):
        with pytest.raises(ValueError):
            cordic_step(fx(1.0), fx(0.5), fx(0.25), i, mode, 1, Q8_24)


def test_rotate_linear_is_multiply_accumulate():
    # lane 0: (1, a, b) -> y = a + b
    rng = random.Random(10)
    x0, y0, z0 = np.array([(1.0, 0.25, 0.6)] + [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1.9, 1.9)) for _ in range(50)
    ]).T
    y = lanes_real(linear_lanes(*quantized(x0, y0, z0), CFG), Q8_24)
    assert abs(y[0] - 0.85) < 1e-6
    assert (np.abs(y - (y0 + x0 * z0)) <= CFG.n_iter * Q8_24.eps + np.abs(x0) * 2.0 ** (1 - CFG.n_iter)).all()


def test_rotate_zero_angle_returns_gain():
    x, y, _ = rotate(1.0 / gain(24), 0.0, 0.0)
    assert abs(x[0] - 1.0) < 1e-6
    assert abs(y[0]) < 1e-6


def test_rotate_pi_over_six():
    # double-precision trig oracle, frozen
    x, y, _ = rotate(1.0 / gain(24), 0.0, math.pi / 6)
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
    c, s = sincos_cordic(fx_real(0.0), CFG)
    assert abs(c - 1.0) < 1e-6
    assert abs(s) < 1e-6
    c, s = sincos_cordic(fx_real(math.pi / 2), CFG)
    assert abs(c) < 1e-6
    assert abs(s - 1.0) < 1e-6
    # frozen double trig oracle values for 1 radian
    c, s = sincos_cordic(fx_real(1.0), CFG)
    assert abs(c - 0.5403023058681398) < 1e-6
    assert abs(s - 0.8414709848078965) < 1e-6


def test_sincos_full_circle_and_pythagoras():
    tol = sincos_tolerance(CFG)
    rng = random.Random(11)
    for _ in range(400):
        th = rng.uniform(-2 * math.pi, 2 * math.pi)
        c, s = sincos_cordic(fx_real(th), CFG)
        assert abs(c - math.cos(th)) <= tol
        assert abs(s - math.sin(th)) <= tol
        assert abs(c**2 + s**2 - 1.0) <= 4 * tol


def test_rotation_residual_bound():
    rng = random.Random(12)
    bound = math.atan(2.0 ** -(CFG.n_iter - 1)) + Q8_24.eps
    z0 = np.array([rng.uniform(-1.7, 1.7) for _ in range(200)])
    _, _, z = rotate(np.full(200, 0.3), np.full(200, 0.1), z0)
    assert np.abs(z).max() <= bound


def test_norm_growth_matches_gain():
    rng = random.Random(13)
    x0, y0, z0 = np.array([(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1.7, 1.7)) for _ in range(200)]).T
    x, y, _ = rotate(x0, y0, z0)
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
    for i in range(cfg.n_iter):
        x, y, z = cordic_step(x, y, z, i, mode, 1 if z >= 0 else -1, cfg.fmt)
    return x, y, z


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
@given(lane_batches())
def test_lane_kernel_equals_scalar_reference(batch):
    # the circular loop: a sigma pass over z, then the stacked (x, y) steps,
    # every clip kept, so saturating raws must match too
    cfg, lanes = batch
    x, y, z = (np.array(v, dtype=lane_dtype(cfg.fmt)) for v in zip(*lanes))
    out = cordic_lanes(x, y, z, cfg)
    for k, lane in enumerate(lanes):
        want = scalar_reference(*lane, CIRCULAR, cfg)
        assert tuple(int(v[k]) for v in out) == want


@st.composite
def z_batches(draw):
    # raws across the whole range, its ends and the fold's residual bound
    # +-pi/4 included, in formats down to a one-bit integer part (Q1.7,
    # Q1.15), where e_0 is most of the range
    fmt = draw(st.sampled_from([QFormat(8, 7), QFormat(16, 15), QFormat(8, 5), QFormat(8, 4), Q8_24, QFormat(56, 40)]))
    cfg = CordicConfig(draw(st.integers(1, min(fmt.frac_bits + 2, fmt.word_bits))), fmt)
    folded = int(lanes_from_real(HALF_PI / 2, fmt))
    raw = st.one_of(st.sampled_from([fmt.min_raw, fmt.max_raw, -folded, folded, 0, -1, 1]),
                    st.integers(fmt.min_raw, fmt.max_raw))
    return cfg, draw(st.lists(raw, min_size=1, max_size=8))


@settings(deadline=None)
@given(z_batches())
def test_sigma_pass_without_clip_equals_scalar_reference(batch):
    # the z pass runs no clip: from any raw, each lane's sigmas and final
    # residual must be those of cordic_step, which saturates every update
    cfg, zs = batch
    # sigmas are mirrored: -sigma at lane k, +sigma at 2*lanes - 1 - k
    sigmas, z = _sigma_pass(np.array(zs, dtype=lane_dtype(cfg.fmt)), cfg)
    assert sigmas.shape == (cfg.n_iter, 2 * len(zs))
    minus, plus = _unmirror(sigmas)
    for k, zk in enumerate(zs):
        for i in range(cfg.n_iter):
            sigma = 1 if zk >= 0 else -1
            assert [minus[i, k], plus[i, k]] == [-sigma, sigma]
            zk = cordic_step(0, 0, zk, i, CIRCULAR, sigma, cfg.fmt)[2]
        assert int(z[k]) == zk


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-(1 << 40), 1 << 40), st.integers(-(1 << 40), 1 << 40)),
                min_size=1, max_size=8), st.sampled_from([np.int64, object]))
def test_turn_moves_on_a_stack_are_quarter_turns(lanes, dtype):
    # a stage plan holds the moves of its quarter turns, applied to (x, y)
    # as one mirrored stack, whose reversal swaps x and y
    q, x, y = (np.array(v, dtype=t) for v, t in zip(zip(*lanes), (np.int64, dtype, dtype)))
    swap, signs = _turn_moves(q, dtype)
    v = _mirror(x, y)
    assert v.shape == swap.shape == signs.shape == (2 * len(lanes),)
    assert signs.dtype == v.dtype
    assert [r.tolist() for r in _unmirror(v)] == [x.tolist(), y.tolist()]
    moved = np.where(swap, v[::-1], v) * signs
    assert moved.dtype == v.dtype
    assert [r.tolist() for r in _unmirror(moved)] == [r.tolist() for r in quarter_turns(q, x, y)]


PLAN_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, HALF_PI / 2, -HALF_PI / 2, HALF_PI, -math.pi, MAX_ANGLE, -MAX_ANGLE]),
    st.floats(-MAX_ANGLE, MAX_ANGLE),
)


@settings(deadline=None)
@given(st.sampled_from([CordicConfig(24, Q8_24), CordicConfig(40, QFormat(56, 40))]),
       st.integers(1, 3), st.integers(1, 5), st.data())
def test_stacked_plan_equals_the_plans_of_its_rows(cfg, links, lanes, data):
    # the cascade makes one plan for a (links, 2, lanes) angle stack and
    # slices it at [link, stage]: each slice must have the bits, dtype and
    # shape of circ_sigmas on that row alone, on int64 and object lanes
    n = links * 2 * lanes
    angles = np.array(data.draw(st.lists(PLAN_ANGLES, min_size=n, max_size=n))).reshape(links, 2, lanes)
    plan = circ_sigmas(angles, cfg)
    for link in range(links):
        for stage in range(2):
            row = circ_sigmas(angles[link, stage], cfg)
            assert [v.dtype for v in row] == [np.bool_, lane_dtype(cfg.fmt), lane_dtype(cfg.fmt)]
            for stacked, want in zip(plan, row, strict=True):
                got = stacked[link, stage]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tolist() == want.tolist()


def _untouched(kernel, *arrays):
    """Run kernel() and assert it leaves every array of arrays as it was,
    byte for byte (on object lanes, the same int objects), and returns no
    array sharing memory with one of them.  A ValueError (DomainError
    included) counts as a return."""
    before = [(a.dtype, a.shape, a.tobytes()) for a in arrays]
    try:
        out = kernel()
    except ValueError:
        out = ()
    assert [(a.dtype, a.shape, a.tobytes()) for a in arrays] == before
    for o in out if isinstance(out, tuple) else (out,):
        assert not any(np.shares_memory(o, a) for a in arrays)


# Q8.24 and Q4.12 on int64 lanes, Q16.40 on object lanes
KERNEL_CONFIGS = [CordicConfig(24, Q8_24), CordicConfig(12, QFormat(16, 12)), CordicConfig(40, QFormat(56, 40))]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(KERNEL_CONFIGS), st.booleans(), st.integers(1, 6), st.data())
def test_no_kernel_writes_its_callers_arrays(cfg, saturate, lanes, data):
    # the kernels write their ufunc outputs in place, into arrays they
    # allocated: never into what the caller passed, on int64 and object
    # lanes, with every clip and with none
    fmt, dtype = cfg.fmt, lane_dtype(cfg.fmt)
    raw = st.one_of(st.sampled_from([fmt.min_raw, fmt.max_raw, 0, -1, 1]), st.integers(fmt.min_raw, fmt.max_raw))

    def drawn(elements, shape, dtype=None):
        n = math.prod(shape)
        return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype).reshape(shape)

    angle = drawn(PLAN_ANGLES, (2, lanes))
    _untouched(lambda: circ_sigmas(angle, cfg), angle)
    x, y, plan = drawn(raw, (lanes,), dtype), drawn(raw, (lanes,), dtype), circ_sigmas(angle[0], cfg)
    _untouched(lambda: circ_rotate_sigmas(x, y, *plan, cfg, saturate), x, y, *plan)
    const, value = drawn(raw, (2, lanes), dtype), drawn(raw, (2, lanes), dtype)
    _untouched(lambda: linear_accumulate(const, value, cfg), const, value)
    k = drawn(st.integers(0, fmt.word_bits - fmt.frac_bits - 2), (2, lanes), np.int64)
    _untouched(lambda: linear_unit_lanes(const, value, k, cfg), const, value, k)
    fields = [drawn(st.floats(-3.0, 3.0), (lanes, 1)) for _ in range(4)]
    points = drawn(st.floats(-2.0, 2.0), (lanes, 4))
    points[:, 3] = data.draw(st.sampled_from([0.0, 1.0]))
    _untouched(lambda: ccm_points(ChainSet(*fields), points, cfg), points, *fields)


@st.composite
def linear_batches(draw):
    # 1.0 must be a power-of-two raw, frac_bits <= word_bits - 2: Q2.14 and
    # Q2.62 sit at that edge, the latter on object lanes with T beyond int64
    fmt = draw(st.sampled_from(LANE_FORMATS + [QFormat(16, 14), QFormat(64, 62)]))
    # frac_bits + 2 iterations end on a micro-angle that rounds to 0
    cfg = CordicConfig(draw(st.one_of(st.just(fmt.frac_bits + 2), st.integers(1, fmt.frac_bits + 2))), fmt)
    # |y0| + sum |x0 >> i| <= |y0| + 2|x0| + n_iter, under 3/4 of the range
    # plus n_iter: no partial sum saturates
    quarter = fmt.max_raw // 4
    operand = st.one_of(st.sampled_from([-quarter, quarter, 0, -1, 1]), st.integers(-quarter, quarter))
    # z0 up to 3x the convergence range, the sum of the micro-angles (~2.0)
    reach = min(3 * (2 << fmt.frac_bits), fmt.max_raw)
    angle = st.one_of(st.sampled_from([-reach, reach, 0, -1, 1]), st.integers(-reach, reach))
    lanes = draw(st.lists(st.tuples(operand, operand, angle), min_size=1, max_size=6))
    return cfg, lanes


@settings(deadline=None)
@given(linear_batches())
def test_linear_lanes_equal_scalar_reference(batch):
    cfg, lanes = batch
    x, y, z = (np.array(v, dtype=lane_dtype(cfg.fmt)) for v in zip(*lanes))
    out = linear_lanes(x, y, z, cfg)
    assert out.dtype == lane_dtype(cfg.fmt)
    for k, lane in enumerate(lanes):
        assert int(out[k]) == scalar_reference(*lane, LINEAR, cfg)[1]


@st.composite
def unit_batches(draw):
    # linear_unit_lanes' operands: k from 0 to word_bits - frac_bits - 2
    # per lane, n_iter up to frac_bits + 2, where lo depends on k, and z at
    # +-2**(F+1) and its neighbours; Q2.62's T lies beyond int64
    fmt = draw(st.sampled_from(LANE_FORMATS + [QFormat(16, 14), QFormat(64, 62)]))
    cfg = CordicConfig(draw(st.one_of(st.just(fmt.frac_bits + 2), st.integers(1, fmt.frac_bits + 2))), fmt)
    top = 1 << (fmt.frac_bits + 1)
    edges = [s * top + d for s in (-1, 1) for d in (-1, 0, 1)] + [fmt.min_raw, fmt.max_raw, 0, -1, 1]
    z = st.one_of(st.sampled_from([v for v in edges if fmt.min_raw <= v <= fmt.max_raw]),
                  st.integers(max(-top, fmt.min_raw), min(top, fmt.max_raw)), st.integers(fmt.min_raw, fmt.max_raw))
    lanes = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, fmt.word_bits - fmt.frac_bits - 2))
        # |y0| <= room keeps every partial sum of the loop in the format
        room = fmt.max_raw - sum((1 << (fmt.frac_bits + k)) >> i for i in range(cfg.n_iter))
        y = st.one_of(st.sampled_from([0, -room, room, fmt.min_raw, fmt.max_raw]),
                      st.integers(-room, room), st.integers(fmt.min_raw, fmt.max_raw))
        lanes.append((draw(y), draw(z), k))
    return cfg, lanes


@settings(deadline=None)
@given(unit_batches())
def test_linear_unit_lanes_equal_tensor_form_and_scalar_reference(batch):
    # the closed form summed by hand: the tensor form's integer on every
    # input, and the loop's wherever no partial sum saturates
    cfg, lanes = batch
    fmt, dtype = cfg.fmt, lane_dtype(cfg.fmt)
    y, z = (np.array(v, dtype=dtype) for v in list(zip(*lanes))[:2])
    k = np.array([lane[2] for lane in lanes], dtype=np.int64)
    x = np.array([1 << (fmt.frac_bits + kk) for kk in k.tolist()], dtype=dtype)
    out = linear_unit_lanes(y, z, k, cfg)
    assert out.dtype == dtype
    assert out.tolist() == linear_lanes(x, y, z, cfg).tolist()
    for j, (y0, z0, _) in enumerate(lanes):
        x0 = int(x[j])
        if abs(y0) <= fmt.max_raw - sum(x0 >> i for i in range(cfg.n_iter)):
            assert int(out[j]) == scalar_reference(x0, y0, z0, LINEAR, cfg)[1]


def test_linear_lanes_reject_formats_without_power_of_two_one():
    one, cfg = np.array([1]), CordicConfig(15, QFormat(16, 15))
    with pytest.raises(ValueError, match="power-of-two"):  # Q1.15: 1.0 saturates
        linear_lanes(one, one, one, cfg)
    with pytest.raises(ValueError, match="power-of-two"):
        linear_unit_lanes(one, one, np.zeros(1, dtype=np.int64), cfg)


def test_lane_dtype_follows_word_width():
    assert lane_dtype(QFormat(32, 24)) is np.int64
    assert lane_dtype(QFormat(33, 24)) is object
    x, y, z = (np.array([v], dtype=object) for v in (1 << 40, 0, 1 << 38))
    out = cordic_lanes(x, y, z, CordicConfig(40, QFormat(56, 40)))
    assert all(type(v[0]) is int for v in out)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-MAX_ANGLE, MAX_ANGLE), min_size=1, max_size=8))
def test_sincos_cordic_array_equals_float_calls(angles):
    # on object lanes, which tests/test_providers.py leaves out: its arrays
    # of 2*BLOCK + 3 angles would take seconds on them
    cfg = CordicConfig(40, QFormat(56, 40))
    cos, sin = sincos_cordic(np.array(angles).reshape(-1, 1), cfg)
    for k, a in enumerate(angles):
        assert np.array(sincos_cordic(a, cfg)).tobytes() == np.array([cos[k, 0], sin[k, 0]]).tobytes()


def _pin_angles():
    grid = np.linspace(-4 * math.pi, 4 * math.pi, 2001)
    special = [0.0, -0.0, MAX_ANGLE, -MAX_ANGLE] + [k * math.pi / 4 for k in range(-16, 17)]
    return np.concatenate([grid, special])


# sha256 of sincos_cordic's (cos, sin) bytes on _pin_angles, captured before
# the step constants were cached per config.  Q4.12 and Q8.24 share int64
# lanes, and the 56-bit word runs object lanes.
SINCOS_PINS = {
    CordicConfig(24, Q8_24): "8f004df06a98aeb3fada28171bb341921c7e710db69ebfddac611b34fe7c5334",
    CordicConfig(40, QFormat(56, 40)): "81d3d793fa8bef00ed3e12e1eef778a53fad5463e2af64c86fa6734877a2a7c7",
    CordicConfig(14, QFormat(16, 12)): "cfd4007cb2fd203e91f81546252e84d711d7cdcc0abadf8a9f3a53da4e50977c",
}


def test_sincos_cordic_pinned_across_alternating_configs():
    # the configs take turns in one process, so a constant cached for one of
    # them and read by another moves a digest
    a, b, c = SINCOS_PINS
    for cfg in (a, b, a, c, b, c, a):
        cos, sin = sincos_cordic(_pin_angles(), cfg)
        assert hashlib.sha256(cos.tobytes() + sin.tobytes()).hexdigest() == SINCOS_PINS[cfg]
