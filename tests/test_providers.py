"""The trig-provider contract, checked on every provider in one table.

Each row of PROVIDERS is an emulated sin/cos provider at one config, with
its tolerance against exact_sincos, its symmetry class and its sine of
-0.0; every property below runs on every row, and the last test states
the oracle's own rules.  Backend-specific checks (CORDIC's gain and
residual, Taylor's remainder bound, the LUT file format and block threads)
stay in the backend's own test module, and the sha256 pins of the
providers' outputs are rows of the bits ledger, test_pins.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fkemu import lut
from fkemu.cordic import DEFAULT_CONFIG as CORDIC_CONFIG, CordicConfig, sincos_cordic, sincos_tolerance
from fkemu.dh import exact_sincos
from fkemu.fixedpoint import HALF_PI, MAX_ANGLE, DomainError, Q1_15, QFormat
from fkemu.taylor import TaylorConfig, remainder_bound, taylor_sincos


@dataclass(frozen=True)
class Provider:
    sincos: Callable
    tolerance: float  # bound on |cos - cos_exact| and |sin - sin_exact| over the domain
    odd: bool  # bit-exact odd sine and even cosine; otherwise each side within tolerance
    sin_neg_zero: float  # the sine of -0.0: -0.0 where zero sines are signed, else every zero sine is +0.0


def taylor_row(cfg: TaylorConfig, tolerance: float) -> Provider:
    return Provider(partial(taylor_sincos, cfg=cfg), tolerance, True, 0.0)


def lut_row(n_entries: int, mode: str, fmt: QFormat | None = None) -> Provider:
    table = lut.build_table(n_entries, fmt, mode)
    # a quantized entry is off by up to one LSB (1.0 saturates); the fold
    # drifts by up to 4e-11 at MAX_ANGLE, margin on the tight linear bound
    bound = table.step if mode == lut.NEAREST else table.step**2 / 8 + (fmt.eps if fmt else 0.0) + 1e-10
    return Provider(partial(lut.lut_sincos, table=table), bound, True, -0.0)


CORDIC_Q4_12 = CordicConfig(12, QFormat(16, 12))
PROVIDERS = {
    "cordic": Provider(sincos_cordic, sincos_tolerance(CORDIC_CONFIG), False, 0.0),
    "cordic-q4.12": Provider(partial(sincos_cordic, cfg=CORDIC_Q4_12), sincos_tolerance(CORDIC_Q4_12), False, 0.0),
    "taylor": taylor_row(TaylorConfig(), 2.0**-13),
    # three terms leave the cosine's truncation bound on [0, pi/4], the larger one
    "taylor-3": taylor_row(TaylorConfig(n_terms=3), 2.0**-13 + remainder_bound(HALF_PI / 2, 5, "cos")),
    "lut-nearest": lut_row(1024, lut.NEAREST),
    "lut-linear": lut_row(256, lut.LINEAR),
    "lut-linear-q1.15": lut_row(1024, lut.LINEAR, Q1_15),
}

OUTSIDE = [math.nan, math.inf, -math.inf, math.nextafter(MAX_ANGLE, math.inf), math.nextafter(-MAX_ANGLE, -math.inf)]
SPECIAL = [0.0, -0.0, MAX_ANGLE, -MAX_ANGLE, 5e-324, -5e-324, 1e-9, -1e-9] + [k * math.pi / 4 for k in range(-9, 10)]
PICKS = st.lists(st.floats(-MAX_ANGLE, MAX_ANGLE) | st.sampled_from(SPECIAL), min_size=6, max_size=6)


@st.composite
def angle_arrays(draw):
    """256 seeded angles over the domain and 256 within 8 rad, then six drawn ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.concatenate([rng.uniform(-MAX_ANGLE, MAX_ANGLE, 256), rng.uniform(-8.0, 8.0, 256), draw(PICKS)])


def _bits(x):
    # == cannot tell 0.0 from -0.0; the bytes can
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("name", PROVIDERS)
def test_outside_the_domain_raises(name):
    sincos = PROVIDERS[name].sincos
    last_lane = np.linspace(-MAX_ANGLE, MAX_ANGLE, 2 * lut.BLOCK + 3)
    for angle in OUTSIDE:
        last_lane[-1] = angle
        for theta in (angle, np.array([0.1, angle, 0.2]), np.array([[0.1], [angle]]), last_lane):
            with pytest.raises(DomainError):
                sincos(theta)


@pytest.mark.parametrize("name", PROVIDERS)
@settings(max_examples=10, deadline=None)
@given(theta=angle_arrays())
def test_within_tolerance_of_the_oracle(name, theta):
    row = PROVIDERS[name]
    for got, want in zip(row.sincos(theta), exact_sincos(theta), strict=True):
        assert np.abs(got - want).max() <= row.tolerance


@pytest.mark.parametrize("name", PROVIDERS)
@settings(max_examples=10, deadline=None)
@given(theta=angle_arrays())
def test_symmetry_by_class(name, theta):
    row = PROVIDERS[name]
    (c, s), (c_neg, s_neg) = row.sincos(theta), row.sincos(-theta)
    if np.signbit(row.sin_neg_zero):
        want = -s
    else:
        want = 0.0 - s  # -s, but +0.0 for a zero sine
        assert not np.signbit(s[s == 0.0]).any()
    if row.odd:
        assert _bits(c_neg) == _bits(c)
        assert _bits(s_neg) == _bits(want)
    else:
        assert np.abs(c_neg - c).max() <= 2 * row.tolerance
        assert np.abs(s_neg - want).max() <= 2 * row.tolerance


@pytest.mark.parametrize("name", PROVIDERS)
def test_sine_of_signed_zero(name):
    row = PROVIDERS[name]
    for theta, want in ((0.0, 0.0), (-0.0, row.sin_neg_zero)):
        assert _bits(row.sincos(theta)[1]) == _bits(want)
        assert _bits(row.sincos(np.array([theta]))[1]) == _bits([want])


@pytest.mark.parametrize("name", PROVIDERS)
@settings(max_examples=3, deadline=None)
@example(seed=0, picks=[0.0, -0.0, MAX_ANGLE, -MAX_ANGLE, 5e-324, -5e-324])
@given(seed=st.integers(0, 2**32 - 1), picks=PICKS)
def test_array_equals_scalar_across_blocks(name, seed, picks):
    # three blocks, the last of three angles; the drawn angles sit at the
    # array's and every block's ends, where a block bound would show
    sincos, size = PROVIDERS[name].sincos, 2 * lut.BLOCK + 3
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-8 * math.pi, 8 * math.pi, size)
    # multiples of pi/4096: the ties between the entries of any table of up to 1024
    flat[::5] = rng.integers(-16384, 16384, flat[::5].size) * (HALF_PI / 2048)
    ends = [0, lut.BLOCK - 1, lut.BLOCK, 2 * lut.BLOCK - 1, 2 * lut.BLOCK, size - 1]
    flat[ends] = picks
    at = np.union1d(ends, rng.choice(size, 8, replace=False))
    cos, sin = sincos(flat)
    pairs = [sincos(a) for a in flat[at].tolist()]
    assert _bits(cos[at]) == _bits([c for c, _ in pairs])
    assert _bits(sin[at]) == _bits([s for _, s in pairs])
    # an n-d array has the bits of the same angles in a flat one
    assert _bits(sincos(flat[:24].reshape(2, 3, 4))) == _bits((cos[:24], sin[:24]))


@pytest.mark.parametrize("name", PROVIDERS)
def test_result_kinds(name):
    sincos = PROVIDERS[name].sincos
    for theta, angle in ((0.7, 0.7), (np.float64(0.7), 0.7), (np.array(0.7), 0.7), (1, 1.0)):
        c, s = sincos(theta)
        assert type(c) is float and type(s) is float
        assert (c, s) == sincos(angle)
    for shape in [(0,), (3, 0), (5,), (2, 3, 4)]:
        for dtype in (np.float64, np.float32):
            theta = np.linspace(-4.0, 4.0, math.prod(shape)).astype(dtype).reshape(shape)
            for v in sincos(theta):
                assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == shape


@pytest.mark.parametrize("name", PROVIDERS)
def test_caller_array_not_written(name):
    sincos = PROVIDERS[name].sincos
    rng = np.random.default_rng(7)
    for theta in (rng.uniform(-8.0, 8.0, (3, 5)), rng.uniform(-8.0, 8.0, lut.BLOCK + 1)):
        theta.ravel()[::4] = -0.0
        kept = theta.copy()
        got = sincos(theta)
        assert _bits(theta) == _bits(kept)
        theta.flags.writeable = False
        assert _bits(sincos(theta)) == _bits(got)


def test_the_oracle_keeps_its_own_rules():
    # exact_sincos is math.cos/math.sin on a float and np.cos/np.sin on an
    # array: a 0-d array gives numpy scalars, float32 stays float32, no
    # finite angle is outside its domain, and it is bit-exactly odd and
    # even, sin(-0.0) = -0.0 included
    c, s = exact_sincos(np.array(0.7))
    assert type(c) is np.float64 and type(s) is np.float64
    cos, sin = exact_sincos(np.array([0.7, -0.7], dtype=np.float32))
    assert cos.dtype == sin.dtype == np.float32
    assert np.isfinite(exact_sincos(np.array([1e300, -1e300]))).all() and all(map(math.isfinite, exact_sincos(1e300)))
    theta = np.array([0.0, 0.7, -2.5, 6.0])
    (c, s), (c_neg, s_neg) = exact_sincos(theta), exact_sincos(-theta)
    assert _bits((c_neg, s_neg)) == _bits((c, -s))  # s[0] is 0.0, s_neg[0] -0.0
