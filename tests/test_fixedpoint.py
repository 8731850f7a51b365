import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fkemu.fixedpoint import (
    HALF_PI,
    MAX_ANGLE,
    TWO_PI,
    DomainError,
    Q1_15,
    Q8_24,
    QFormat,
    clip,
    fold_angle,
    fx_from_real,
    lane_dtype,
    lanes_from_real,
    lanes_real,
    quarter_turns,
    rescale,
)
from reference import Fx, fx_add, fx_cast, fx_mul, fx_quantize, fx_shr, fx_sub, quarter_turns_ref

ACC = QFormat(36, 31)  # the Taylor engine's default accumulator


def test_qformat_validation():
    with pytest.raises(ValueError):
        QFormat(4, 2)  # too narrow
    with pytest.raises(ValueError):
        QFormat(16, 16)  # no sign bit left
    with pytest.raises(ValueError):
        QFormat(16, -1)
    assert str(QFormat(32, 24)) == "Q8.24"


def test_from_real_examples():
    assert type(fx_from_real(0.5, Q1_15)) is int
    assert fx_from_real(0.5, Q1_15) == 0x4000
    assert fx_from_real(0.0, Q8_24) == 0
    assert fx_from_real(2.0, Q1_15) == 0x7FFF  # saturated
    assert fx_from_real(-3.0, Q1_15) == -0x8000


def test_from_real_rounds_half_to_even():
    # 1.5/2**15 sits exactly between raws 1 and 2
    assert fx_from_real(1.5 * 2**-15, Q1_15) == 2
    assert fx_from_real(2.5 * 2**-15, Q1_15) == 2


def test_add_sub_examples():
    q = Q1_15
    assert fx_add(fx_quantize(0.25, q), fx_quantize(0.25, q)).raw == 16384
    assert fx_add(fx_quantize(0.9, q), fx_quantize(0.9, q)).raw == 0x7FFF
    one = fx_quantize(1.0, Q8_24)
    assert fx_sub(one, one).raw == 0


def test_format_mismatch_rejected():
    with pytest.raises(ValueError):
        fx_add(fx_quantize(0.5, Q1_15), fx_quantize(0.5, Q8_24))
    with pytest.raises(ValueError):
        fx_sub(fx_quantize(0.5, Q1_15), fx_quantize(0.5, Q8_24))


def test_mul_examples():
    q = Q1_15
    half = fx_quantize(0.5, q)
    assert fx_mul(half, half, q).raw == 8192
    neg = fx_mul(fx_quantize(-0.5, q), half, q)
    assert neg.real == -0.25
    a = fx_quantize(1.5, Q8_24)
    b = fx_quantize(2.0, Q8_24)
    assert fx_mul(a, b, Q8_24).real == 3.0


def test_shr_examples():
    q = Q1_15
    assert fx_shr(fx_quantize(0.5, q), 1).raw == 8192
    assert fx_shr(Fx(-1, q), 1).raw == -1  # floor semantics
    assert fx_shr(Fx(3, q), 2).raw == 0
    with pytest.raises(ValueError):
        fx_shr(fx_quantize(0.5, q), 16)
    with pytest.raises(ValueError):
        fx_shr(fx_quantize(0.5, q), -1)


def test_round_trip_bound():
    rng = random.Random(1)
    for fmt in (Q1_15, Q8_24, QFormat(24, 20)):
        hi = float(fmt.max_raw) * fmt.eps
        for _ in range(2000):
            v = rng.uniform(-hi, hi)
            got = fx_quantize(v, fmt).real
            assert abs(got - v) <= 2.0 ** -(fmt.frac_bits + 1)


def test_saturation_fuzz_against_wide_oracle():
    rng = random.Random(2)
    fmt = Q1_15
    for _ in range(5000):
        a = rng.randint(fmt.min_raw, fmt.max_raw)
        b = rng.randint(fmt.min_raw, fmt.max_raw)
        fa, fb = Fx(a, fmt), Fx(b, fmt)
        want = min(max(a + b, fmt.min_raw), fmt.max_raw)
        assert fx_add(fa, fb).raw == want
        want = min(max(a - b, fmt.min_raw), fmt.max_raw)
        assert fx_sub(fa, fb).raw == want
        prod = fx_mul(fa, fb, fmt).raw
        want = min(max((a * b) >> fmt.frac_bits, fmt.min_raw), fmt.max_raw)
        assert prod == want
        assert fmt.min_raw <= prod <= fmt.max_raw


def test_mul_truncation_bound():
    rng = random.Random(3)
    fmt = Q8_24
    for _ in range(3000):
        a = fx_quantize(rng.uniform(-10, 10), fmt)
        b = fx_quantize(rng.uniform(-10, 10), fmt)
        got = fx_mul(a, b, fmt).real
        exact = a.real * b.real
        assert -(2.0**-fmt.frac_bits) < got - exact <= 0 or got == exact


def test_shr_equals_floor_division():
    rng = random.Random(4)
    for _ in range(3000):
        raw = rng.randint(Q8_24.min_raw, Q8_24.max_raw)
        k = rng.randint(0, 31)
        fx = Fx(raw, Q8_24)
        assert fx_shr(fx, k).raw == math.floor(raw / 2**k)


def test_acc_covers_full_product():
    a = fx_quantize(0.9, Q1_15)
    acc = fx_mul(a, a, ACC)
    assert abs(acc.real - a.real * a.real) < 2.0**-30


def test_acc_align_and_narrow():
    a = fx_quantize(0.75, Q1_15)
    acc = fx_cast(a, ACC)
    assert acc.real == 0.75
    back = fx_cast(acc, Q1_15)
    assert back.raw == a.raw
    diff = fx_sub(acc, fx_mul(a, a, ACC))
    assert abs(diff.real - (0.75 - 0.5625)) < 2.0**-30


def test_acc_narrow_saturates():
    big = Fx(1 << 35, QFormat(40, 24))  # value 2**11 at 24 frac bits
    assert fx_cast(big, Q1_15).raw == Q1_15.max_raw


# -- integer oracle for the shift rule ---------------------------------------


@st.composite
def qformats(draw, max_word=64):
    word = draw(st.integers(8, max_word))
    return QFormat(word, draw(st.integers(0, word - 1)))


def fx_in(fmt):
    return st.integers(fmt.min_raw, fmt.max_raw).map(lambda raw: Fx(raw, fmt))


def shift_oracle(raw, frac_bits, out):
    """Exact left shift or floor right shift to out's scale, then clip."""
    shift = out.frac_bits - frac_bits
    scaled = raw * 2**shift if shift >= 0 else raw // 2**-shift
    return min(max(scaled, out.min_raw), out.max_raw)


def assert_lanes_match_oracle(raw, frac_bits, out):
    """rescale on object lanes, and on int64 lanes where raw shifted into
    out fits in them, gives the oracle's raw in the lanes' dtype."""
    expected = shift_oracle(raw, frac_bits, out)
    kinds = [object] + ([np.int64] if abs(raw) << max(out.frac_bits - frac_bits, 0) < 2**63 else [])
    for dtype in kinds:
        got = rescale(np.array([raw, raw], dtype=dtype), frac_bits, out)
        assert got.dtype == dtype
        assert [int(v) for v in got] == [expected, expected]


@given(qformats(), qformats(), qformats(), st.data())
def test_mul_matches_integer_oracle(fa, fb, out, data):
    a, b = data.draw(fx_in(fa)), data.draw(fx_in(fb))
    got = fx_mul(a, b, out)
    assert got.fmt == out
    assert got.raw == shift_oracle(a.raw * b.raw, fa.frac_bits + fb.frac_bits, out)
    assert_lanes_match_oracle(a.raw * b.raw, fa.frac_bits + fb.frac_bits, out)


@given(qformats(), qformats(), st.data())
def test_cast_matches_integer_oracle(fa, out, data):
    a = data.draw(fx_in(fa))
    got = fx_cast(a, out)
    assert got.fmt == out
    assert got.raw == shift_oracle(a.raw, fa.frac_bits, out)
    assert_lanes_match_oracle(a.raw, fa.frac_bits, out)


@given(qformats(max_word=28), qformats(max_word=28), st.integers(0, 8), st.data())
def test_mul_into_wider_format_is_exact(fa, fb, shift, data):
    a, b = data.draw(fx_in(fa)), data.draw(fx_in(fb))
    out = QFormat(fa.word_bits + fb.word_bits + shift, fa.frac_bits + fb.frac_bits + shift)
    assert fx_mul(a, b, out).raw == a.raw * b.raw * 2**shift


@given(qformats(max_word=56), st.integers(0, 8), st.data())
def test_cast_into_wider_format_is_exact(fa, shift, data):
    a = data.draw(fx_in(fa))
    out = QFormat(fa.word_bits + shift, fa.frac_bits + shift)
    assert fx_cast(a, out).raw == a.raw * 2**shift


K_MAX = math.floor(MAX_ANGLE / TWO_PI)  # the last whole turn within the domain


def near_multiples(stride: int = 1, period: float = TWO_PI, stop: int | None = None) -> np.ndarray:
    """k*period for every stride-th k from 0 to one past the last multiple
    within MAX_ANGLE (or below stop), as a double, with its 4 float
    neighbours on each side, kept within [0, MAX_ANGLE]: the angles whose
    quotient by period a reduction is likeliest to get one off."""
    centre = np.arange(0, stop or math.floor(MAX_ANGLE / period) + 2, stride) * period
    below = above = centre
    rings = [centre]
    for _ in range(4):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        rings += [below, above]
    mag = np.concatenate(rings)
    return mag[(mag >= 0.0) & (mag <= MAX_ANGLE)]


def test_fold_angle_on_every_near_multiple():
    mag = near_multiples()
    assert mag.size > 9 * K_MAX
    q, r = fold_angle(mag)
    a = mag % TWO_PI  # the textbook reduction, bit for bit
    want_q = np.floor(a / HALF_PI).astype(np.int64)
    want_r = a - want_q * HALF_PI
    assert q.dtype == np.int64 and np.array_equal(q, want_q)
    assert np.array_equal(r.view(np.int64), want_r.view(np.int64))


def _folded(mag):
    """fold_angle's (q, r) as the textbook reduction mag % TWO_PI gives them."""
    a = mag % TWO_PI
    q = np.floor(a / HALF_PI).astype(np.int64)
    return q, a - q * HALF_PI


def test_fold_angle_under_two_pi_route_keeps_the_bits():
    # arrays wholly below TWO_PI, which the fold takes without the turn
    # reduction: 4-ulp rings around each multiple of pi/2 below it, the
    # smallest doubles and the largest double below TWO_PI
    rings = near_multiples(1, HALF_PI, stop=5)
    mag = np.concatenate([rings[rings < TWO_PI], [0.0, 5e-324, math.nextafter(TWO_PI, 0.0)]])
    # 0, pi/2, pi and 3pi/2 with 4 neighbours each side (0 has none below),
    # the 4 doubles below TWO_PI, and the 3 named
    assert mag.max() < TWO_PI and mag.size == 4 * 9 - 4 + 4 + 3
    kept = mag.copy()
    q, r = fold_angle(mag)
    want_q, want_r = _folded(mag)
    assert q.dtype == np.int64 and np.array_equal(q, want_q)
    assert np.array_equal(r.view(np.int64), want_r.view(np.int64))
    assert np.array_equal(mag.view(np.int64), kept.view(np.int64))  # the caller's array is not written
    # the same bits for each angle alone, and next to one that takes the full reduction
    for k, m in enumerate(mag.tolist()):
        assert fold_angle(m) == (q[k], r[k])
        qs, rs = fold_angle(np.array([m, 3 * TWO_PI]))
        assert (qs[0], rs[0].view(np.int64)) == (q[k], r[k].view(np.int64))
    # either side of the route's edge: one angle alone near each multiple of
    # pi/2 up to 4*pi decides its own route
    for m in near_multiples(1, HALF_PI, stop=9).tolist():
        q, r = fold_angle(np.array([m]))
        want_q, want_r = _folded(m)
        assert (q[0], r[0].view(np.int64)) == (want_q, np.float64(want_r).view(np.int64))


@pytest.mark.parametrize("kind", ["float", "0-d"])
def test_fold_angle_result_types_on_either_route(kind):
    make = float if kind == "float" else np.array
    got = [fold_angle(make(m)) for m in (1.0, 10.0)]  # below TWO_PI, and past it
    for q, r in got:
        assert type(q) is np.int64 and type(r) is np.float64
    assert got[0] == (0, 1.0)


def test_fold_angle_on_no_angles():
    q, r = fold_angle(np.empty(0))
    assert (q.dtype, q.shape, r.dtype, r.shape) == (np.int64, (0,), np.float64, (0,))
    q, r = fold_angle(np.empty((2, 0)))
    assert (q.shape, r.shape) == ((2, 0), (2, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, math.nextafter(MAX_ANGLE, math.inf)])
@pytest.mark.parametrize("other", [0.5, 3 * TWO_PI])
def test_fold_angle_rejects_on_either_route(bad, other):
    # the domain check decides before the route does: the other lane is
    # below TWO_PI or past it
    for angles in ([other, bad], [bad, other], [other] * 5 + [bad]):
        with pytest.raises(DomainError):
            fold_angle(np.abs(np.array(angles)))


def _ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# uniform angles, and angles within 4 ulps of a whole number of turns
FOLD_ANGLES = st.one_of(
    st.floats(0.0, MAX_ANGLE),
    st.builds(lambda k, steps: _ulps_from(k * TWO_PI, steps), st.integers(0, K_MAX), st.integers(-4, 4))
    .filter(lambda mag: 0.0 <= mag <= MAX_ANGLE),
)


@given(FOLD_ANGLES)
def test_fold_angle_invariants(mag):
    q, r = fold_angle(mag)
    assert type(q) is np.int64 and type(r) is np.float64
    assert q in (0, 1, 2, 3)
    assert 0.0 <= r < HALF_PI
    a = mag % TWO_PI  # the textbook reduction, bit for bit
    assert q == math.floor(a / HALF_PI)
    assert r == a - q * HALF_PI
    qs, rs = fold_angle(np.array([mag, 0.5]))
    assert qs[0] == q
    assert rs[0] == r


def octant_angles() -> np.ndarray:
    """near_multiples(409, HALF_PI / 2) and the first 16 multiples of pi/4
    with their rings: the odd multiples fall on octant boundaries, the
    first few residuals on the tie r == pi/4 itself."""
    return np.concatenate([near_multiples(409, HALF_PI / 2), near_multiples(1, HALF_PI / 2, stop=16)])


def test_octant_angles_reach_the_tie_in_both_quadrant_parities():
    q, r = fold_angle(octant_angles())
    tie = r == HALF_PI / 2
    assert set(q[tie].tolist()) == {0, 1, 2, 3}


def test_quarter_turns_of_the_x_axis():
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert [tuple(int(v) for v in quarter_turns(q, 1, 0)) for q in range(4)] == axes
    x, y = quarter_turns(np.arange(4), np.ones(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
    assert list(zip(x.tolist(), y.tolist())) == axes


# lane values per dtype: the edge cases, then any value hypothesis draws
TURN_VALUES = {
    np.float64: st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.0**-1023]),
                          st.floats(allow_nan=False)),
    np.int64: st.one_of(st.sampled_from([Q8_24.min_raw, Q8_24.max_raw, 1 << 62, -(1 << 62), -(1 << 63)]),
                        st.integers(-(1 << 63), (1 << 63) - 1)),
    object: st.one_of(st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 100, -(1 << 100)]),
                      st.integers(-(1 << 100), 1 << 100)),
}


def _bits(v):
    """A float's bits, an int as itself, lane by lane."""
    v = np.asarray(v)
    return (v.view(np.int64) if v.dtype == np.float64 else v).tolist()


@given(st.sampled_from(list(TURN_VALUES)), st.sampled_from([(), (5,), (2, 3)]),
       st.sampled_from(["int", "lanes", "row"]), st.data())
def test_quarter_turns_is_the_select_and_sign_unfold(dtype, shape, q_kind, data):
    # one gather from [x, y, -x, -y, x] per output, against np.where and a
    # product by each sign: the same bits, dtype, shape and kind of result
    def lanes(values, shape, dtype):
        n = math.prod(shape)
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype).reshape(shape)

    x, y = (lanes(TURN_VALUES[dtype], shape, dtype) for _ in "xy")
    quadrants = st.integers(0, 3)
    q = data.draw(quadrants) if q_kind == "int" else lanes(quadrants, shape if q_kind == "lanes" else shape[-1:], np.int64)
    for got, want in zip(quarter_turns(q, x, y), quarter_turns_ref(q, x, y), strict=True):
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype and np.shape(got) == np.shape(want)
        assert _bits(got) == _bits(want)


@given(st.floats(0.0, MAX_ANGLE))
def test_quarter_turns_inverts_fold_angle(mag):
    q, r = fold_angle(mag)
    c, s = quarter_turns(q, math.cos(r), math.sin(r))
    # the fold drifts from the true period by at most 4e-11 rad at MAX_ANGLE
    assert abs(c - math.cos(mag)) < 1e-9 and abs(s - math.sin(mag)) < 1e-9


@pytest.mark.parametrize("mag", [math.nan, math.inf, math.nextafter(MAX_ANGLE, math.inf), 1e15])
def test_fold_angle_outside_domain_raises(mag):
    with pytest.raises(DomainError):
        fold_angle(mag)
    with pytest.raises(DomainError):
        fold_angle(np.array([0.5, mag]))


@given(qformats(), st.data())
def test_lane_conversions_match_scalar_ones(fmt, data):
    # reals around the format's range, exact halves of an LSB, and far beyond
    edge = math.ldexp(1.0, fmt.word_bits - fmt.frac_bits)
    real = st.one_of(
        st.floats(-2 * edge, 2 * edge),
        st.integers(-1000, 1000).map(lambda k: (k + 0.5) * fmt.eps),
        st.sampled_from([1e30, -1e30]),
    )
    values = data.draw(st.lists(real, min_size=1, max_size=8))
    raws = lanes_from_real(values, fmt)
    assert raws.dtype == lane_dtype(fmt)
    assert [int(r) for r in raws] == [fx_from_real(v, fmt) for v in values]
    assert lanes_real(raws, fmt).tolist() == [Fx(int(r), fmt).real for r in raws]
    wide = np.array([fmt.max_raw + 1, fmt.min_raw - 1, 0], dtype=object)
    assert clip(wide, fmt.min_raw, fmt.max_raw).tolist() == [fmt.max_raw, fmt.min_raw, 0]
