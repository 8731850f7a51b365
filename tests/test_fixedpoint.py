import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fkemu.fixedpoint import (
    Fx,
    Q1_15,
    Q8_24,
    QFormat,
    fx_add,
    fx_cast,
    fx_from_real,
    fx_mul,
    fx_shr,
    fx_sub,
)

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
    assert fx_from_real(0.5, Q1_15).raw == 0x4000
    assert fx_from_real(0.0, Q8_24).raw == 0
    assert fx_from_real(2.0, Q1_15).raw == 0x7FFF  # saturated
    assert fx_from_real(-3.0, Q1_15).raw == -0x8000


def test_from_real_rounds_half_to_even():
    # 1.5/2**15 sits exactly between raws 1 and 2
    assert fx_from_real(1.5 * 2**-15, Q1_15).raw == 2
    assert fx_from_real(2.5 * 2**-15, Q1_15).raw == 2


def test_add_sub_examples():
    q = Q1_15
    assert fx_add(fx_from_real(0.25, q), fx_from_real(0.25, q)).raw == 16384
    assert fx_add(fx_from_real(0.9, q), fx_from_real(0.9, q)).raw == 0x7FFF
    one = fx_from_real(1.0, Q8_24)
    assert fx_sub(one, one).raw == 0


def test_format_mismatch_rejected():
    with pytest.raises(ValueError):
        fx_add(fx_from_real(0.5, Q1_15), fx_from_real(0.5, Q8_24))
    with pytest.raises(ValueError):
        fx_sub(fx_from_real(0.5, Q1_15), fx_from_real(0.5, Q8_24))


def test_mul_examples():
    q = Q1_15
    half = fx_from_real(0.5, q)
    assert fx_mul(half, half, q).raw == 8192
    neg = fx_mul(fx_from_real(-0.5, q), half, q)
    assert neg.real == -0.25
    a = fx_from_real(1.5, Q8_24)
    b = fx_from_real(2.0, Q8_24)
    assert fx_mul(a, b, Q8_24).real == 3.0


def test_shr_examples():
    q = Q1_15
    assert fx_shr(fx_from_real(0.5, q), 1).raw == 8192
    assert fx_shr(type(fx_from_real(0, q))(-1, q), 1).raw == -1  # floor semantics
    assert fx_shr(type(fx_from_real(0, q))(3, q), 2).raw == 0
    with pytest.raises(ValueError):
        fx_shr(fx_from_real(0.5, q), 16)
    with pytest.raises(ValueError):
        fx_shr(fx_from_real(0.5, q), -1)


def test_round_trip_bound():
    rng = random.Random(1)
    for fmt in (Q1_15, Q8_24, QFormat(24, 20)):
        hi = float(fmt.max_raw) * fmt.eps
        for _ in range(2000):
            v = rng.uniform(-hi, hi)
            got = fx_from_real(v, fmt).real
            assert abs(got - v) <= 2.0 ** -(fmt.frac_bits + 1)


def test_saturation_fuzz_against_wide_oracle():
    rng = random.Random(2)
    fmt = Q1_15
    for _ in range(5000):
        a = rng.randint(fmt.min_raw, fmt.max_raw)
        b = rng.randint(fmt.min_raw, fmt.max_raw)
        fa, fb = type(fx_from_real(0, fmt))(a, fmt), type(fx_from_real(0, fmt))(b, fmt)
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
        a = fx_from_real(rng.uniform(-10, 10), fmt)
        b = fx_from_real(rng.uniform(-10, 10), fmt)
        got = fx_mul(a, b, fmt).real
        exact = a.real * b.real
        assert -(2.0**-fmt.frac_bits) < got - exact <= 0 or got == exact


def test_shr_equals_floor_division():
    rng = random.Random(4)
    for _ in range(3000):
        raw = rng.randint(Q8_24.min_raw, Q8_24.max_raw)
        k = rng.randint(0, 31)
        fx = type(fx_from_real(0, Q8_24))(raw, Q8_24)
        assert fx_shr(fx, k).raw == math.floor(raw / 2**k)


def test_acc_covers_full_product():
    a = fx_from_real(0.9, Q1_15)
    acc = fx_mul(a, a, ACC)
    assert abs(acc.real - a.real * a.real) < 2.0**-30


def test_acc_align_and_narrow():
    a = fx_from_real(0.75, Q1_15)
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


@given(qformats(), qformats(), qformats(), st.data())
def test_mul_matches_integer_oracle(fa, fb, out, data):
    a, b = data.draw(fx_in(fa)), data.draw(fx_in(fb))
    got = fx_mul(a, b, out)
    assert got.fmt == out
    assert got.raw == shift_oracle(a.raw * b.raw, fa.frac_bits + fb.frac_bits, out)


@given(qformats(), qformats(), st.data())
def test_cast_matches_integer_oracle(fa, out, data):
    a = data.draw(fx_in(fa))
    got = fx_cast(a, out)
    assert got.fmt == out
    assert got.raw == shift_oracle(a.raw, fa.frac_bits, out)


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
