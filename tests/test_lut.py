import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fkemu.ccm import pose_op_count as cordic_pose_ops
from fkemu.dh import DhJoint, ROTARY, chain_pose
from fkemu.fixedpoint import MAX_ANGLE, DomainError, Q8_24
from fkemu.lut import (
    LINEAR,
    NEAREST,
    build_table,
    dump_table,
    error_profile,
    load_table,
    lut_sincos,
    pose_op_count,
)


def test_build_validation():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        build_table(48)  # not a power of two
    with pytest.raises(ValueError):
        build_table(64, mode="cubic")


def test_build_smallest_table():
    t = build_table(2)
    assert t.values[0] == 0.0
    assert t.values[1] == pytest.approx(math.sin(math.pi / 4), rel=1e-15)


def test_build_deterministic_and_monotone():
    a = build_table(1024)
    b = build_table(1024)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) > 0)


def test_quantized_build():
    t = build_table(256, fmt=Q8_24)
    assert t.fmt == Q8_24
    scaled = t.values * 2**24
    assert np.allclose(scaled, np.round(scaled))


def test_sincos_exact_points():
    t = build_table(1024, mode=LINEAR)
    assert lut_sincos(0.0, t) == (1.0, 0.0)
    c, s = lut_sincos(math.pi, t)
    assert abs(c + 1.0) <= t.step
    assert abs(s) <= t.step


def test_sincos_pi_over_four():
    t = build_table(1024, mode=LINEAR)
    c, s = lut_sincos(math.pi / 4, t)
    assert abs(c - 0.7071067811865476) < 3e-6
    assert abs(s - 0.7071067811865476) < 3e-6


ANGLES = st.floats(-MAX_ANGLE, MAX_ANGLE)
SYMMETRY_TABLE = build_table(512, mode=NEAREST)
BOUND_TABLES = {mode: build_table(256, mode=mode) for mode in (NEAREST, LINEAR)}


@given(ANGLES)
def test_symmetry_bit_exact(th):
    c1, s1 = lut_sincos(th, SYMMETRY_TABLE)
    c2, s2 = lut_sincos(-th, SYMMETRY_TABLE)
    assert s1 == -s2
    assert c1 == c2


@pytest.mark.parametrize("mode", [NEAREST, LINEAR])
@given(th=ANGLES)
def test_error_bound_over_domain(mode, th):
    t = BOUND_TABLES[mode]
    # the fold's drift at MAX_ANGLE (4e-11) is margin on the tight linear bound
    bound = t.step if mode == NEAREST else t.step**2 / 8 + 1e-10
    c, s = lut_sincos(th, t)
    assert abs(c - math.cos(th)) <= bound
    assert abs(s - math.sin(th)) <= bound


def test_pythagorean_drift():
    for mode in (NEAREST, LINEAR):
        t = build_table(256, mode=mode)
        max_err, _ = error_profile(t, n_samples=100_000)
        rng = random.Random(62)
        for _ in range(200):
            c, s = lut_sincos(rng.uniform(-7, 7), t)
            assert abs(c * c + s * s - 1.0) <= 4 * max_err


def test_error_profile_bounds():
    for n in (64, 256):
        nearest, _ = error_profile(build_table(n, mode=NEAREST), n_samples=200_000)
        linear, _ = error_profile(build_table(n, mode=LINEAR), n_samples=200_000)
        step = (math.pi / 2) / n
        assert nearest <= step
        assert linear <= step**2 / 8
        assert linear < nearest


def test_tiny_table_has_large_error():
    max_err, _ = error_profile(build_table(2, mode=NEAREST), n_samples=50_000)
    assert max_err > 0.25


def test_error_halves_and_quarters():
    n1, _ = error_profile(build_table(256, mode=NEAREST), n_samples=300_000)
    n2, _ = error_profile(build_table(512, mode=NEAREST), n_samples=300_000)
    assert n1 / n2 >= 1.9
    l1, _ = error_profile(build_table(256, mode=LINEAR), n_samples=300_000)
    l2, _ = error_profile(build_table(512, mode=LINEAR), n_samples=300_000)
    assert l1 / l2 >= 3.5


def test_zero_chain_pose_is_exact_identity():
    t = build_table(256, mode=NEAREST)
    chain = [DhJoint(ROTARY, 0, 0, 0, 0)] * 3
    assert np.array_equal(chain_pose(chain, partial(lut_sincos, table=t)), np.eye(4))


def test_pose_matches_oracle_at_high_resolution():
    rng = random.Random(63)
    t = build_table(4096, mode=LINEAR)
    for _ in range(20):
        chain = [
            DhJoint(ROTARY, rng.uniform(-math.pi, math.pi), rng.uniform(-0.3, 0.3),
                    rng.uniform(-0.3, 0.3), rng.uniform(-math.pi, math.pi))
            for _ in range(6)
        ]
        assert np.abs(chain_pose(chain, partial(lut_sincos, table=t)) - chain_pose(chain)).max() < 1e-5


def test_pose_rejects_empty_chain():
    with pytest.raises(ValueError):
        chain_pose([], partial(lut_sincos, table=build_table(64)))


def test_fewer_ops_than_cordic_backend():
    t = build_table(1024, mode=NEAREST)
    assert pose_op_count(6, t) < cordic_pose_ops(6)


def test_dump_load_round_trip(tmp_path):
    for fmt in (None, Q8_24):
        t = build_table(128, fmt=fmt, mode=LINEAR)
        path = tmp_path / f"table_{fmt}.bin"
        dump_table(t, str(path))
        back = load_table(str(path))
        assert back.n_entries == t.n_entries
        assert back.mode == t.mode
        assert back.fmt == t.fmt
        assert np.array_equal(back.values, t.values)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTLUT" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_table(str(path))


@pytest.mark.parametrize("mode", [NEAREST, LINEAR])
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, math.nextafter(MAX_ANGLE, math.inf), -1e15])
def test_non_finite_angle_raises_domain_error(angle, mode):
    table = build_table(256, mode=mode)
    with pytest.raises(DomainError):
        lut_sincos(angle, table)
    with pytest.raises(DomainError):
        lut_sincos(np.array([0.1, angle, 0.2]), table)
