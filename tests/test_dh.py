import hashlib
import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkemu import cli, cordic, lut, taylor
from fkemu.dh import (
    DhJoint,
    PRISMATIC,
    ROTARY,
    PumaParams,
    Vec4,
    apply_point,
    chain_pose,
    chain_poses,
    decompose,
    exact_sincos,
    link_transform,
    puma_chain,
    puma_closed_form,
)

PARAMS = PumaParams(d2=0.14909, d4=0.43307, d6=0.05625, a2=0.4318, a3=-0.02032)


def random_joint(rng, kind=ROTARY):
    return DhJoint(
        kind,
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-1, 1),
        rng.uniform(-1, 1),
        rng.uniform(-math.pi, math.pi),
    )


def four_factor_product(j):
    """Independent oracle: hand-built elementary matrices, multiplied."""
    tz = np.eye(4)
    tz[2, 3] = j.d
    c, s = math.cos(j.theta), math.sin(j.theta)
    rz = np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    tx = np.eye(4)
    tx[0, 3] = j.a if j.kind == ROTARY else 0.0
    c, s = math.cos(j.alpha), math.sin(j.alpha)
    rx = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])
    return tz @ rz @ tx @ rx


def test_joint_validation():
    with pytest.raises(ValueError):
        DhJoint("helical", 0, 0, 0, 0)


def test_link_transform_identity():
    assert np.array_equal(link_transform(DhJoint(ROTARY, 0, 0, 0, 0)), np.eye(4))


def test_link_transform_quarter_turn():
    m = link_transform(DhJoint(ROTARY, math.pi / 2, 0, 1.0, 0))
    assert np.allclose(m[:3, 3], [0, 1, 0], atol=1e-15)


def test_link_transform_matches_four_factor_oracle():
    j = DhJoint(ROTARY, 0.3, 0.2, 0.5, 0.7)
    assert np.abs(link_transform(j) - four_factor_product(j)).max() < 1e-15
    rng = random.Random(21)
    for _ in range(500):
        j = random_joint(rng)
        assert np.abs(link_transform(j) - four_factor_product(j)).max() < 1e-12


def test_prismatic_ignores_a_offset():
    j = DhJoint(PRISMATIC, 0.4, 0.9, 0.77, 0.2)
    m = link_transform(j)
    assert np.allclose(m[:3, 3], [0, 0, 0.9])
    assert np.abs(m - four_factor_product(j)).max() < 1e-15


def test_decompose_zero_joint():
    for f in decompose(DhJoint(ROTARY, 0, 0, 0, 0)):
        assert np.array_equal(f, np.eye(4))


def test_decompose_half_turn_about_x():
    _, _, _, rx = decompose(DhJoint(ROTARY, 0, 0, 0, math.pi))
    assert np.allclose(rx, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)


def test_decompose_recomposes():
    rng = random.Random(22)
    for _ in range(500):
        j = random_joint(rng, kind=ROTARY if rng.random() < 0.8 else PRISMATIC)
        tz, rz, tx, rx = decompose(j)
        assert np.abs(tz @ rz @ tx @ rx - link_transform(j)).max() < 1e-12


def test_chain_pose_single_and_empty():
    j = DhJoint(ROTARY, 0.5, 0.2, 0.3, -0.4)
    assert np.array_equal(chain_pose([j]), link_transform(j))
    with pytest.raises(ValueError):
        chain_pose([])


def test_chain_pose_translations_add():
    c = [DhJoint(ROTARY, 0, 0.3, 0, 0), DhJoint(ROTARY, 0, 0.45, 0, 0)]
    pose = chain_pose(c)
    assert np.allclose(pose, np.eye(4) + np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.75], [0, 0, 0, 0]]))


def test_chain_pose_is_associative():
    rng = random.Random(23)
    for _ in range(100):
        c1 = [random_joint(rng) for _ in range(2)]
        c2 = [random_joint(rng) for _ in range(3)]
        lhs = chain_pose(list(c1) + list(c2))
        rhs = chain_pose(c1) @ chain_pose(c2)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_rotation_blocks_orthonormal():
    rng = random.Random(24)
    for _ in range(300):
        chain = [random_joint(rng) for _ in range(4)]
        for m in (link_transform(chain[0]), chain_pose(chain)):
            r = m[:3, :3]
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-9
            assert np.array_equal(m[3], [0, 0, 0, 1])


def test_apply_point():
    p = Vec4(0.1, -0.2, 0.3)
    assert apply_point(np.eye(4), p) == p
    t = np.eye(4)
    t[:3, 3] = [1, 2, 3]
    assert apply_point(t, Vec4(0, 0, 0)) == Vec4(1.0, 2.0, 3.0, 1.0)
    rng = random.Random(25)
    for _ in range(100):
        m = link_transform(random_joint(rng))
        p = Vec4(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = apply_point(m, p)
        want = m @ p.as_array()
        assert np.allclose([got.x, got.y, got.z, got.w], want, atol=1e-15)


def test_puma_zero_angles_zero_constants_is_identity():
    zeros = PumaParams(0, 0, 0, 0, 0)
    assert np.abs(puma_closed_form([0] * 6, zeros) - np.eye(4)).max() < 1e-15


def test_puma_zero_angles_generic_constants():
    # hand-reduced position column at zero angles, cross-checked vs chain
    m = puma_closed_form([0] * 6, PARAMS)
    want = [PARAMS.a2 + PARAMS.a3, PARAMS.d2, PARAMS.d4 + PARAMS.d6]
    assert np.allclose(m[:3, 3], want, atol=1e-15)
    chain = chain_pose(puma_chain([0] * 6, PARAMS))
    assert np.abs(m - chain).max() < 1e-12


def test_puma_matches_chain_product():
    rng = random.Random(26)
    for _ in range(300):
        th = [rng.uniform(-math.pi, math.pi) for _ in range(6)]
        closed = puma_closed_form(th, PARAMS)
        chain = chain_pose(puma_chain(th, PARAMS))
        assert np.abs(closed - chain).max() < 1e-9


def test_compound_angle_identity():
    rng = random.Random(27)
    for _ in range(500):
        a, b = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        assert abs(math.cos(a + b) - (math.cos(a) * math.cos(b) - math.sin(a) * math.sin(b))) < 1e-12
        assert abs(math.sin(a + b) - (math.sin(a) * math.cos(b) + math.cos(a) * math.sin(b))) < 1e-12


def test_puma_requires_six_angles():
    with pytest.raises(ValueError):
        puma_closed_form([0] * 5, PARAMS)
    with pytest.raises(ValueError):
        puma_chain([0] * 7, PARAMS)


PROVIDERS = {
    "matrix": exact_sincos,
    "cordic": cordic.sincos_cordic,
    "taylor": taylor.taylor_sincos,
    "lut-nearest": partial(lut.lut_sincos, table=lut.build_table(1024, mode=lut.NEAREST)),
    "lut-linear": partial(lut.lut_sincos, table=lut.build_table(256, mode=lut.LINEAR)),
}

joint_strategy = st.builds(
    DhJoint,
    st.sampled_from([ROTARY, PRISMATIC]),
    st.floats(-40.0, 40.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-math.pi, math.pi),
)


@pytest.mark.parametrize("provider", PROVIDERS)
@settings(max_examples=30, deadline=None)
@given(chains=st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(joint_strategy, min_size=n, max_size=n).map(tuple), min_size=1, max_size=5)
))
def test_chain_poses_equal_chain_pose_stack(provider, chains):
    sincos = PROVIDERS[provider]
    got = chain_poses(chains, sincos)
    assert got.shape == (len(chains), 4, 4)
    for k, chain in enumerate(chains):
        assert got[k].tobytes() == chain_pose(chain, sincos).tobytes()


def test_chain_poses_reject_empty_and_ragged_sets():
    j = DhJoint(ROTARY, 0.1, 0.1, 0.1, 0.1)
    for chains in ([], [()], [(j,), ()]):
        with pytest.raises(ValueError, match="empty chain"):
            chain_poses(chains)
    with pytest.raises(ValueError, match="one length"):
        chain_poses([(j,), (j, j)])


def test_exact_sincos_keeps_the_argument_kind():
    c, s = exact_sincos(0.3)
    assert type(c) is float and (c, s) == (math.cos(0.3), math.sin(0.3))
    cos, sin = exact_sincos(np.array([[0.3, -2.0]]))
    assert cos.shape == (1, 2) and sin[0, 1] == np.sin(-2.0)


MIXED = (
    DhJoint(ROTARY, 0.3, 0.12, 0.25, -0.7),
    DhJoint(PRISMATIC, 0.0, 0.4, 0.0, 1.2),
    DhJoint(ROTARY, -0.5, 0.05, 0.18, 0.0),
)


def test_matrix_poses_golden():
    # Raw bits of the oracle poses, captured from math.cos/math.sin one angle
    # at a time.  chain_poses takes its trig from np.cos/np.sin, whose
    # float64 results depend on the platform's numpy build; the bench CSVs
    # assume the two agree, and this pin says so where it holds.
    def digest(chains):
        return hashlib.sha256(chain_poses(chains).tobytes()).hexdigest()

    puma = cli.load_chain("puma560").joints
    assert digest(cli.bench_variants(puma, 16, 5)) == (
        "947fff62ef98bccb2985b241affadda74ee43f94bd3d107a9d5168d4a6bfb580"
    )
    assert digest(cli.bench_variants(MIXED, 8, 11)) == (
        "7e27dd65fba438982701a0cf5d1a9e9260102428a32c2567218f8ec4bb2ea0df"
    )
