import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkemu import cli

from fkemu.ccm import (
    PipelineModel,
    ccm_points,
    ccm_poses,
    fk_pipeline,
    latency_us,
    point_op_count,
    pose_op_count,
)
from fkemu.cordic import CordicConfig
from fkemu.dh import DhJoint, PRISMATIC, ROTARY, Vec4, apply_point, chain_pose, link_transform
from fkemu.fixedpoint import DomainError, Q8_24, QFormat

CFG = CordicConfig(24, Q8_24)
TOL = 32 * 2.0**-24


def random_pair(rng):
    j = DhJoint(
        ROTARY,
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-1, 1),
        rng.uniform(-1, 1),
        rng.uniform(-math.pi, math.pi),
    )
    p = Vec4(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
    return j, p


def push(j, p):
    """One module: the point or free vector p through joint j, as (x, y, z, w)."""
    return ccm_points([(j,)], [p.as_array()], CFG)[0]


def test_zero_joint_zero_point():
    out = push(DhJoint(ROTARY, 0, 0, 0, 0), Vec4(0, 0, 0))
    assert np.abs(out[:3]).max() < 1e-6
    assert out[3] == 1.0


def test_pure_z_translation():
    out = push(DhJoint(ROTARY, 0, 5.0, 0, 0), Vec4(1, 2, 3))
    assert np.abs(out[:3] - [1, 2, 8]).max() < 1e-5


def test_matches_matrix_oracle():
    # one lane per (joint, point), as acceptance c02 runs it
    rng = random.Random(31)
    pairs = [random_pair(rng) for _ in range(200)]
    got = ccm_points([(j,) for j, _ in pairs], [p.as_array() for _, p in pairs], CFG)
    want = np.array([link_transform(j) @ p.as_array() for j, p in pairs])
    assert np.abs(got[:, :3] - want[:, :3]).max() <= TOL


def test_two_step_substitution_identity():
    # expanding the two stages in doubles reproduces the link-matrix rows
    rng = random.Random(33)
    for _ in range(300):
        j, p = random_pair(rng)
        ca, sa = math.cos(j.alpha), math.sin(j.alpha)
        ct, st = math.cos(j.theta), math.sin(j.theta)
        x_a, y_a, z_a = p.x + j.a, p.y * ca - p.z * sa, p.z * ca + p.y * sa
        two_step = np.array([
            x_a * ct - y_a * st,
            y_a * ct + x_a * st,
            z_a + j.d,
        ])
        direct = (link_transform(j) @ p.as_array())[:3]
        assert np.abs(two_step - direct).max() < 1e-12


def test_free_vector_skips_translation():
    j = DhJoint(ROTARY, 0.0, 5.0, 3.0, 0.0)
    out = push(j, Vec4(0.25, 0, 0, 0.0))
    assert abs(out[0] - 0.25) < 1e-5
    assert abs(out[2]) < 1e-5
    assert out[3] == 0.0


def test_w_must_be_zero_or_one():
    with pytest.raises(ValueError):
        push(DhJoint(ROTARY, 0, 0, 0, 0), Vec4(0, 0, 0, 0.5))


def test_pipeline_processor_count_and_identity_link():
    chain = [DhJoint(ROTARY, 0, 0, 0, 0)]
    p, report = fk_pipeline(chain, Vec4(0.3, -0.2, 0.6), CFG)
    assert report.processors == 4
    assert abs(p.x - 0.3) < 1e-5 and abs(p.y + 0.2) < 1e-5 and abs(p.z - 0.6) < 1e-5
    six = [DhJoint(ROTARY, 0.1 * k, 0.05, 0.04, 0.2 * k) for k in range(6)]
    _, report = fk_pipeline(six, Vec4(0, 0, 0), CFG)
    assert report.processors == 24
    assert report.latency_us == 600.0


def test_pipeline_matches_chain_oracle():
    rng = random.Random(34)
    worst = 0.0
    for _ in range(30):
        chain = [
            DhJoint(ROTARY, rng.uniform(-math.pi, math.pi), rng.uniform(-0.25, 0.25),
                    rng.uniform(-0.25, 0.25), rng.uniform(-math.pi, math.pi))
            for _ in range(3)
        ]
        p = Vec4(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        got, _ = fk_pipeline(chain, p, CFG)
        want = apply_point(chain_pose(chain), p)
        worst = max(worst, abs(got.x - want.x), abs(got.y - want.y), abs(got.z - want.z))
    assert worst < 3 * len(chain) * TOL


def test_pipeline_equals_iterated_modules_exactly():
    rng = random.Random(35)
    chain = [
        DhJoint(ROTARY, rng.uniform(-2, 2), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-2, 2))
        for _ in range(4)
    ]
    p0 = Vec4(0.2, -0.1, 0.15)
    via_pipeline, _ = fk_pipeline(chain, p0, CFG)
    p = p0.as_array()
    for j in reversed(chain):
        p = ccm_points([(j,)], [p], CFG)[0]
    assert via_pipeline == Vec4(*p.tolist())  # same code path, bit-identical


def test_pipeline_rejects_empty_chain():
    with pytest.raises(ValueError):
        fk_pipeline([], Vec4(0, 0, 0), CFG)


def test_latency_formula():
    assert latency_us(PipelineModel(6)) == 600.0
    assert latency_us(PipelineModel(1)) == 200.0
    for n in range(1, 11):
        assert latency_us(PipelineModel(n)) == 80.0 * n + 120.0


def test_pipeline_model_validation():
    with pytest.raises(ValueError):
        PipelineModel(0)


def test_pose_via_free_vectors():
    chain = [
        DhJoint(ROTARY, 0.7, 0.1, 0.2, -0.9),
        DhJoint(ROTARY, -0.4, 0.15, 0.1, 0.5),
        DhJoint(ROTARY, 1.8, 0.05, 0.12, -2.2),
    ]
    pose = ccm_poses([chain], CFG)[0]
    assert np.abs(pose - chain_pose(chain)).max() < 1e-5
    assert np.array_equal(pose[3], [0, 0, 0, 1])


def test_op_counts_scale():
    assert point_op_count(CFG) == 2 * (2 + 5 * 24) + 2 * (3 * 24)
    assert pose_op_count(6, CFG) == 24 * point_op_count(CFG)


def test_reach_beyond_format_raises_domain_error():
    far = DhJoint(ROTARY, 0.3, 200.0, 0.0, 0.2)  # z = 200 would pin at the Q8.24 edge
    with pytest.raises(DomainError):
        push(far, Vec4(0, 0, 0))
    with pytest.raises(DomainError):
        push(DhJoint(ROTARY, 0.3, 0.0, 0.0, 0.2), Vec4(0, 0, 70.0))
    free = push(far, Vec4(0, 0, 1, 0.0))  # no translation
    assert abs(free[2] - math.cos(0.2)) < TOL


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, 2.0**21])
@pytest.mark.parametrize("field", ["theta", "alpha"])
def test_joint_angle_outside_domain_raises_domain_error(field, angle):
    j = dataclasses.replace(DhJoint(ROTARY, 0.3, 0.1, 0.1, 0.2), **{field: angle})
    with pytest.raises(DomainError):
        push(j, Vec4(0.1, 0, 0))


def test_largest_accepted_reach_is_not_pinned():
    j = DhJoint(ROTARY, 0.3, 60.0, 0.0, 0.2)
    p = Vec4(0.0, 0.0, 31.0)  # 2*31 + 60 + 2 = 124 < 128
    got = push(j, p)
    want = apply_point(link_transform(j), p)
    assert abs(got[2] - want.z) < 1e-4


def test_poses_reject_empty_and_ragged_chains():
    with pytest.raises(ValueError):
        ccm_poses([()], CFG)
    with pytest.raises(ValueError):
        ccm_poses([], CFG)
    j = DhJoint(ROTARY, 0.1, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        ccm_poses([(j,), (j, j)], CFG)


joint_strategy = st.builds(
    DhJoint,
    st.sampled_from([ROTARY, PRISMATIC]),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 3.0),  # sums past 2 make the linear accumulates stage some lanes
    st.floats(-0.5, 0.5),
    st.floats(-math.pi, math.pi),
)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(joint_strategy, min_size=n, max_size=n).map(tuple), min_size=1, max_size=4)
))
def test_batched_poses_equal_one_chain_poses(chains):
    got = ccm_poses(chains, CFG)
    assert got.shape == (len(chains), 4, 4)
    for k, chain in enumerate(chains):
        assert got[k].tobytes() == ccm_poses([chain], CFG)[0].tobytes()
    origin, _ = fk_pipeline(chains[0], Vec4(0, 0, 0), CFG)
    assert got[0][:, 3].tolist() == [origin.x, origin.y, origin.z, 1.0]


def _chain12():
    """12 links, every third one prismatic."""
    rng = np.random.default_rng(12)
    chain = []
    for i in range(12):
        kind = PRISMATIC if i % 3 == 2 else ROTARY
        theta, alpha = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        chain.append(DhJoint(kind, theta, float(rng.uniform(0.0, 0.3)), float(rng.uniform(-0.3, 0.3)), alpha))
    return tuple(chain)


def _sha256(poses):
    return hashlib.sha256(poses.tobytes()).hexdigest()


# Raw pose bits of the module cascade: a moved bit anywhere shows up here,
# where the bench CSV only carries max/rms errors to seven digits.
GOLDEN_SOLVE_Q16_40 = """\
chain: puma560 (6 joints)
backend: cordic
   1.000000000  -0.000000000  -0.000000000   0.411480000
   0.000000000   1.000000000   0.000000000   0.149090000
   0.000000000   0.000000000   1.000000000   0.489320000
   0.000000000   0.000000000   0.000000000   1.000000000
max deviation vs matrix oracle: 8.185452e-11
point:  0.411480000   0.149090000   0.489320000
"""


def test_ccm_poses_golden(capsys):
    puma = cli.load_chain("puma560").joints
    assert _sha256(ccm_poses(cli.bench_variants(puma, 16, 5), CFG)) == (
        "e4ec7ac5721f954411f063006eed989f9ba5fff086c72529e43306f3233d4d92"
    )
    assert _sha256(ccm_poses(cli.bench_variants(_chain12(), 4, 7), CFG)) == (
        "e16ce30ea6ce00c639f89c5e0248d50f2932232ad5fa079f1ad3a7904b93a1a9"
    )
    # offsets of many meters: the linear accumulates stage lanes by 2**k, k differing per lane
    long_links = (
        DhJoint(ROTARY, 0.0, 12.0, 3.0, 0.7),
        DhJoint(PRISMATIC, 0.4, 0.0, 0.0, -1.1),
        DhJoint(ROTARY, 0.0, 9.5, -4.0, 2.0),
    )
    assert _sha256(ccm_poses(cli.bench_variants(long_links, 4, 3), CFG)) == (
        "dbe5e1e7ab0f8f8b8910295c4a744285a2e2e88231a165a95ac818093aa0c850"
    )
    # a 56-bit word: object lanes, and doubles between links that round
    wide = CordicConfig(40, QFormat(56, 40))
    assert _sha256(ccm_poses([puma], wide)) == (
        "36948e2f78d5bd6f92cef7df1ed26581bb7a6a80130f6f501ca2455c2454f35e"
    )
    assert _sha256(ccm_poses(cli.bench_variants(puma, 2, 9), wide)) == (
        "efab1c2a2b7b428161db5f5b8167186f8b9b521b2d151322a0b3d3668098996c"
    )
    assert cli.main(["solve", "puma560", "--backend", "cordic", "--format", "Q16.40", "--iters", "40"]) == 0
    assert capsys.readouterr().out == GOLDEN_SOLVE_Q16_40
