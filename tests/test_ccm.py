import math
import random

import numpy as np
import pytest

from fkemu.ccm import (
    PipelineModel,
    ccm_pose,
    ccm_transform,
    fk_pipeline,
    latency_us,
    point_op_count,
    pose_op_count,
)
from fkemu.cordic import CordicConfig
from fkemu.dh import DhJoint, ROTARY, Vec4, apply_point, chain_pose, link_transform
from fkemu.fixedpoint import DomainError, Q8_24

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


def test_zero_joint_zero_point():
    out = ccm_transform(DhJoint(ROTARY, 0, 0, 0, 0), Vec4(0, 0, 0), CFG).p_out
    assert max(abs(out.x), abs(out.y), abs(out.z)) < 1e-6
    assert out.w == 1.0


def test_pure_z_translation():
    out = ccm_transform(DhJoint(ROTARY, 0, 5.0, 0, 0), Vec4(1, 2, 3), CFG).p_out
    assert abs(out.x - 1) < 1e-5
    assert abs(out.y - 2) < 1e-5
    assert abs(out.z - 8) < 1e-5


def test_matches_matrix_oracle():
    rng = random.Random(31)
    worst = 0.0
    for _ in range(200):
        j, p = random_pair(rng)
        got = ccm_transform(j, p, CFG).p_out
        want = apply_point(link_transform(j), p)
        worst = max(worst, abs(got.x - want.x), abs(got.y - want.y), abs(got.z - want.z))
    assert worst <= TOL


def test_intermediates_satisfy_stage_one_equations():
    rng = random.Random(32)
    for _ in range(50):
        j, p = random_pair(rng)
        x_a, y_a, z_a = ccm_transform(j, p, CFG).intermediates
        ca, sa = math.cos(j.alpha), math.sin(j.alpha)
        assert abs(x_a.real - (p.x + j.a)) <= TOL
        assert abs(y_a.real - (p.y * ca - p.z * sa)) <= TOL
        assert abs(z_a.real - (p.z * ca + p.y * sa)) <= TOL


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
    out = ccm_transform(j, Vec4(0.25, 0, 0, 0.0), CFG).p_out
    assert abs(out.x - 0.25) < 1e-5
    assert abs(out.z) < 1e-5
    assert out.w == 0.0


def test_w_must_be_zero_or_one():
    with pytest.raises(ValueError):
        ccm_transform(DhJoint(ROTARY, 0, 0, 0, 0), Vec4(0, 0, 0, 0.5), CFG)


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
    p = p0
    for j in reversed(chain):
        p = ccm_transform(j, p, CFG).p_out
    assert via_pipeline == p  # same code path, bit-identical


def test_pipeline_rejects_empty_chain():
    with pytest.raises(ValueError):
        fk_pipeline([], Vec4(0, 0, 0), CFG)


def test_latency_formula():
    assert latency_us(PipelineModel(6)) == 600.0
    assert latency_us(PipelineModel(1)) == 200.0
    assert latency_us(PipelineModel(1, stage_time_us=1.0, overhead_us=1e-9)) == pytest.approx(2.0)
    for n in range(1, 11):
        assert latency_us(PipelineModel(n)) == 80.0 * n + 120.0


def test_pipeline_model_validation():
    with pytest.raises(ValueError):
        PipelineModel(0)
    with pytest.raises(ValueError):
        PipelineModel(3, stage_time_us=-1.0)


def test_pose_via_free_vectors():
    chain = [
        DhJoint(ROTARY, 0.7, 0.1, 0.2, -0.9),
        DhJoint(ROTARY, -0.4, 0.15, 0.1, 0.5),
        DhJoint(ROTARY, 1.8, 0.05, 0.12, -2.2),
    ]
    pose = ccm_pose(chain, CFG)
    assert np.abs(pose - chain_pose(chain)).max() < 1e-5
    assert np.array_equal(pose[3], [0, 0, 0, 1])


def test_op_counts_scale():
    assert point_op_count(CFG) == 2 * (2 + 5 * 24) + 2 * (3 * 24)
    assert pose_op_count(6, CFG) == 24 * point_op_count(CFG)


def test_reach_beyond_format_raises_domain_error():
    far = DhJoint(ROTARY, 0.3, 200.0, 0.0, 0.2)  # z = 200 would pin at the Q8.24 edge
    with pytest.raises(DomainError):
        ccm_transform(far, Vec4(0, 0, 0), CFG)
    with pytest.raises(DomainError):
        ccm_transform(DhJoint(ROTARY, 0.3, 0.0, 0.0, 0.2), Vec4(0, 0, 70.0), CFG)
    free = ccm_transform(far, Vec4(0, 0, 1, 0.0), CFG).p_out  # no translation
    assert abs(free.z - math.cos(0.2)) < TOL


def test_largest_accepted_reach_is_not_pinned():
    j = DhJoint(ROTARY, 0.3, 60.0, 0.0, 0.2)
    p = Vec4(0.0, 0.0, 31.0)  # 2*31 + 60 + 2 = 124 < 128
    got = ccm_transform(j, p, CFG).p_out
    want = apply_point(link_transform(j), p)
    assert abs(got.z - want.z) < 1e-4
