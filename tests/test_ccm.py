import dataclasses
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkemu import ccm, cli, cordic

from fkemu.ccm import (
    PipelineModel,
    ccm_points,
    ccm_poses,
    latency_us,
    point_op_count,
    pose_op_count,
)
from fkemu.cordic import LINEAR, CordicConfig, _angle_fx, circ_rotate_sigmas, linear_accumulate
from fkemu.dh import ChainSet, DhJoint, PRISMATIC, ROTARY, chain_pose
from fkemu.fixedpoint import (
    MAX_ANGLE, DomainError, Q8_24, QFormat, lane_dtype, lanes_from_real, lanes_real, rescale,
)
from reference import linear_lanes

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
    p = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0)
    return j, p


def push(j, p):
    """One module: the point or free vector p = (x, y, z, w) through joint j."""
    return ccm_points(ChainSet.of([(j,)]), [p], CFG)[0]


def test_zero_joint_zero_point():
    out = push(DhJoint(ROTARY, 0, 0, 0, 0), (0, 0, 0, 1.0))
    assert np.abs(out[:3]).max() < 1e-6
    assert out[3] == 1.0


def test_pure_z_translation():
    out = push(DhJoint(ROTARY, 0, 5.0, 0, 0), (1, 2, 3, 1.0))
    assert np.abs(out[:3] - [1, 2, 8]).max() < 1e-5


def test_matches_matrix_oracle():
    # one lane per (joint, point), as acceptance c02 runs it
    rng = random.Random(31)
    pairs = [random_pair(rng) for _ in range(200)]
    got = ccm_points(ChainSet.of([(j,) for j, _ in pairs]), [p for _, p in pairs], CFG)
    want = np.array([chain_pose([j]) @ p for j, p in pairs])
    assert np.abs(got[:, :3] - want[:, :3]).max() <= TOL


def test_two_step_substitution_identity():
    # expanding the two stages in doubles reproduces the link-matrix rows
    rng = random.Random(33)
    for _ in range(300):
        j, p = random_pair(rng)
        ca, sa = math.cos(j.alpha), math.sin(j.alpha)
        ct, st = math.cos(j.theta), math.sin(j.theta)
        x, y, z, _ = p
        x_a, y_a, z_a = x + j.a, y * ca - z * sa, z * ca + y * sa
        two_step = np.array([
            x_a * ct - y_a * st,
            y_a * ct + x_a * st,
            z_a + j.d,
        ])
        direct = (chain_pose([j]) @ p)[:3]
        assert np.abs(two_step - direct).max() < 1e-12


def test_free_vector_skips_translation():
    j = DhJoint(ROTARY, 0.0, 5.0, 3.0, 0.0)
    out = push(j, (0.25, 0, 0, 0.0))
    assert abs(out[0] - 0.25) < 1e-5
    assert abs(out[2]) < 1e-5
    assert out[3] == 0.0


def test_w_must_be_zero_or_one():
    with pytest.raises(ValueError):
        push(DhJoint(ROTARY, 0, 0, 0, 0), (0, 0, 0, 0.5))


def test_pipeline_processor_count_and_identity_link():
    chain = [DhJoint(ROTARY, 0, 0, 0, 0)]
    x, y, z, _ = ccm_points(ChainSet.of([chain]), [(0.3, -0.2, 0.6, 1.0)], CFG)[0]
    assert PipelineModel(len(chain)).processors == 4
    assert abs(x - 0.3) < 1e-5 and abs(y + 0.2) < 1e-5 and abs(z - 0.6) < 1e-5
    assert PipelineModel(6).processors == 24
    assert latency_us(PipelineModel(6)) == 600.0


def test_pipeline_matches_chain_oracle():
    rng = random.Random(34)
    worst = 0.0
    for _ in range(30):
        chain = [
            DhJoint(ROTARY, rng.uniform(-math.pi, math.pi), rng.uniform(-0.25, 0.25),
                    rng.uniform(-0.25, 0.25), rng.uniform(-math.pi, math.pi))
            for _ in range(3)
        ]
        p = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 1.0)
        got = ccm_points(ChainSet.of([chain]), [p], CFG)[0]
        want = chain_pose(chain) @ p
        worst = max(worst, float(np.abs(got[:3] - want[:3]).max()))
    assert worst < 3 * len(chain) * TOL


def test_pipeline_equals_iterated_modules_exactly():
    rng = random.Random(35)
    chain = [
        DhJoint(ROTARY, rng.uniform(-2, 2), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-2, 2))
        for _ in range(4)
    ]
    p = (0.2, -0.1, 0.15, 1.0)
    via_pipeline = ccm_points(ChainSet.of([chain]), [p], CFG)[0]
    for j in reversed(chain):
        p = ccm_points(ChainSet.of([(j,)]), [p], CFG)[0]
    assert via_pipeline.tolist() == p.tolist()  # same code path, bit-identical


def test_poses_reject_empty_and_ragged_chains():
    j = DhJoint(ROTARY, 0.1, 0.1, 0.1, 0.1)
    for chains in ([], [()], [(j,), ()]):
        with pytest.raises(ValueError, match="empty chain"):
            ccm_poses(ChainSet.of(chains), CFG)
    with pytest.raises(ValueError, match="one length"):
        ccm_poses(ChainSet.of([(j,), (j, j)]), CFG)


def test_no_chains_give_empty_points_and_poses():
    # as dh.chain_poses does: an empty stack, not a failing lane search
    empty = ChainSet(*(np.zeros((0, 2)),) * 4)
    points = ccm_points(empty, np.zeros((0, 4)), CFG)
    poses = ccm_poses(empty, CFG)
    assert (points.shape, points.dtype) == ((0, 4), np.float64)
    assert (poses.shape, poses.dtype) == ((0, 4, 4), np.float64)


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
    pose = ccm_poses(ChainSet.of([chain]), CFG)[0]
    assert np.abs(pose - chain_pose(chain)).max() < 1e-5
    assert np.array_equal(pose[3], [0, 0, 0, 1])


def test_op_counts_scale():
    assert point_op_count(CFG) == 2 * (2 + 5 * 24) + 2 * (3 * 24)
    assert pose_op_count(6, CFG) == 24 * point_op_count(CFG)


def test_reach_beyond_format_raises_domain_error():
    far = DhJoint(ROTARY, 0.3, 200.0, 0.0, 0.2)  # z = 200 would pin at the Q8.24 edge
    with pytest.raises(DomainError):
        push(far, (0, 0, 0, 1.0))
    with pytest.raises(DomainError):
        push(DhJoint(ROTARY, 0.3, 0.0, 0.0, 0.2), (0, 0, 70.0, 1.0))
    free = push(far, (0, 0, 1, 0.0))  # no translation
    assert abs(free[2] - math.cos(0.2)) < TOL
    with pytest.raises(DomainError):  # inf * 0 is nan, which fails the bound
        push(dataclasses.replace(far, d=math.inf), (0, 0, 1, 0.0))


def test_reach_overflow_raises_domain_error_without_warning():
    huge = [DhJoint(ROTARY, 0.1, 1e308, 1e308, 0.3), DhJoint(ROTARY, 0.2, 1e308, 1e308, 0.5)]
    # the link constants become raws once per cascade, before any reach
    # check: on object lanes too (a 56-bit word), where converting inf raises
    for cfg in (CFG, CordicConfig(40, QFormat(56, 40))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="link 1"):  # reach sum overflows to inf
                ccm_poses(ChainSet.of([huge]), cfg)
            with pytest.raises(DomainError, match="link 0"):  # 2 * hypot overflows to inf
                ccm_points(ChainSet.of([[DhJoint(ROTARY, 0.1, 0.1, 0.1, 0.3)]]), [(1e308, 1e308, 0, 1)], cfg)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, 2.0**21])
@pytest.mark.parametrize("field", ["theta", "alpha"])
def test_joint_angle_outside_domain_raises_domain_error(field, angle):
    j = dataclasses.replace(DhJoint(ROTARY, 0.3, 0.1, 0.1, 0.2), **{field: angle})
    with pytest.raises(DomainError):
        push(j, (0.1, 0, 0, 1.0))


def test_largest_accepted_reach_is_not_pinned():
    j = DhJoint(ROTARY, 0.3, 60.0, 0.0, 0.2)
    p = (0.0, 0.0, 31.0, 1.0)  # 2*31 + 60 + 2 = 124 < 128
    got = push(j, p)
    want = chain_pose([j]) @ p
    assert abs(got[2] - want[2]) < 1e-4


@pytest.mark.parametrize("fmt", [Q8_24, QFormat(16, 12), QFormat(8, 2)], ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_reach_check_is_the_documented_bound(fmt, data):
    # z puts the reach 2|p|_2 + |a_eff w| + |d w| + 2 within a few ulps of
    # the config's limit (the format's top in Q8.24 and Q4.12, below it in
    # Q6.2 at 2 iterations), where the array check must agree with the
    # bound evaluated in Python floats
    cfg = CordicConfig(fmt.frac_bits, fmt)
    limit = ccm._reach_limit(cfg)
    angle, small = st.floats(-math.pi, math.pi), st.floats(-limit / 16, limit / 16)
    kind, w = data.draw(st.sampled_from([ROTARY, PRISMATIC])), data.draw(st.sampled_from([0.0, 1.0]))
    j = DhJoint(kind, data.draw(angle), 2 * data.draw(small), 2 * data.draw(small), data.draw(angle))
    x, y = data.draw(small), data.draw(small)
    half = (limit - 2.0 - abs(j.a_eff * w) - abs(j.d * w)) / 2.0
    z = math.sqrt(half * half - x * x - y * y) * data.draw(st.sampled_from([-1.0, 1.0]))
    for _ in range(data.draw(st.integers(0, 4))):
        z = math.nextafter(z, data.draw(st.sampled_from([-math.inf, math.inf])))
    reach = 2.0 * math.hypot(x, y, z) + abs(j.a_eff * w) + abs(j.d * w) + 2.0
    joints, points = [j], [(x, y, z, w)]
    if data.draw(st.booleans()):
        # the boundary lane anywhere among 63 lanes far inside the bound,
        # which the vectorized norm alone decides
        at, rng = data.draw(st.integers(0, 63)), np.random.default_rng(fmt.frac_bits)
        joints = [DhJoint(ROTARY, *rng.uniform(-0.5, 0.5, 4)) for _ in range(63)]
        points = np.column_stack([rng.uniform(-0.5, 0.5, (63, 3)), rng.integers(0, 2, 63)]).tolist()
        joints.insert(at, j)
        points.insert(at, (x, y, z, w))
    chains = ChainSet.of([(jk,) for jk in joints])
    if reach <= limit:
        ccm_points(chains, points, cfg)
    else:
        with pytest.raises(DomainError, match="link 0"):
            ccm_points(chains, points, cfg)


# n_iter = frac_bits + 2 and lower in the smallest formats the reach check
# lets points through (3 integer bits), Q8.24, and a 56-bit word on object
# lanes: every one keeps the format's top as its reach limit
CLIP_FREE_FORMATS = [QFormat(8, 5), QFormat(8, 4), Q8_24, QFormat(56, 40)]
# formats whose limit lies below the top at some n_iter: Q8.0 (1/K rounds
# to 1), Q6.2, Q7.1 and Q8.4, where the rounded 1/K adds gain the margin
# of 2 does not cover; in all but Q7.1 a clip does fire within the top
COARSE_FORMATS = [QFormat(8, 0), QFormat(8, 2), QFormat(8, 1), QFormat(12, 4)]


def test_clip_free_stages_cover_the_formats_in_use():
    for fmt in [*CLIP_FREE_FORMATS, QFormat(16, 12)]:
        for n in range(1, fmt.frac_bits + 3):
            assert ccm._reach_limit(CordicConfig(n, fmt)) == fmt.max_raw * fmt.eps
    for word in range(8, 17):
        for frac in range(word):
            fmt = QFormat(word, frac)
            for n in range(1, min(frac + 2, word) + 1):
                assert ccm._reach_limit(CordicConfig(n, fmt)) <= fmt.max_raw * fmt.eps


def test_reach_check_refuses_what_a_clip_would_pin():
    # each lane's reach is within the format's top, but CIRC2 would grow
    # (a, 0) past it: in Q8.0 1/K rounds to 1, and in Q8.4 at 3 iterations
    # the rounded 1/K leaves more gain than the margin absorbs.  The reach
    # limit of those configs lies below the top, and the lane raises
    for cfg, a in [(CordicConfig(2, QFormat(8, 0)), 100.0), (CordicConfig(3, QFormat(12, 4)), 125.9)]:
        assert 2.0 + a <= cfg.fmt.max_raw * cfg.fmt.eps
        assert ccm._reach_limit(cfg) < 2.0 + a
        chains, points = ChainSet.of([(DhJoint(ROTARY, 0.0, 0.0, a, 0.0),)]), [(0, 0, 0, 1.0)]
        with pytest.raises(DomainError, match=f"link 0 can saturate {cfg.fmt} at n_iter {cfg.n_iter}"):
            ccm_points(chains, points, cfg)


def test_linear_partial_sums_stay_within_the_proofs_bound():
    # _module's proof: an accumulate c + v, staged as linear_accumulate
    # stages it, keeps every partial sum of the clipping loop within |c| +
    # max(u, 2|v|).  With c = 0, on every raw of the 8- and 12-bit formats
    # that have linear lanes; the partial sums of fewer steps are a prefix
    for word in (8, 12):
        for frac in range(word - 1):
            fmt, u = QFormat(word, frac), 1 << frac
            cfg = CordicConfig(frac + 2, fmt)
            v = np.arange(fmt.min_raw, fmt.max_raw + 1)
            k = np.zeros_like(v)
            while (big := (abs(v >> k) > 2 * u) & (k < word - frac - 2)).any():
                k = k + big
            z, unit, total = v >> k, np.left_shift(u, k), np.zeros_like(v)
            for i in range(cfg.n_iter):
                sigma = np.where(z >= 0, 1, -1)
                total = total + sigma * (unit >> i)
                z = z - sigma * _angle_fx(LINEAR, i, fmt)
                assert (abs(total) <= np.maximum(u, 2 * abs(v))).all()
            assert total.tolist() == linear_accumulate(np.zeros_like(v), v, cfg).tolist()


@st.composite
def reach_edge_lanes(draw):
    # one lane whose reach 2|p|_2 + |a_eff w| + |d w| + 2 lies within a few
    # ulps of the config's reach limit, the budget split between a, d and
    # |p| as drawn (as test_reach_check_is_the_documented_bound builds its
    # lane, but with a and d up to the whole budget), among lanes far
    # inside it
    fmt = draw(st.sampled_from(CLIP_FREE_FORMATS + COARSE_FORMATS))
    cfg = CordicConfig(draw(st.one_of(st.just(fmt.frac_bits + 2), st.integers(1, fmt.frac_bits + 2))), fmt)
    limit = ccm._reach_limit(cfg)
    budget, unit, sign = limit - 2.0, st.floats(0.0, 1.0), st.sampled_from([-1.0, 1.0])
    kind, w = draw(st.sampled_from([ROTARY, PRISMATIC])), draw(st.sampled_from([0.0, 1.0]))
    a = budget * draw(unit) * draw(sign)
    d = (budget - abs(a)) * draw(unit) * draw(sign)
    j = DhJoint(kind, draw(st.floats(-math.pi, math.pi)), d, a, draw(st.floats(-math.pi, math.pi)))
    half = (budget - abs(j.a_eff * w) - abs(j.d * w)) / 2.0
    x = half * draw(unit) * draw(sign)
    y = math.sqrt(half * half - x * x) * draw(unit) * draw(sign)
    z = math.sqrt(max(0.0, half * half - x * x - y * y)) * draw(sign)
    for _ in range(draw(st.integers(0, 4))):
        z = math.nextafter(z, draw(st.sampled_from([-math.inf, math.inf])))
    assume(2.0 * math.hypot(x, y, z) + abs(j.a_eff * w) + abs(j.d * w) + 2.0 <= limit)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n, inside = draw(st.integers(0, 63)), budget / 8  # reach at most 2 sqrt(3) s + 2 s + 2 <= limit
    joints = [DhJoint(ROTARY, *rng.uniform(-inside, inside, 4)) for _ in range(n)]
    points = np.column_stack([rng.uniform(-inside, inside, (n, 3)), rng.integers(0, 2, n)]).tolist()
    at = draw(st.integers(0, n))
    joints.insert(at, j)
    points.insert(at, (x, y, z, w))
    return cfg, ChainSet.of([(jk,) for jk in joints]), points


def _clipped_stage(x, y, swap, signs, sigmas, cfg, saturate):
    """circ_rotate_sigmas with every clip, whatever the cascade asks."""
    return circ_rotate_sigmas(x, y, swap, signs, sigmas, cfg)


def _clipped_linear_lanes(x, y, z, cfg):
    """The linear loop with every partial sum and residual clipped, as a
    fold of cordic_step in LINEAR mode forms them."""
    fmt = cfg.fmt
    for i in range(cfg.n_iter):
        sigma = np.where(z >= 0, 1, -1).astype(y.dtype)
        y = rescale(y + sigma * (x >> i), fmt.frac_bits, fmt)
        z = rescale(z - sigma * _angle_fx(LINEAR, i, fmt), fmt.frac_bits, fmt)
    return y


def _clipped_unit_lanes(y, z, k, cfg):
    """linear_unit_lanes as the clipped loop: the unit 2**(frac_bits + k)
    built as lanes and accumulated with every partial sum clipped."""
    unit = np.array([1 << (cfg.fmt.frac_bits + kk) for kk in k.ravel().tolist()], dtype=y.dtype)
    return _clipped_linear_lanes(unit.reshape(k.shape), y, z, cfg)


@settings(max_examples=80, deadline=None)
@given(reach_edge_lanes())
def test_clip_free_stages_equal_the_clipped_route(case):
    # the cascade runs no clip; with every clip kept, in the circular
    # stages and in every linear partial sum, the bits must be the same on
    # every lane the reach check passes
    cfg, chains, points = case
    free = ccm_points(chains, points, cfg)
    with mock.patch.object(ccm, "circ_rotate_sigmas", side_effect=_clipped_stage) as stage, \
            mock.patch.object(cordic, "linear_unit_lanes", side_effect=_clipped_unit_lanes) as linear:
        clipped = ccm_points(chains, points, cfg)
    assert stage.called and linear.called  # neither patch may go inert
    assert free.tobytes() == clipped.tobytes()


# the coarse configs whose limit lies below the top, and a few that keep it
EDGE_CONFIGS = [
    (1, QFormat(8, 0)), (2, QFormat(8, 0)), (2, QFormat(8, 2)), (3, QFormat(8, 2)), (2, QFormat(8, 1)),
    (3, QFormat(8, 1)), (1, QFormat(12, 4)), (3, QFormat(12, 4)), (6, QFormat(12, 4)), (1, Q8_24),
    (24, Q8_24), (1, QFormat(8, 4)), (2, QFormat(8, 4)), (1, QFormat(16, 12)),
]


def _edge_lanes(cfg, n, rng):
    """n one-link lanes whose reach lies just under cfg's reach limit, the
    budget split between |a|, |d| and 2|p| at random, and all of it on one
    of them in a third of the lanes; points and free vectors alike."""
    budget = (ccm._reach_limit(cfg) - 2.0) * (1.0 - 2.0**-30)
    share = rng.dirichlet(np.ones(3), n)
    share[: n // 3] = np.eye(3)[rng.integers(0, 3, n // 3)]
    w = rng.integers(0, 2, n).astype(np.float64)
    share[w == 0.0] = [0.0, 0.0, 1.0]  # a free vector's reach is 2|p| alone
    a, d = (budget * share[:, k] * rng.choice([-1.0, 1.0], n) for k in (0, 1))
    direction = rng.normal(size=(n, 3))
    p = direction / np.linalg.norm(direction, axis=1, keepdims=True) * (budget * share[:, 2:] / 2.0)
    theta, alpha = rng.uniform(-math.pi, math.pi, (2, n, 1))
    return ChainSet(theta, d[:, None], a[:, None], alpha), np.column_stack([p, w])


def test_coarse_configs_equal_the_clipped_route_at_the_limit():
    # a sweep beside the property below, which draws few coarse lanes: in
    # each config, lanes at the reach limit give the bits of the route
    # with every clip kept
    rng = np.random.default_rng(23)
    for n_iter, fmt in EDGE_CONFIGS:
        cfg = CordicConfig(n_iter, fmt)
        chains, points = _edge_lanes(cfg, 600, rng)
        free = ccm_points(chains, points, cfg)
        with mock.patch.object(ccm, "circ_rotate_sigmas", side_effect=_clipped_stage) as stage, \
                mock.patch.object(cordic, "linear_unit_lanes", side_effect=_clipped_unit_lanes) as linear:
            clipped = ccm_points(chains, points, cfg)
        assert stage.called and linear.called  # neither patch may go inert
        assert free.tobytes() == clipped.tobytes(), cfg

@st.composite
def linear_stacks(draw):
    # int64 lanes (Q8.24) and object lanes (a 56-bit word); raws up to 8.0,
    # so linear_accumulate stages a lane by 2**k, k = 0..2, differing per lane,
    # and no partial sum nears the range
    fmt = draw(st.sampled_from([Q8_24, QFormat(56, 40)]))
    cfg = CordicConfig(draw(st.integers(1, fmt.frac_bits + 2)), fmt)
    lanes = draw(st.integers(1, 6))
    big, two = 8 << fmt.frac_bits, 2 << fmt.frac_bits
    raw = st.one_of(st.sampled_from([-big, big, 0, -1, 1, -two, two, two + 1, 4 * two + 1]), st.integers(-big, big))
    values = draw(st.lists(raw, min_size=6 * lanes, max_size=6 * lanes))
    return cfg, np.array(values, dtype=lane_dtype(fmt)).reshape(3, 2, lanes)


@settings(max_examples=60, deadline=None)
@given(linear_stacks())
def test_stacked_linear_lanes_equal_row_calls(batch):
    # the module runs LIN1 and LIN2 as one (2, lanes) stack: each row must
    # have the bits of a call on that row alone
    cfg, (x, y, z) = batch
    for stacked, rows in [
        (linear_lanes(x, y, z, cfg), [linear_lanes(x[r], y[r], z[r], cfg) for r in range(2)]),
        (linear_accumulate(y, z, cfg), [linear_accumulate(y[r], z[r], cfg) for r in range(2)]),
    ]:
        assert stacked.shape == x.shape
        assert stacked.dtype == rows[0].dtype == lane_dtype(cfg.fmt)
        assert stacked.tolist() == [row.tolist() for row in rows]


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
    got = ccm_poses(ChainSet.of(chains), CFG)
    assert got.shape == (len(chains), 4, 4)
    for k, chain in enumerate(chains):
        assert got[k].tobytes() == ccm_poses(ChainSet.of([chain]), CFG)[0].tobytes()
    origin = ccm_points(ChainSet.of([chains[0]]), [(0, 0, 0, 1.0)], CFG)[0]
    assert got[0][:, 3].tolist() == origin.tolist()


# `fkemu solve` on the module cascade at a 56-bit word; the ledger,
# tests/test_pins.py, holds the raw pose bits.
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
    assert cli.main(["solve", "puma560", "--backend", "cordic", "--format", "Q16.40", "--iters", "40"]) == 0
    assert capsys.readouterr().out == GOLDEN_SOLVE_Q16_40


def _lane_route_poses(chains, cfg):
    """ccm_poses as one plan per lane: ccm_points on every chain repeated
    on four lanes, pushing the rows of eye(4), each pose's columns."""
    lanes = ChainSet(*(v.repeat(4, axis=0) for v in (chains.theta, chains.d, chains.a_eff, chains.alpha)))
    out = ccm_points(lanes, np.tile(np.eye(4), (len(chains), 1)), cfg)
    return out.reshape(len(chains), 4, 4).transpose(0, 2, 1)


def _pose_outcome(route, chains, cfg):
    try:
        return route(chains, cfg).tobytes()
    except ValueError as e:  # DomainError included
        return type(e).__name__, str(e)


# Q8.24, Q16.40 on object lanes, Q8.0 at 2 iterations (1/K rounds to 1,
# limit about a quarter of the top) and Q4.12
PLAN_CONFIGS = [CordicConfig(24, Q8_24), CordicConfig(40, QFormat(56, 40)), CordicConfig(2, QFormat(8, 0)),
                CordicConfig(12, QFormat(16, 12))]


@pytest.mark.parametrize("cfg", PLAN_CONFIGS, ids=str)
def test_per_chain_plan_equals_the_per_lane_route(cfg):
    # ccm_poses plans each chain once and repeats the plan onto its four
    # lanes: the bits, or the error type and message, must be those of a
    # plan made on every lane
    limit = ccm._reach_limit(cfg)
    puma = cli.load_chain("puma560").joints
    # Q8.0 has no 1/K: a free vector grows by ~2.5 a module, so it takes 3 links
    links = puma[:3] if cfg.fmt.frac_bits == 0 else puma
    ok = cli.bench_variants(tuple(dataclasses.replace(j, d=j.d * limit / 8, a=j.a * limit / 8) for j in links), 5, 3)
    far = ChainSet(*(v.copy() for v in (ok.theta, ok.d, ok.a_eff, ok.alpha)))
    far.d[2, -2:] = 0.45 * limit  # chain 2's origin lane fails at the second module
    past = ChainSet(*(v.copy() for v in (ok.theta, ok.d, ok.a_eff, ok.alpha)))
    past.theta[4, 1] = math.nextafter(MAX_ANGLE, math.inf)
    outcomes = []
    for chains in (ok, far, past):
        got = _pose_outcome(ccm_poses, chains, cfg)
        assert got == _pose_outcome(_lane_route_poses, chains, cfg)
        outcomes.append(got)
    assert isinstance(outcomes[0], bytes)
    assert outcomes[1][0] == "DomainError" and "the first of 1 failing lanes" in outcomes[1][1]
    assert outcomes[2][0] == "DomainError" and "at most" in outcomes[2][1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PLAN_CONFIGS), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**16),
       st.sampled_from([0.1, 0.3, 0.5]))
def test_random_chain_sets_take_the_per_lane_routes_outcome(cfg, n_chains, links, seed, scale):
    # chain sets whose reach runs up to and past the limit: most pass, some
    # fail at a later link or at the first, on one lane or on several
    rng = np.random.default_rng(seed)
    reach = ccm._reach_limit(cfg) * scale
    theta, alpha = rng.uniform(-4 * math.pi, 4 * math.pi, (2, n_chains, links))
    d, a = rng.uniform(-reach, reach, (2, n_chains, links))
    chains = ChainSet(theta, d, a, alpha)
    assert _pose_outcome(ccm_poses, chains, cfg) == _pose_outcome(_lane_route_poses, chains, cfg)


# formats of 8 and 16 bits, Q8.24, and Q16.40 on object lanes, which does
# not carry its raws between modules
CLEARANCE_FORMATS = [QFormat(8, 0), QFormat(8, 4), QFormat(8, 5), QFormat(16, 4), QFormat(16, 12), Q8_24,
                     QFormat(56, 40)]


@st.composite
def one_max_modules(draw):
    # a module's lanes whose one-max bound 2 sqrt(3) top + C + 2 lies near
    # the reach limit: just inside or outside the clearance margin, or far
    # from the limit on either side.  Lane 0 is the tight case, |x| = |y| =
    # |z| = top and |a_eff w| + |d w| = C; the others lie within both
    fmt = draw(st.sampled_from(CLEARANCE_FORMATS))
    cfg = CordicConfig(draw(st.integers(1, fmt.frac_bits + 2)), fmt)
    limit = ccm._reach_limit(cfg)
    margin = st.sampled_from([-ccm.CLEAR_MARGIN, 0.0]).flatmap(lambda m: st.floats(m - 2.0**-48, m + 2.0**-48))
    target = limit * (1.0 + draw(st.one_of(margin, st.floats(-0.5, 0.5))))
    c = (target - 2.0) * draw(st.floats(0.0, 1.0))
    top = (target - 2.0 - c) / (2.0 * ccm.SQRT3)
    assume(top >= 0.0)
    share, sign = draw(st.floats(0.0, 1.0)), st.sampled_from([-1.0, 1.0])
    lanes = [(*(top * draw(sign) for _ in range(3)), c * share * draw(sign), c * (1.0 - share) * draw(sign), 1.0)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for _ in range(draw(st.integers(0, 5))):
        part = rng.uniform(0.0, 1.0)
        lanes.append((*rng.uniform(-top, top, 3), *(c * f * rng.choice([-1.0, 1.0]) for f in (part, 1.0 - part)),
                      float(rng.integers(0, 2))))
    return cfg, np.array(lanes).T


@settings(max_examples=300, deadline=None)
@given(one_max_modules())
def test_one_max_clearance_never_clears_a_lane_the_exact_check_refuses(case):
    # the first module reads the caller's doubles, a later one its raws as
    # doubles, rounded in words past CARRY_BITS: either way, a module the
    # one bound clears must pass _check_reach on every lane
    cfg, (x, y, z, a, d, w) = case
    limit = ccm._reach_limit(cfg)
    consts = np.array([a * w, d * w])
    c = float(np.abs(consts).sum(axis=0).max())
    first = np.array([x, y, z])
    raws = lanes_from_real(first, cfg.fmt)
    later = lanes_real(raws, cfg.fmt)
    for p, top in [(first, float(np.abs(first).max())), (later, float(np.abs(raws).max()) * cfg.fmt.eps)]:
        assert top >= np.abs(p).max()
        if ccm._clears(top, c, limit):
            ccm._check_reach(0, p, w, np.zeros(w.shape, dtype=bool), consts, cfg)


@st.composite
def cascade_sets(draw):
    # chains of 1-4 links in words of at most 54 bits, on int64 and object
    # lanes, their reach drawn up to and past the limit: most sets pass,
    # some fail at a later link, some at the first
    fmt = draw(st.sampled_from([QFormat(8, 4), QFormat(8, 5), QFormat(16, 12), Q8_24, QFormat(54, 38)]))
    cfg = CordicConfig(draw(st.integers(1, fmt.frac_bits + 2)), fmt)
    scale = ccm._reach_limit(cfg) * draw(st.sampled_from([0.05, 0.2, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lanes, links = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    theta, alpha = rng.uniform(-math.pi, math.pi, (2, lanes, links))
    d, a = rng.uniform(-scale, scale, (2, lanes, links))
    points = np.column_stack([rng.uniform(-scale, scale, (lanes, 3)), rng.integers(0, 2, lanes)])
    if draw(st.booleans()):
        points[rng.integers(0, lanes), 3] = 0.5  # a bad w on one lane
    return cfg, ChainSet(theta, d, a, alpha), points


def _outcome(chains, points, cfg):
    try:
        return ccm_points(chains, points, cfg).tobytes()
    except ValueError as e:  # DomainError included
        return type(e).__name__, str(e)


@settings(max_examples=60, deadline=None)
@given(cascade_sets())
def test_carried_raws_and_one_max_clearance_keep_bits_and_decisions(case):
    # the same bits and the same error, message and all, as the route that
    # passes every lane through doubles between modules and checks every
    # module exactly
    cfg, chains, points = case
    fast = _outcome(chains, points, cfg)
    with mock.patch.object(ccm, "CARRY_BITS", 0), mock.patch.object(ccm, "_clears", return_value=False):
        assert fast == _outcome(chains, points, cfg)
    with mock.patch.object(ccm, "CARRY_BITS", 0):
        assert fast == _outcome(chains, points, cfg)


@settings(max_examples=30, deadline=None)
@given(reach_edge_lanes())
def test_reach_edge_lanes_take_the_exact_check(case):
    # a lane within a few ulps of the reach limit is never cleared by the
    # one bound: the exact check decides it, as the reach tests above need
    cfg, chains, points = case
    with mock.patch.object(ccm, "_check_reach", wraps=ccm._check_reach) as check:
        ccm_points(chains, points, cfg)
    assert check.call_count == 1
