import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkemu.dh import (
    ChainSet,
    DhJoint,
    PRISMATIC,
    ROTARY,
    PumaParams,
    chain_pose,
    chain_poses,
    chain_product,
    decompose,
    exact_sincos,
    provider_links,
    puma_chain,
    puma_closed_form,
)
from fkemu.fixedpoint import DomainError
from test_providers import PROVIDERS as CONTRACT

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
    assert np.array_equal(chain_pose([DhJoint(ROTARY, 0, 0, 0, 0)]), np.eye(4))


def test_link_transform_quarter_turn():
    m = chain_pose([DhJoint(ROTARY, math.pi / 2, 0, 1.0, 0)])
    assert np.allclose(m[:3, 3], [0, 1, 0], atol=1e-15)


def test_link_transform_matches_four_factor_oracle():
    j = DhJoint(ROTARY, 0.3, 0.2, 0.5, 0.7)
    assert np.abs(chain_pose([j]) - four_factor_product(j)).max() < 1e-15
    rng = random.Random(21)
    for _ in range(500):
        j = random_joint(rng)
        assert np.abs(chain_pose([j]) - four_factor_product(j)).max() < 1e-12


def test_prismatic_ignores_a_offset():
    j = DhJoint(PRISMATIC, 0.4, 0.9, 0.77, 0.2)
    m = chain_pose([j])
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
        assert np.abs(tz @ rz @ tx @ rx - chain_pose([j])).max() < 1e-12


def test_chain_pose_single_and_empty():
    j = DhJoint(ROTARY, 0.5, 0.2, 0.3, -0.4)
    # one link, assembled one joint at a time and as a stack, bit for bit
    assert np.array_equal(chain_pose([j]), chain_poses(ChainSet.of([[j]]))[0])
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
        for m in (chain_pose(chain[:1]), chain_pose(chain)):
            r = m[:3, :3]
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-9
            assert np.array_equal(m[3], [0, 0, 0, 1])


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


PROVIDERS = {"matrix": exact_sincos} | {
    name: CONTRACT[name].sincos for name in ("cordic", "taylor", "lut-nearest", "lut-linear")
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
    got = chain_poses(ChainSet.of(chains), sincos)
    assert got.shape == (len(chains), 4, 4)
    for k, chain in enumerate(chains):
        assert got[k].tobytes() == chain_pose(chain, sincos).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    chains=st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(joint_strategy, min_size=n, max_size=n).map(tuple), min_size=1, max_size=5)
    ),
    providers=st.lists(st.sampled_from(sorted(PROVIDERS)), min_size=1, max_size=6),
)
def test_one_product_over_stacked_providers(chains, providers):
    # fkemu bench's route: each provider called once on the stacked
    # (theta, alpha), one _link_stack over every provider's (cos, sin) in
    # provider_links, in any order (repeats too), and one chain_product
    # over the whole stack, with no reshape
    chain_set = ChainSet.of(chains)
    links = provider_links(chain_set, [PROVIDERS[p] for p in providers])
    assert links.shape == (len(providers), len(chains), len(chains[0]), 4, 4)
    poses = chain_product(links)
    assert poses.shape == (len(providers), len(chains), 4, 4)
    for provider, slot, got in zip(providers, links, poses):
        sincos = PROVIDERS[provider]
        assert slot.tobytes() == provider_links(chain_set, [sincos])[0].tobytes()
        assert got.tobytes() == chain_poses(chain_set, sincos).tobytes()
        for k, chain in enumerate(chains):
            assert got[k].tobytes() == chain_pose(chain, sincos).tobytes()
            # a bare (n, 4, 4) chain gives its one (4, 4) pose
            assert chain_product(slot[k]).tobytes() == got[k].tobytes()


HUGE = (DhJoint(ROTARY, 0.1, 1e308, 1e308, 0.3), DhJoint(ROTARY, 0.2, 1e308, 1e308, 0.5))


@pytest.mark.parametrize("chain, stacked", [
    (HUGE, "pose is not finite in float64"),  # the product overflows
    # one link, no product: inf as given; the stacked route refuses the constant
    ((DhJoint(ROTARY, 0.1, math.inf, 0.1, 0.3),), "link constant is not finite in float64"),
    ((DhJoint(PRISMATIC, 0.1, 0.2, 0.0, 0.3), DhJoint(ROTARY, 0.2, math.nan, 0.1, 0.5)),
     "link constant is not finite in float64"),
], ids=["overflow", "inf-link", "nan-link"])
def test_pose_past_float64_raises_domain_error_without_warning(chain, stacked):
    # the library's own domain; the RuntimeWarning filter of the test
    # config turns any overflow warning into a failure
    for provider in ("matrix", "taylor"):
        with pytest.raises(DomainError, match="pose is not finite in float64"):
            chain_pose(chain, PROVIDERS[provider])
        with pytest.raises(DomainError, match=stacked):
            chain_poses(ChainSet.of([chain, chain]), PROVIDERS[provider])


@pytest.mark.parametrize("a, d", [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (0.1, math.inf)])
def test_links_refuse_a_non_finite_constant_without_warning(a, d):
    # an infinite a times a zero sine would be a NaN link entry; the
    # RuntimeWarning filter of the test config fails any warning
    chains = ChainSet.of([[DhJoint(ROTARY, 0.0, d, a, 0.0)]])
    with pytest.raises(DomainError, match="link constant is not finite in float64"):
        chain_poses(chains)
    with pytest.raises(DomainError, match="link constant is not finite in float64"):
        provider_links(chains, [exact_sincos])


def test_chain_product_stays_the_ieee_layer():
    # fkemu bench and solve check the product's poses themselves
    with np.errstate(over="ignore", invalid="ignore"):
        pose = chain_product(provider_links(ChainSet.of([HUGE]), [exact_sincos])[0])
    assert not np.isfinite(pose).all()


@pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 4, 4)])
def test_chain_product_of_no_links_raises(shape):
    # as chain_pose([]) does, not an IndexError
    with pytest.raises(ValueError, match="empty chain"):
        chain_product(np.zeros(shape))


def test_chain_poses_reject_empty_and_ragged_sets():
    # ChainSet.of is the one place a chain set is checked: chain_poses,
    # ccm_points and ccm_poses take only a ChainSet
    j = DhJoint(ROTARY, 0.1, 0.1, 0.1, 0.1)
    for chains in ([], [()], [(j,), ()]):
        with pytest.raises(ValueError, match="empty chain"):
            chain_poses(ChainSet.of(chains))
    with pytest.raises(ValueError, match="one length"):
        chain_poses(ChainSet.of([(j,), (j, j)]))


def test_exact_sincos_keeps_the_argument_kind():
    c, s = exact_sincos(0.3)
    assert type(c) is float and (c, s) == (math.cos(0.3), math.sin(0.3))
    cos, sin = exact_sincos(np.array([[0.3, -2.0]]))
    assert cos.shape == (1, 2) and sin[0, 1] == np.sin(-2.0)
