"""Host-time micro-benchmarks of every layer of the emulator.

    PYTHONPATH=src python -m pytest benchmarks
    python benchmarks/ab.py PARENT --rows --pairs 10 | tail -n 1 > BENCH_<n>.json

Layers, bottom up: fixed-point primitive (rescale on 64 int64 lanes, the
narrowing of fx_from_real, cordic_step and Taylor's coefficient table,
which the lane kernels write out as shifts and bare clips instead of
calling it; fold_angle and quarter_turns on 8192 angles,
a lut_sincos block up to BENCH_30.json, and fold_angle on a chain12-bench
request's 384 angles, all under 2*pi), the CORDIC processors the cascade runs
(the closed-form unit linear accumulate on one row and on a module's
(2, 64) stack, the stage plan of a puma request's angles (fold, sigma
pass, quarter-turn moves and the casts to the lane dtype), made on all
768 lanes, and as the cascade makes it: per chain, repeated onto each
chain's four lanes, and one
circular stage run from its plan, with every clip and clip-free as the
cascade runs it), sin/cos generator per backend (one
lane, and batched; the LUT also on 65536 angles, two blocks, the
smallest array it splits across CPUs, and on perfbench lut-scan's 2**20
angles per table mode, Taylor and the LUT on a chain12-bench request's 384 angles), link-matrix
assembly and chain product apart (provider_links, the three providers'
trig on chain12-bench's 16 variants assembled in one pass, as fkemu bench
runs it; and chain_product on a stack of 48 chains: 16 variants for each
of three providers, 12 links each), chain
product or module cascade with their
link-matrix assembly (one chain, whose links chain_pose builds as one
(n, 4, 4) array, on puma560 and on thumb-vm's five-link thumb chain; one
module on 64 lanes; and the stacked product of a bench's 16 variants),
the seeded variant draw, the VM (its program translated once, when built,
into one host function)
and the naive thumb pose, one whole perfbench thumb-vm request, and one
in-process ``fkemu bench`` on puma560 and on a 12-link chain.
These time the emulator on the host; the modeled hardware latency is a
formula (ccm.latency_us, umdh.clock_time) and is not measured here.  The
suite sits outside the tier-1 testpaths; ``--benchmark-disable`` runs each
body once as a smoke test.

The host's speed drifts by up to 2x, so a row's minimum compares only
with one timed beside it: benchmarks/ab.py --rows times every row on a
parent and a change in interleaved pairs, and its last line, the record
of each row's median ratio, is committed as BENCH_<n>.json.
benchmarks/bench_trajectory.py chains those ratios across files.
"""

import contextlib
import io
import math
import os
import tempfile
from functools import partial

import numpy as np
import pytest

from fkemu import cli, cordic, lut, taylor, umdh
from fkemu.ccm import _by_link, ccm_points, ccm_poses
from fkemu.cordic import (
    DEFAULT_CONFIG,
    circ_rotate_lanes,
    circ_rotate_sigmas,
    circ_sigmas,
    linear_unit_lanes,
    sincos_cordic,
)
from fkemu.dh import ChainSet, chain_pose, chain_poses, chain_product, exact_sincos, provider_links
from fkemu.fixedpoint import (
    HALF_PI,
    Q8_24,
    fold_angle,
    fx_from_real,
    lanes_from_real,
    quarter_turns,
    rescale,
)

PUMA = cli.load_chain("puma560").joints
VARIANTS = cli.bench_variants(PUMA, 16, 5)
TABLE = lut.build_table(1024)
THUMB = cli.DEMO_THUMB
THUMB_ANGLES = (0.2, 0.4, -0.6, 0.8)


def _chain12_text():
    """perfbench chain12-bench's chain shape: 12 links, every third prismatic."""
    rng = np.random.default_rng(12)
    lines = ["name chain12"]
    for i in range(12):
        theta, alpha = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        d, a = float(rng.uniform(0.0, 0.3)), float(rng.uniform(-0.3, 0.3))
        lines.append(f"joint {'P' if i % 3 == 2 else 'R'} {theta!r} {d!r} {a!r} {alpha!r}")
    return "\n".join(lines) + "\n"


def _chain12_joints():
    """CHAIN12_TEXT's joints, as load_chain reads them from a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain12.chain")
        with open(path, "w") as fh:
            fh.write(CHAIN12_TEXT)
        return cli.load_chain(path).joints


CHAIN12_TEXT = _chain12_text()
CHAIN12_JOINTS = _chain12_joints()
# as many chains as one chain12-bench request stacks: the oracle, taylor
# and lut each take the 16 variants
CHAIN12_STACK = cli.bench_variants(CHAIN12_JOINTS, 48, 5)
# the 16 variants of one chain12-bench request
CHAIN12_VARIANTS = cli.bench_variants(CHAIN12_JOINTS, 16, 5)
# their (theta, alpha) stacked, as every provider of the request takes them:
# 2 x 16 variants x 12 links
CHAIN12_ANGLES = np.array([CHAIN12_VARIANTS.theta, CHAIN12_VARIANTS.alpha])


def test_rescale_64_lanes(benchmark):
    # products of two Q8.24 raws narrowed back into Q8.24, the outer ones saturating
    prod = np.arange(-32, 32, dtype=np.int64) * (3 << 50)
    benchmark(rescale, prod, 2 * Q8_24.frac_bits, Q8_24)


def test_fold_angle_8192_angles(benchmark):
    # 8192 |angles| over +-4 turns, as lut_sincos folds a block (lut.BLOCK
    # was 8192 up to BENCH_30.json; the row keeps that size)
    mag = np.abs(np.random.default_rng(20).uniform(-8 * math.pi, 8 * math.pi, 8192))
    benchmark(fold_angle, mag)


def test_fold_angle_384_angles(benchmark):
    # a chain12-bench request's angles: the stacked (theta, alpha) of its 16
    # variants, all within +-pi, as each provider folds them
    benchmark(fold_angle, np.abs(CHAIN12_ANGLES))


def test_quarter_turns_8192_block(benchmark):
    # the unfold of that block: its quadrants and the quarter table's
    # (cos r, sin r), as lut_sincos passes them
    q, r = fold_angle(np.abs(np.random.default_rng(20).uniform(-8 * math.pi, 8 * math.pi, 8192)))
    benchmark(quarter_turns, q, lut._sin_quarter(HALF_PI - r, TABLE), lut._sin_quarter(r, TABLE))


def test_linear_lanes_64_lanes(benchmark):
    # a LIN1 processor's worth: const + value on 64 lanes, value within +-2
    # (unstaged, k = 0), in the unit kernel
    const, value = (lanes_from_real(np.linspace(-r, r, 64), Q8_24) for r in (1.0, 2.0))
    benchmark(linear_unit_lanes, const, value, np.zeros(64, dtype=np.int64), DEFAULT_CONFIG)


def test_linear_lanes_2x64_stack(benchmark):
    # the merged linear pass of one module: LIN1 and LIN2 as one (2, 64) stack
    const, value = (lanes_from_real(np.linspace(-r, r, 128).reshape(2, 64), Q8_24) for r in (1.0, 2.0))
    benchmark(linear_unit_lanes, const, value, np.zeros((2, 64), dtype=np.int64), DEFAULT_CONFIG)


def test_circ_sigmas_768_residuals(benchmark):
    # the stage plan of one puma-bench request's angles, 6 links x (alpha,
    # theta) x 64 lanes, stacked as ccm_points stacks them: each chain's
    # links on four lanes
    alpha, theta = (np.repeat(v, 4, axis=0) for v in (VARIANTS.alpha, VARIANTS.theta))
    benchmark(circ_sigmas, _by_link(alpha, theta), DEFAULT_CONFIG)


def test_ccm_poses_plan_16_puma560_variants(benchmark):
    # the plan ccm_poses makes for a puma-bench request, the row above's
    # plan: the (6, 2, 16) angles of its 16 chains, one lane per chain,
    # repeated onto each chain's four lanes.  benchmarks/ab.py --rows runs
    # this file on an older package too; one without _repeated_plan plans
    # the 768 lanes themselves, as its ccm_poses does
    repeated = getattr(cordic, "_repeated_plan", None)
    if repeated is None:
        alpha, theta = (np.repeat(v, 4, axis=0) for v in (VARIANTS.alpha, VARIANTS.theta))
        benchmark(circ_sigmas, _by_link(alpha, theta), DEFAULT_CONFIG)
    else:
        benchmark(repeated, _by_link(VARIANTS.alpha, VARIANTS.theta), DEFAULT_CONFIG, 4)


def _stage_operands():
    """(1, 0) on 64 lanes and the stage plan of 64 angles."""
    x, y = np.full(64, fx_from_real(1.0, Q8_24)), np.zeros(64, dtype=np.int64)
    return x, y, *circ_sigmas(np.linspace(-math.pi, math.pi, 64), DEFAULT_CONFIG)


def test_circ_rotate_sigmas_64_lanes(benchmark):
    # one circular stage with every clip, its plan already made
    benchmark(circ_rotate_sigmas, *_stage_operands(), DEFAULT_CONFIG)


def test_circ_rotate_sigmas_64_lanes_clip_free(benchmark):
    # one circular stage as the cascade runs it: no clip
    benchmark(circ_rotate_sigmas, *_stage_operands(), DEFAULT_CONFIG, False)


def test_sincos_cordic(benchmark):
    benchmark(sincos_cordic, 1.0)


def test_sincos_cordic_192_angles(benchmark):
    # a puma-bench request's worth: 16 variants x 6 links x (theta, alpha)
    angles = np.linspace(-math.pi, math.pi, 192)
    benchmark(sincos_cordic, angles)


@pytest.mark.parametrize("lanes", [1, 64])
def test_circ_rotate_lanes(benchmark, lanes):
    x = np.full(lanes, fx_from_real(1.0, Q8_24))
    y = np.zeros(lanes, dtype=np.int64)
    angles = np.linspace(-math.pi, math.pi, lanes)
    benchmark(circ_rotate_lanes, x, y, angles, DEFAULT_CONFIG)


def test_taylor_sincos(benchmark):
    benchmark(taylor.taylor_sincos, 1.0)


def test_taylor_sincos_192_angles(benchmark):
    # a puma-bench request's worth: 16 variants x 6 links x (theta, alpha)
    angles = np.linspace(-math.pi, math.pi, 192)
    benchmark(taylor.taylor_sincos, angles)


def test_taylor_sincos_384_angles(benchmark):
    # a chain12-bench request's worth: 16 variants x 12 links x (theta, alpha)
    benchmark(taylor.taylor_sincos, CHAIN12_ANGLES)


def test_lut_sincos_scalar(benchmark):
    benchmark(lut.lut_sincos, 1.0, TABLE)


@pytest.mark.parametrize("mode", [lut.NEAREST, lut.LINEAR])
def test_lut_sincos_384_angles(benchmark, mode):
    # a chain12-bench request's angles: one block
    benchmark(lut.lut_sincos, CHAIN12_ANGLES, lut.build_table(1024, mode=mode))


@pytest.mark.parametrize("mode", [lut.NEAREST, lut.LINEAR])
def test_lut_sincos_65536_angles(benchmark, mode):
    # two blocks of lut.BLOCK = 32768: the smallest array lut_sincos splits
    # across CPUs, where starting and joining a thread weigh most (a fixed
    # size, so the row compares across trees with another BLOCK)
    angles = np.random.default_rng(20).uniform(-8 * math.pi, 8 * math.pi, 65536)
    benchmark(lut.lut_sincos, angles, lut.build_table(1024, mode=mode))


@pytest.mark.parametrize("mode", [lut.NEAREST, lut.LINEAR])
def test_lut_sincos_1e5_angles(benchmark, mode):
    angles = np.linspace(-8 * math.pi, 8 * math.pi, 100_000)
    benchmark(lut.lut_sincos, angles, lut.build_table(1024, mode=mode))


@pytest.mark.parametrize("mode", [lut.NEAREST, lut.LINEAR])
def test_lut_sincos_2e20_angles(benchmark, mode):
    # perfbench lut-scan's shape: 2**20 angles over +-4 turns, one table per call
    angles = np.random.default_rng(20).uniform(-8 * math.pi, 8 * math.pi, 1 << 20)
    benchmark(lut.lut_sincos, angles, lut.build_table(1024, mode=mode))


def test_chain_pose_puma560(benchmark):
    benchmark(chain_pose, PUMA)


def test_taylor_pose_puma560(benchmark):
    benchmark(chain_pose, PUMA, partial(taylor.taylor_sincos, cfg=taylor.TaylorConfig()))


def test_lut_pose_puma560(benchmark):
    benchmark(chain_pose, PUMA, partial(lut.lut_sincos, table=TABLE))


@pytest.mark.parametrize("backend", ["matrix", "taylor", "lut"])
def test_chain_poses_16_puma560_variants(benchmark, backend):
    sincos = {"matrix": exact_sincos, "taylor": taylor.taylor_sincos, "lut": partial(lut.lut_sincos, table=TABLE)}
    benchmark(chain_poses, VARIANTS, sincos[backend])


def test_bench_links_chain12_3_providers(benchmark):
    # a chain12-bench request's link assembly: matrix, taylor and linear-LUT
    # trig on the 16 variants, each provider called once and every link
    # assembled in one pass, as fkemu bench makes them
    linear = lut.build_table(1024, mode=lut.LINEAR)
    providers = [exact_sincos, taylor.taylor_sincos, partial(lut.lut_sincos, table=linear)]
    benchmark(provider_links, CHAIN12_VARIANTS, providers)


def test_chain_product_chain12_48x12(benchmark):
    benchmark(chain_product, provider_links(CHAIN12_STACK, [exact_sincos])[0])


def test_ccm_pose_puma560(benchmark):
    # ChainSet.of stays inside the timing, so the row compares with earlier BENCH files
    benchmark(lambda: ccm_poses(ChainSet.of([PUMA])))


def test_ccm_points_one_module_64_lanes(benchmark):
    # one module of the cascade: 64 one-link chains (puma's first link,
    # varied), each pushing a point
    chains = cli.bench_variants(PUMA[:1], 64, 5)
    points = np.column_stack([np.random.default_rng(21).uniform(-0.5, 0.5, (64, 3)), np.ones(64)])
    benchmark(ccm_points, chains, points)


def test_ccm_poses_16_puma560_variants(benchmark):
    benchmark(ccm_poses, VARIANTS)


def test_bench_variants_16_puma560(benchmark):
    benchmark(cli.bench_variants, PUMA, 16, 5)


def test_chain_pose_thumb(benchmark):
    # thumb-vm's oracle: the five-link thumb chain, exact trig
    benchmark(chain_pose, umdh.umdh_chain(*THUMB_ANGLES, THUMB))


def test_thumb_vm_request(benchmark):
    # one perfbench thumb-vm request: the naive pose, the VM and the oracle
    # on one angle set, the oracle's chain built inside it as the request does
    prog = umdh.umdh_program(THUMB)

    def request(ts):
        naive = umdh.umdh_t04_naive(*ts, THUMB)
        vm = umdh.vm_run(prog, *ts, THUMB)
        return naive, vm, chain_pose(umdh.umdh_chain(*ts, THUMB))

    benchmark(request, THUMB_ANGLES)


def test_vm_run(benchmark):
    prog = umdh.umdh_program(THUMB)
    benchmark(umdh.vm_run, prog, *THUMB_ANGLES, THUMB)


def test_vm_run_taylor(benchmark):
    prog = umdh.umdh_program(THUMB)
    hw = umdh.VmConfig(sincos=taylor.taylor_sincos)
    benchmark(umdh.vm_run, prog, *THUMB_ANGLES, THUMB, hw)


def test_umdh_t04_naive(benchmark):
    benchmark(umdh.umdh_t04_naive, *THUMB_ANGLES, THUMB)


def _bench_cli(benchmark, argv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    assert benchmark(run) == 0


def test_bench_puma560_cli(benchmark):
    _bench_cli(benchmark, ["bench", "puma560", "--trials", "16", "--seed", "5"])


def test_bench_chain12_cli(benchmark, tmp_path):
    # 12 links, every third prismatic, with the matrix, taylor and linear lut backends
    path = tmp_path / "chain12.chain"
    path.write_text(CHAIN12_TEXT)
    argv = ["bench", str(path), "--backends", "matrix,taylor,lut", "--table-mode", "linear",
            "--trials", "16", "--seed", "5"]
    _bench_cli(benchmark, argv)
