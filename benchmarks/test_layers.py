"""Host-time micro-benchmarks of every layer of the emulator.

    PYTHONPATH=src python -m pytest benchmarks --benchmark-json=BENCH_<n>.json

Layers, bottom up: fixed-point primitive (the scalar fx_add reference,
and rescale on 64 int64 lanes, the narrowing the kernels use), sin/cos
generator per backend (one lane, and batched), link-matrix assembly, chain
product or module cascade (one chain, and the stacked product of a bench's
16 variants), the VM, and one in-process ``fkemu bench`` on puma560 and on
a 12-link chain.
These time the emulator on the host; the modeled hardware latency is a
formula (ccm.latency_us, umdh.clock_time) and is not measured here.  The
suite sits outside the tier-1 testpaths; ``--benchmark-disable`` runs each
body once as a smoke test.
"""

import contextlib
import io
import math
from functools import partial

import numpy as np
import pytest

from fkemu import cli, lut, taylor, umdh
from fkemu.ccm import ccm_poses
from fkemu.cordic import DEFAULT_CONFIG, circ_rotate_lanes, sincos_cordic
from fkemu.dh import DhJoint, ROTARY, chain_pose, chain_poses, exact_sincos, link_transform
from fkemu.fixedpoint import Q8_24, fx_add, fx_from_real, rescale

PUMA = cli.load_chain("puma560").joints
VARIANTS = cli.bench_variants(PUMA, 16, 5)
TABLE = lut.build_table(1024)
THUMB = cli.DEMO_THUMB


def test_fx_add(benchmark):
    a, b = fx_from_real(0.25, Q8_24), fx_from_real(-0.75, Q8_24)
    benchmark(fx_add, a, b)


def test_rescale_64_lanes(benchmark):
    # products of two Q8.24 raws narrowed back into Q8.24, the outer ones saturating
    prod = np.arange(-32, 32, dtype=np.int64) * (3 << 50)
    benchmark(rescale, prod, 2 * Q8_24.frac_bits, Q8_24)


def test_sincos_cordic(benchmark):
    benchmark(sincos_cordic, 1.0)


def test_sincos_cordic_192_angles(benchmark):
    # a puma-bench request's worth: 16 variants x 6 links x (theta, alpha)
    angles = np.linspace(-math.pi, math.pi, 192)
    benchmark(sincos_cordic, angles)


@pytest.mark.parametrize("lanes", [1, 64])
def test_circ_rotate_lanes(benchmark, lanes):
    x = np.full(lanes, fx_from_real(1.0, Q8_24).raw)
    y = np.zeros(lanes, dtype=np.int64)
    angles = np.linspace(-math.pi, math.pi, lanes)
    benchmark(circ_rotate_lanes, x, y, angles, DEFAULT_CONFIG)


def test_taylor_sincos(benchmark):
    benchmark(taylor.taylor_sincos, 1.0)


def test_taylor_sincos_192_angles(benchmark):
    # a puma-bench request's worth: 16 variants x 6 links x (theta, alpha)
    angles = np.linspace(-math.pi, math.pi, 192)
    benchmark(taylor.taylor_sincos, angles)


def test_lut_sincos_scalar(benchmark):
    benchmark(lut.lut_sincos, 1.0, TABLE)


def test_lut_sincos_1e5_angles(benchmark):
    angles = np.linspace(-8 * math.pi, 8 * math.pi, 100_000)
    benchmark(lut.lut_sincos, angles, TABLE)


def test_link_transform(benchmark):
    benchmark(link_transform, DhJoint(ROTARY, 0.3, 0.1, 0.2, -0.9))


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


def test_ccm_pose_puma560(benchmark):
    benchmark(ccm_poses, [PUMA])


def test_ccm_poses_16_puma560_variants(benchmark):
    benchmark(ccm_poses, VARIANTS)


def test_vm_run(benchmark):
    prog = umdh.umdh_program(THUMB)
    benchmark(umdh.vm_run, prog, 0.2, 0.4, -0.6, 0.8, THUMB)


def test_vm_run_taylor(benchmark):
    prog = umdh.umdh_program(THUMB)
    hw = umdh.VmConfig(sincos=taylor.taylor_sincos)
    benchmark(umdh.vm_run, prog, 0.2, 0.4, -0.6, 0.8, THUMB, hw)


def test_umdh_t04_naive(benchmark):
    benchmark(umdh.umdh_t04_naive, 0.2, 0.4, -0.6, 0.8, THUMB)


def _bench_cli(benchmark, argv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    assert benchmark(run) == 0


def test_bench_puma560_cli(benchmark):
    _bench_cli(benchmark, ["bench", "puma560", "--trials", "16", "--seed", "5"])


def test_bench_chain12_cli(benchmark, tmp_path):
    # 12 links, every third prismatic, with the matrix, taylor and linear lut backends
    rng = np.random.default_rng(12)
    lines = ["name chain12"]
    for i in range(12):
        theta, alpha = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        d, a = float(rng.uniform(0.0, 0.3)), float(rng.uniform(-0.3, 0.3))
        lines.append(f"joint {'P' if i % 3 == 2 else 'R'} {theta!r} {d!r} {a!r} {alpha!r}")
    path = tmp_path / "chain12.chain"
    path.write_text("\n".join(lines) + "\n")
    argv = ["bench", str(path), "--backends", "matrix,taylor,lut", "--table-mode", "linear",
            "--trials", "16", "--seed", "5"]
    _bench_cli(benchmark, argv)
