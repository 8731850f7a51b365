"""The bits ledger: every sha256 pin of the emulated arithmetic, in one table.

Each row of PINS names one output, a function that returns its exact
bytes, and their sha256 digest when captured (the comment over each group
says when).  `pytest tests/test_pins.py` is the one command that shows the
bits unchanged: a moved bit fails its row by name, with both digests.
Checks beyond a digest stay in their modules, and compare against a row's
bytes where they need a pinned output.
"""

import contextlib
import hashlib
import io
import math
import random
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from fkemu import cli, lut
from fkemu.ccm import ccm_poses
from fkemu.cordic import DEFAULT_CONFIG as CORDIC_CONFIG, CordicConfig, circ_sigmas, sincos_cordic
from fkemu.dh import PRISMATIC, ROTARY, ChainSet, DhJoint, chain_pose, chain_poses, puma_chain
from fkemu.fixedpoint import HALF_PI, MAX_ANGLE, Q1_15, QFormat
from fkemu.taylor import TaylorConfig, taylor_sincos
from fkemu.umdh import VmConfig, umdh_chain, vm_run
from test_cli import THREE_LINK
from test_dh import PARAMS, PROVIDERS as DH_PROVIDERS
from test_fixedpoint import near_multiples, octant_angles
from test_taylor import TIES, lane_raws
from test_umdh import P, PROG


class Pin(NamedTuple):
    bytes: Callable[[], bytes]
    digest: str


def _joined(arrays) -> bytes:
    return b"".join(a.tobytes() for a in arrays)


# fold_angle through every trig provider, on three angle sets of both
# signs.  multiples: near_multiples(409), near whole turns, captured before
# the fold's reduction changed.  quarter-turns: near_multiples(409,
# HALF_PI), whose odd stride puts each side of every boundary in another
# quadrant.  octants: octant_angles, captured before taylor_sincos' octant
# became one compare; they reach the tie r == pi/4 in even and odd
# quadrants, and which way it trades shows only in a coarser series than
# the default, whose sin(pi/4) and cos(pi/4) are one raw: taylor-3.
def _cordic_sigmas(angle):
    """circ_sigmas' plan as the pin was taken: the quarter turns q, read
    off the x half of the mirrored swap mask and signs, and the sigma stack
    as int8."""
    swap, signs, sigmas = circ_sigmas(angle, CORDIC_CONFIG)
    lanes = swap.shape[-1] // 2
    odd, negated = swap[..., :lanes], signs[..., :lanes] < 0
    # x takes x, -y, -x, y at q = 0..3: q's low bit is odd, and its high
    # bit is set where the sign of x differs from odd
    q = odd + 2 * (negated != odd)
    return q.astype(np.int64), sigmas.astype(np.int8)


def _lut(mode):
    return partial(lut.lut_sincos, table=lut.build_table(1024, fmt=Q1_15, mode=mode))


FOLD_PROVIDERS = {
    "lut-nearest": _lut(lut.NEAREST),
    "lut-linear": _lut(lut.LINEAR),
    "taylor": taylor_sincos,
    "taylor-3": partial(taylor_sincos, cfg=TaylorConfig(n_terms=3)),
    "cordic-sigmas": _cordic_sigmas,
}
FOLD_ANGLES = {
    "multiples": partial(near_multiples, 409),
    "quarter-turns": partial(near_multiples, 409, HALF_PI),
    "octants": octant_angles,
}


def _fold(angles, provider):
    mag = FOLD_ANGLES[angles]()
    return _joined(FOLD_PROVIDERS[provider](np.concatenate([mag, -mag])))


# sincos_cordic's (cos, sin), captured before the step constants were
# cached per config.  Q4.12 and Q8.24 share int64 lanes, and the 56-bit
# word runs object lanes.
def _cordic_sincos(cfg):
    grid = np.linspace(-4 * math.pi, 4 * math.pi, 2001)
    special = [0.0, -0.0, MAX_ANGLE, -MAX_ANGLE] + [k * math.pi / 4 for k in range(-16, 17)]
    return _joined(sincos_cordic(np.concatenate([grid, special]), cfg))


# The raw (cos, sin) pairs of the Taylor engine, one row per angle,
# captured from the scalar Fx engine before it moved onto lanes.
def _taylor_raws(cfg):
    ends = [0.0, -0.0, MAX_ANGLE, -MAX_ANGLE, 2.0**20 - 0.5, 1e-9, -1e-9]
    angles = TIES + ends + np.linspace(-30.0, 30.0, 1001).tolist() + np.linspace(-MAX_ANGLE, MAX_ANGLE, 257).tolist()
    return lane_raws(angles, cfg).T.tobytes()


# Raw (cos, sin) bits on Q1.15 tables, whose entries do not rest on the
# platform's np.sin: a moved bit anywhere in the fold, lookup or unfold.
def _lut_sweep(mode, n_entries):
    table = lut.build_table(n_entries, fmt=Q1_15, mode=mode)
    turns = np.linspace(-8 * math.pi, 8 * math.pi, 1 << 16)
    half_steps = np.arange(-8 * table.n_entries, 8 * table.n_entries + 1) * (table.step / 2)
    return _joined(lut.lut_sincos(np.concatenate([turns, half_steps, [MAX_ANGLE, -MAX_ANGLE, 0.0, -0.0]]), table))


PUMA = cli.load_chain("puma560").joints
MIXED = (
    DhJoint(ROTARY, 0.3, 0.12, 0.25, -0.7),
    DhJoint(PRISMATIC, 0.0, 0.4, 0.0, 1.2),
    DhJoint(ROTARY, -0.5, 0.05, 0.18, 0.0),
)


# The oracle's stacked poses, captured from math.cos/math.sin one angle at
# a time.  chain_poses takes its trig from np.cos/np.sin, whose float64
# results depend on the platform's numpy build; the bench CSVs assume the
# two agree, and these rows say so where it holds.
def _matrix_poses(joints, trials, seed):
    return chain_poses(cli.bench_variants(joints, trials, seed)).tobytes()


# chain_pose's own bytes, captured from the per-link product (one 4x4
# np.array a link, multiplied left to right) before the links were built as
# one (n, 4, 4) array: thumb-vm's oracle, the five-link umdh_chain on 256
# seeded angle sets, and 32 seeded puma560 chains through four providers.
def _chain_pose_thumb():
    rng = random.Random(19)
    chains = [umdh_chain(*(rng.uniform(-math.pi, math.pi) for _ in range(4)), cli.DEMO_THUMB) for _ in range(256)]
    return _joined(chain_pose(chain) for chain in chains)


def _chain_pose_puma(provider):
    rng = random.Random(20)
    chains = [puma_chain([rng.uniform(-math.pi, math.pi) for _ in range(6)], PARAMS) for _ in range(32)]
    return _joined(chain_pose(chain, DH_PROVIDERS[provider]) for chain in chains)


# Raw pose bits of the module cascade, where the bench CSV carries only
# max/rms errors to seven digits.  LONG_LINKS' offsets of many meters make
# the linear accumulates stage lanes by 2**k, k differing per lane; the
# 56-bit word runs object lanes, and doubles between links that round.
Q16_40 = CordicConfig(40, QFormat(56, 40))
LONG_LINKS = (
    DhJoint(ROTARY, 0.0, 12.0, 3.0, 0.7),
    DhJoint(PRISMATIC, 0.4, 0.0, 0.0, -1.1),
    DhJoint(ROTARY, 0.0, 9.5, -4.0, 2.0),
)


def _chain12():
    """12 links, every third one prismatic."""
    rng = np.random.default_rng(12)
    chain = []
    for i in range(12):
        kind = PRISMATIC if i % 3 == 2 else ROTARY
        theta, alpha = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        chain.append(DhJoint(kind, theta, float(rng.uniform(0.0, 0.3)), float(rng.uniform(-0.3, 0.3)), alpha))
    return tuple(chain)


def _ccm(chains, cfg=CORDIC_CONFIG):
    return ccm_poses(chains, cfg).tobytes()


# vm_run's pose bytes and cycle count over 256 seeded angle sets, where the
# other VM tests compare at 1e-12, and the thumb program's text.
def _vm(hw):
    rng = random.Random(15)
    out = []
    for _ in range(256):
        pose, cycles = vm_run(PROG, *(rng.uniform(-math.pi, math.pi) for _ in range(4)), P, hw)
        out += [pose.tobytes(), cycles.to_bytes(4, "little")]
    return b"".join(out)


# `fkemu bench` stdout at more trials than test_cli's goldens, in both
# table modes: the CSV's 7 digits hardly ever show the order rms_err's
# squares are added in, which test_grade_adds_what_a_loop_over_the_poses_adds
# holds bit for bit.  At n_iter = 1 in Q8.24 the reach limit is the
# format's top, so every lane runs, without a clip.
def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


def _bench(chain, trials, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path, seed = "puma560", 3
        if chain == "three":
            path, seed = Path(tmp) / "chain.txt", 5
            path.write_text(THREE_LINK)
        return _stdout(["bench", str(path), "--backends", "matrix,cordic,taylor,lut", "--table-mode", mode,
                        "--trials", str(trials), "--seed", str(seed)])


PINS = {
    "multiples-lut-nearest": Pin(partial(_fold, "multiples", "lut-nearest"),
                                 "723bf337c21684fa4b472e7a65d59bdd616d995f8e04260f3531ff125b40a38e"),
    "multiples-lut-linear": Pin(partial(_fold, "multiples", "lut-linear"),
                                "5fc77a0fceae603649306bbebddd75fbcc02e41f42fb1e21a5be380033ade3b3"),
    "multiples-taylor": Pin(partial(_fold, "multiples", "taylor"),
                            "7e373a79240f973fabe8f7637fb2fa02bc93363fdbcc173f830d50bb6e43cd1c"),
    "multiples-cordic-sigmas": Pin(partial(_fold, "multiples", "cordic-sigmas"),
                                   "5830bcc8d8616ca8cfb3a76d08b1c4b20bc743458aa90a1c1652ff507efc1a90"),
    "quarter-turns-lut-nearest": Pin(partial(_fold, "quarter-turns", "lut-nearest"),
                                     "077b602f09a4b235bedcfcf229f1856c6b37febac8be695f824b79e87b0c0b93"),
    "quarter-turns-lut-linear": Pin(partial(_fold, "quarter-turns", "lut-linear"),
                                    "b52803ff43b8c70ff1813a9980c2045e6c3145801ef2bd260b9cfad94acaf574"),
    "quarter-turns-taylor": Pin(partial(_fold, "quarter-turns", "taylor"),
                                "12db9baf604965de7b530353cceb883164ba9cba3adad4c221e7db0d447c34e1"),
    "quarter-turns-cordic-sigmas": Pin(partial(_fold, "quarter-turns", "cordic-sigmas"),
                                       "6b1749b52b1a8b6e77ab6da44ae5d29407645329c76c82904b74bc9e34ed2323"),
    "octants-lut-nearest": Pin(partial(_fold, "octants", "lut-nearest"),
                               "634671c84be59f0c0e630cb4e829ff4aca1ee93f53f8dea6160c19fc338541ec"),
    "octants-lut-linear": Pin(partial(_fold, "octants", "lut-linear"),
                              "74673fe0d8192666d1317d8c4586a1b4f96601a70a355702c1ebb85cea5e89ea"),
    "octants-taylor": Pin(partial(_fold, "octants", "taylor"),
                          "3e5951dc1c5cfcf81934951eca99a334064e2233be973846cd7dd1bb0d5848d4"),
    "octants-taylor-3": Pin(partial(_fold, "octants", "taylor-3"),
                            "b98f24f7e81b29da09094bd1d079ef26270ae693da1aa392367c327e220daac1"),
    "octants-cordic-sigmas": Pin(partial(_fold, "octants", "cordic-sigmas"),
                                 "36ceb860a9dfb67d3c2ab3235b9954d84f842feedce7082bc2373e5b4f8265bf"),
    "cordic-sincos-q8.24": Pin(partial(_cordic_sincos, CORDIC_CONFIG),
                               "8f004df06a98aeb3fada28171bb341921c7e710db69ebfddac611b34fe7c5334"),
    "cordic-sincos-q16.40": Pin(partial(_cordic_sincos, Q16_40),
                                "81d3d793fa8bef00ed3e12e1eef778a53fad5463e2af64c86fa6734877a2a7c7"),
    "cordic-sincos-q4.12": Pin(partial(_cordic_sincos, CordicConfig(14, QFormat(16, 12))),
                               "cfd4007cb2fd203e91f81546252e84d711d7cdcc0abadf8a9f3a53da4e50977c"),
    "taylor-raws-default": Pin(partial(_taylor_raws, TaylorConfig()),
                               "bb038a0fc9803c84484ceedb847c6a52860a12e7f44b5d52a0b8c5b424657638"),
    "taylor-raws-terms-3": Pin(partial(_taylor_raws, TaylorConfig(n_terms=3)),
                               "44d26752aa70a314498a1a0ab735e46bb99869c4283dda94d9430ef1396d04d5"),
    "taylor-raws-terms-1": Pin(partial(_taylor_raws, TaylorConfig(n_terms=1)),
                               "3c96fdd558fddee371119c37568530991476a47f68006682347fb3f2e79c0fb4"),
    "taylor-raws-q2.22-acc-50": Pin(partial(_taylor_raws, TaylorConfig(operand_fmt=QFormat(24, 22), acc_bits=50)),
                                    "be171559f75dc2875ff920754d5d3e85b448d712f4a2df7e06379a8856d5bf4f"),
    "taylor-raws-acc-64": Pin(partial(_taylor_raws, TaylorConfig(acc_bits=64)),
                              "bb038a0fc9803c84484ceedb847c6a52860a12e7f44b5d52a0b8c5b424657638"),
    "taylor-raws-q1.31-acc-64": Pin(partial(_taylor_raws, TaylorConfig(operand_fmt=QFormat(32, 31), acc_bits=64)),
                                    "99f91fe489755a0727ad34fba6e2d02d02278165f99f5c186bdde1433fb67ed4"),
    "lut-sweep-nearest-4": Pin(partial(_lut_sweep, lut.NEAREST, 4),
                               "eb99c9d5ab4b3cc9e72b5f4c81053735804c0ef2cc9fd2126a3e75d258ff7873"),
    "lut-sweep-nearest-1024": Pin(partial(_lut_sweep, lut.NEAREST, 1024),
                                  "6ab3933da52f36b80bb659f344680aff33951298613dc25e108ee870f5552a6c"),
    "lut-sweep-linear-4": Pin(partial(_lut_sweep, lut.LINEAR, 4),
                              "a48e314c367220954ff31aa0dd6d783618e2c98f4fb6f3dcc176a3ffa82a11ff"),
    "lut-sweep-linear-1024": Pin(partial(_lut_sweep, lut.LINEAR, 1024),
                                 "8cee1314f7ed0c2440daee1955f8095f0b7200f3511a6183284b8d11c3f48813"),
    "chain-poses-puma560": Pin(partial(_matrix_poses, PUMA, 16, 5),
                               "947fff62ef98bccb2985b241affadda74ee43f94bd3d107a9d5168d4a6bfb580"),
    "chain-poses-mixed": Pin(partial(_matrix_poses, MIXED, 8, 11),
                             "7e27dd65fba438982701a0cf5d1a9e9260102428a32c2567218f8ec4bb2ea0df"),
    "chain-pose-thumb": Pin(_chain_pose_thumb, "6975c44d2c22390c9426297389c10571aac70c8360ea75938d7c81e95f61dca7"),
    "chain-pose-puma-matrix": Pin(partial(_chain_pose_puma, "matrix"),
                                  "92005fbfa4b6ef11df59671490cb8fd0e00d3c3ab5984b315b0a9895e41eb005"),
    "chain-pose-puma-taylor": Pin(partial(_chain_pose_puma, "taylor"),
                                  "ea187a60b8eadb5fcba2e364b84f089fa7ab0c190f10132cd973bf470b3d67cf"),
    "chain-pose-puma-lut-nearest": Pin(partial(_chain_pose_puma, "lut-nearest"),
                                       "ee834a5001d02588fb38762b8dabfd9e8ecbc3d9a92dff947626dc18e860828f"),
    "chain-pose-puma-cordic": Pin(partial(_chain_pose_puma, "cordic"),
                                  "2ac34a2e9c3a1a4db93a725d2bf819da5f586b23ca5e9963982a3acf8cd4641a"),
    "ccm-poses-puma560": Pin(lambda: _ccm(cli.bench_variants(PUMA, 16, 5)),
                             "e4ec7ac5721f954411f063006eed989f9ba5fff086c72529e43306f3233d4d92"),
    "ccm-poses-chain12": Pin(lambda: _ccm(cli.bench_variants(_chain12(), 4, 7)),
                             "e16ce30ea6ce00c639f89c5e0248d50f2932232ad5fa079f1ad3a7904b93a1a9"),
    "ccm-poses-long-links": Pin(lambda: _ccm(cli.bench_variants(LONG_LINKS, 4, 3)),
                                "dbe5e1e7ab0f8f8b8910295c4a744285a2e2e88231a165a95ac818093aa0c850"),
    "ccm-poses-q16.40-puma560": Pin(lambda: _ccm(ChainSet.of([PUMA]), Q16_40),
                                    "36948e2f78d5bd6f92cef7df1ed26581bb7a6a80130f6f501ca2455c2454f35e"),
    "ccm-poses-q16.40-variants": Pin(lambda: _ccm(cli.bench_variants(PUMA, 2, 9), Q16_40),
                                     "efab1c2a2b7b428161db5f5b8167186f8b9b521b2d151322a0b3d3668098996c"),
    "vm-exact": Pin(partial(_vm, VmConfig()), "02daa23042bc17304035a52ed8cdc254fa9f944d9016a3cbf6efcd39dfc66bd1"),
    "vm-sincos_cycles=4": Pin(partial(_vm, VmConfig(sincos_cycles=4)),
                              "0910a4a08463afe62819336c97d7adc0f45b0343f34601e58f4fb6acbcb7363c"),
    "vm-taylor": Pin(partial(_vm, VmConfig(sincos=taylor_sincos)),
                     "7dd1449d8e88da011b80635954dc886b2f15cf8ad6007bd3cea83cbade4b30dd"),
    "vm-program-text": Pin(lambda: PROG.to_text().encode(),
                           "f7f31e55bbeb45882a5775d964e137ebf237c904dd689008339c1afe207394f0"),
    "bench-puma560-16-nearest": Pin(partial(_bench, "puma560", 16, "nearest"),
                                    "066aa50cb9eaf9a4a3d60a862fa955eee26461421fb556492751bcbdede318a1"),
    "bench-puma560-16-linear": Pin(partial(_bench, "puma560", 16, "linear"),
                                   "17d8ea759f2e56a6ebe5cf8c805a712570d2153d35b9a371bb85934ac6a6591d"),
    "bench-puma560-33-nearest": Pin(partial(_bench, "puma560", 33, "nearest"),
                                    "b435efb77ce4ce8a61dcea7fcadfe12972e0cefb901b10a9e6379374baeb90f1"),
    "bench-puma560-33-linear": Pin(partial(_bench, "puma560", 33, "linear"),
                                   "ffa0c2ab67ac036afeebf78f6ce79e5532227210cc34a4f09637caa004d2e492"),
    "bench-three-16-nearest": Pin(partial(_bench, "three", 16, "nearest"),
                                  "6c4ac046525719ab5890e20cb2981b947c4f5ef8235a0babffb0398d36035543"),
    "bench-three-16-linear": Pin(partial(_bench, "three", 16, "linear"),
                                 "0f0f6c4d2c6a57f3590cafa9295c71e1607912ba9ad32f04992423e802583aca"),
    "bench-three-33-nearest": Pin(partial(_bench, "three", 33, "nearest"),
                                  "b10f04d00cb64ffb11cd13256f7e177a282a74dde3d7606ab67b9eae1d254665"),
    "bench-three-33-linear": Pin(partial(_bench, "three", 33, "linear"),
                                 "eebf9f7b37cd4d2b929c5b5f487cec063057fbf2e8e11144ee53ebd2c0c200d2"),
    "bench-puma560-iters-1": Pin(partial(_stdout, ["bench", "puma560", "--iters", "1", "--seed", "7"]),
                                 "926172ed286bbde79138a9f5a3f32a682a19c148b30a571216877f24913948e9"),
}


@pytest.mark.parametrize("name", PINS)
def test_pin(name):
    pin = PINS[name]
    assert hashlib.sha256(pin.bytes()).hexdigest() == pin.digest
