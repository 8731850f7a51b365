"""The four seeded workloads the benchmark drives through fkemu's entry points.

Each workload builds its inputs from the run seed alone, then serves one
request at a time (closed loop, one client).  Every workload class has the
same shape: ``request(k)`` is the only code the runner times; ``check(out,
k)`` validates one output outside the timed region and returns the
simulated and accuracy statistics it carries; ``digest_bytes(out)`` is what
the output digest hashes; ``poses_per_request`` counts graded backend poses,
``items_per_request`` the units of ``items_per_s`` (reported under the
name ``items_name`` too) and ``calibration`` names the reference kernel
of the workload's data-size class (see calibrate.py): ``core`` when a
request touches a few poses, ``stream`` when it must move tens of MB.

Inputs cycle over a fixed pool, so the digest of one pass over the pool is
the same for every run with the same seed, however many requests fit.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from fkemu import ccm, cli, dh, lut, umdh
from fkemu.cordic import CordicConfig
from fkemu.fixedpoint import Q8_24

TRIALS = 16
TABLE_SIZE = 1024
PUMA_BACKENDS = ("cordic", "taylor", "lut")
CHAIN12_BACKENDS = ("matrix", "taylor", "lut")
CHAIN12_LINKS = 12
THUMB_INSTRUCTIONS = 30
THUMB_ARITH_OPS = 24
THUMB_NAIVE_OPS = 57
THUMB_TOLERANCE = 1e-12
THUMB_CLOCK_MHZ = 10.3
LUT_BATCH = 1 << 20
LUT_TURNS = 4  # angles span +-4 full turns, both signs


class CheckError(Exception):
    """An output failed its correctness check."""


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


def trig_gate(backend: str, table: lut.SinTable | None = None) -> float:
    """Per-value sin/cos error gate of the acceptance suite for a backend.

    CORDIC sin/cos at 1e-6, the Q1.15 Taylor engine at 2**-13, a nearest
    table at one step and a linear table at step**2/8; the matrix backend is
    the oracle itself.
    """
    if backend == "matrix":
        return 0.0
    if backend == "cordic":
        return 1e-6
    if backend == "taylor":
        return 2.0**-13
    if backend == "lut":
        return table.step if table.mode == lut.NEAREST else table.step**2 / 8
    raise ValueError(f"no gate for backend {backend!r}")


def pose_bound(joints, gate: float) -> float:
    """First-order bound on a pose entry's error when every trig value of
    every link is off by at most ``gate``.

    Each rotation entry of a link is off by at most 2*gate, so a link's
    rotation block is off by at most 6*gate in Frobenius norm; rotations
    carry that through the chain unchanged, and each block error is also
    multiplied by the reach L of the links below it.  Summed over n links:
    6*n*gate*(1+L) + gate*L <= 7*n*(1+L)*gate.  Prismatic d is taken at 1,
    the top of the range ``fkemu bench`` draws it from.
    """
    reach = sum(
        abs(j.a_eff) + (1.0 if j.kind == dh.PRISMATIC else abs(j.d)) for j in joints
    )
    return 7 * len(joints) * (1 + reach) * gate


class _BenchWorkload:
    """One request is one in-process ``fkemu bench`` invocation."""

    pool_size = 0
    backends: tuple[str, ...] = ()
    table_mode = lut.NEAREST
    items_name = "poses_per_s"
    calibration = "core"

    def __init__(self, seed: int, chain_arg: str) -> None:
        self.chain_arg = chain_arg
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=self.pool_size)]
        self.joints = cli.load_chain(chain_arg).joints
        self.table = lut.build_table(TABLE_SIZE, mode=self.table_mode)

    @property
    def poses_per_request(self) -> int:
        return TRIALS * len(self.backends)

    items_per_request = poses_per_request

    def argv(self, k: int) -> list[str]:
        return [
            "bench", self.chain_arg,
            "--backends", ",".join(self.backends),
            "--table-mode", self.table_mode,
            "--trials", str(TRIALS),
            "--seed", str(self.seeds[k % self.pool_size]),
        ]

    def request(self, k: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv(k))
        return rc, buf.getvalue()

    def digest_bytes(self, out) -> bytes:
        return out[1].encode()

    def check(self, out, k: int) -> tuple[dict, dict]:
        rc, text = out
        _require(rc == 0, f"fkemu bench exited {rc}")
        lines = text.splitlines()
        _require(bool(lines) and lines[0] == cli.CSV_HEADER, "bad CSV header")
        rows = [line.split(",") for line in lines[1:]]
        _require([r[0] for r in rows] == list(self.backends), "backend rows differ from request")
        n = len(self.joints)
        cordic_cfg = CordicConfig(24, Q8_24)  # the CLI defaults
        sim, acc = {}, {}
        for name, max_s, rms_s, ops_s, lat_s, _params in rows:
            max_err, rms_err = float(max_s), float(rms_s)
            ops, latency = int(ops_s), float(lat_s)
            bound = pose_bound(self.joints, trig_gate(name, self.table))
            _require(math.isfinite(max_err) and 0.0 <= rms_err <= max_err <= bound,
                     f"{name}: max_err {max_err} rms_err {rms_err} outside [0, {bound:.3e}]")
            if name == "cordic":
                _require(ops == ccm.pose_op_count(n, cordic_cfg), f"cordic ops_per_pose {ops}")
                _require(latency == ccm.latency_us(ccm.PipelineModel(n)), f"cordic latency {latency}")
            else:
                _require(latency == 0.0, f"{name}: model_latency_us {latency}, no model exists")
            if name == "lut":
                _require(ops == lut.pose_op_count(n, self.table), f"lut ops_per_pose {ops}")
            sim[f"ops_per_pose.{name}"] = ops
            sim[f"model_latency_us.{name}"] = latency
            acc[f"max_err.{name}"] = max_err
            acc[f"rms_err.{name}"] = rms_err
        return sim, acc


class PumaBench(_BenchWorkload):
    """``fkemu bench puma560`` on the paper's six-revolute arm; CORDIC-bound."""

    pool_size = 8
    backends = PUMA_BACKENDS

    def __init__(self, seed: int, outdir: str) -> None:
        super().__init__(seed, "puma560")


def chain12_text(rng: np.random.Generator) -> str:
    """A 12-link chain with every third joint prismatic."""
    lines = ["name chain12"]
    for i in range(CHAIN12_LINKS):
        kind = "P" if i % 3 == 2 else "R"
        theta, alpha = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        d = float(rng.uniform(0.0, 0.3))
        a = float(rng.uniform(-0.3, 0.3))
        lines.append(f"joint {kind} {theta!r} {d!r} {a!r} {alpha!r}")
    return "\n".join(lines) + "\n"


class Chain12Bench(_BenchWorkload):
    """``fkemu bench`` on a seeded 12-link chain file: Taylor, linear LUT
    and the 12-deep matrix product, no CORDIC."""

    pool_size = 32
    backends = CHAIN12_BACKENDS
    table_mode = lut.LINEAR

    def __init__(self, seed: int, outdir: str) -> None:
        rng = np.random.default_rng([seed, CHAIN12_LINKS])
        path = os.path.join(outdir, f"chain12-seed{seed}.chain")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(chain12_text(rng))
        super().__init__(seed, path)


class ThumbVm:
    """One 4-angle set through the naive thumb pose, the VM program and the
    DH oracle, with a three-way agreement check."""

    pool_size = 4096
    poses_per_request = 2  # VM and naive are graded; the oracle is the reference
    items_per_request = THUMB_INSTRUCTIONS
    items_name = "vm_instr_per_s"
    calibration = "core"

    def __init__(self, seed: int, outdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.angles = rng.uniform(-math.pi, math.pi, size=(self.pool_size, 4)).tolist()
        self.params = cli.DEMO_THUMB
        self.program = umdh.umdh_program(self.params)

    def request(self, k: int):
        ts = self.angles[k % self.pool_size]
        naive, naive_ops = umdh.umdh_t04_naive(*ts, self.params)
        vm, cycles = umdh.vm_run(self.program, *ts, self.params)
        oracle = dh.chain_pose(umdh.umdh_chain(*ts, self.params))
        return naive, naive_ops, vm, cycles, oracle

    def digest_bytes(self, out) -> bytes:
        naive, naive_ops, vm, cycles, oracle = out
        return naive.tobytes() + vm.tobytes() + oracle.tobytes() + f"{naive_ops},{cycles}".encode()

    def check(self, out, k: int) -> tuple[dict, dict]:
        naive, naive_ops, vm, cycles, oracle = out
        vm_err = float(np.abs(vm - oracle).max())
        naive_err = float(np.abs(naive - oracle).max())
        agree = float(np.abs(vm - naive).max())
        _require(max(vm_err, naive_err, agree) <= THUMB_TOLERANCE,
                 f"three-way disagreement {max(vm_err, naive_err, agree):.3e}")
        instrs, arith = len(self.program.instrs), self.program.arith_ops
        _require(instrs == THUMB_INSTRUCTIONS, f"program has {instrs} instructions")
        _require(arith == THUMB_ARITH_OPS, f"program has {arith} arithmetic ops")
        _require(naive_ops == THUMB_NAIVE_OPS, f"naive path counted {naive_ops} ops")
        sim = {
            "vm_cycles": cycles,
            "vm_instructions": instrs,
            "vm_arith_ops": arith,
            "naive_ops": naive_ops,
            "vm_time_us": umdh.clock_time(cycles, THUMB_CLOCK_MHZ),
        }
        return sim, {"max_err.vm": vm_err, "max_err.naive": naive_err}


class LutScan:
    """One batch of 2**20 angles through ``lut_sincos`` on a nearest and a
    linear table (the array path)."""

    pool_size = 4
    poses_per_request = 0
    items_per_request = 2 * LUT_BATCH  # each angle is folded and looked up once per table
    items_name = "angles_per_s"
    calibration = "stream"

    def __init__(self, seed: int, outdir: str) -> None:
        rng = np.random.default_rng(seed)
        span = LUT_TURNS * 2 * math.pi
        self.batches = [rng.uniform(-span, span, LUT_BATCH) for _ in range(self.pool_size)]
        self.tables = [lut.build_table(TABLE_SIZE, mode=m) for m in (lut.NEAREST, lut.LINEAR)]

    def request(self, k: int):
        angles = self.batches[k % self.pool_size]
        return [lut.lut_sincos(angles, t) for t in self.tables]

    def digest_bytes(self, out) -> bytes:
        return b"".join(c.tobytes() + s.tobytes() for c, s in out)

    def check(self, out, k: int) -> tuple[dict, dict]:
        angles = self.batches[k % self.pool_size]
        ref_cos, ref_sin = np.cos(angles), np.sin(angles)
        sim, acc = {}, {}
        for table, (cos, sin) in zip(self.tables, out):
            err = max(float(np.abs(cos - ref_cos).max()), float(np.abs(sin - ref_sin).max()))
            bound = trig_gate("lut", table)
            _require(err <= bound, f"{table.mode} table error {err:.3e} > {bound:.3e}")
            sim[f"ops_per_sincos.{table.mode}"] = lut.sincos_op_count(table)
            acc[f"max_err.{table.mode}"] = err
        return sim, acc


WORKLOADS = {
    "puma-bench": PumaBench,
    "chain12-bench": Chain12Bench,
    "thumb-vm": ThumbVm,
    "lut-scan": LutScan,
}
