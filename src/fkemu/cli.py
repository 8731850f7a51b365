"""Command-line front end: chain ingestion, pose solving with backend
selection, seeded accuracy/op-count benchmarking, pipeline latency tables,
and the FK-processor VM.

Chain files are line oriented so they diff cleanly:

    # comment
    name my-arm
    joint R <theta> <d> <a> <alpha>
    joint P <theta> <d> <a> <alpha>
    point <x> <y> <z>

Angles are radians, lengths meters.  The special chain name "puma560"
loads a built-in six-revolute demo profile, dh.puma_chain at zero angles.

solve and bench compute every pose, error and finiteness check before
they print, so a failure leaves stdout empty.  Exit codes: 0 success, 2
parse failure or bad option, 3 numeric domain error (an angle or reach
outside a backend's domain, or a pose or error past float64), 4 register
capacity error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from . import ccm, lut, taylor, umdh
from .cordic import CordicConfig
from .dh import (
    ChainSet, DhJoint, PRISMATIC, ROTARY, PumaParams,
    chain_product, exact_sincos, finite, pose_op_count, provider_links, puma_chain,
)
from .fixedpoint import DomainError, Q8_24, QFormat
from .umdh import CapacityError, UmdhParams

BACKENDS = ("matrix", "cordic", "taylor", "lut")

# Demo profile only; the library itself takes link constants as inputs.
PUMA560 = PumaParams(d2=0.14909, d4=0.43307, d6=0.05625, a2=0.4318, a3=-0.02032)

DEMO_THUMB = UmdhParams(a0=0.05, a1=0.04, a2=0.03, a3=0.025, d1=0.02)

CSV_HEADER = "backend,max_err,rms_err,ops_per_pose,model_latency_us,params"

# Largest trials times links that bench accepts, and solve at one trial:
# at the bound, with every backend, a run peaked at 280-304 MB RSS on
# x86-64 (numpy 2.4), on puma560 at 10922 trials and on a 65536-link
# chain at one trial alike
MAX_LINK_TRIALS = 1 << 16

# A word with a leading "-" that float() takes: the vm parser reads it as a
# number, where argparse's own test takes only "-1" and "-.5" forms and
# would read "-1e-05" or "-inf" as an option
_DIGITS = r"\d(?:_?\d)*"
NEGATIVE_FLOAT = re.compile(rf"-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[-+]?{_DIGITS})?|inf|infinity|nan)\s*$", re.I)


class ChainParseError(ValueError):
    def __init__(self, filename: str, line: int, col: int, msg: str) -> None:
        super().__init__(f"{filename}:{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ChainFile:
    name: str
    joints: tuple[DhJoint, ...]
    point: tuple[float, float, float] | None  # x, y, z, transformed as a point (w = 1)


# fields after each directive word: a joint is its kind and four numbers
CHAIN_FIELDS = {"name": 1, "joint": 5, "point": 3}


def parse_chain(text: str, filename: str = "<chain>") -> ChainFile:
    name = "chain"
    joints: list[DhJoint] = []
    point: tuple[float, float, float] | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue

        def error(k: int, msg: str) -> ChainParseError:
            """The error at token k, or one past the line's end if there is no token k."""
            starts = [m.start() for m in re.finditer(r"\S+", line)] + [len(line.rstrip())]
            return ChainParseError(filename, lineno, starts[min(k, len(tokens))] + 1, msg)

        def floats(start: int, count: int) -> list[float]:
            vals = []
            for k in range(start, start + count):
                if k >= len(tokens):
                    raise error(k, f"expected {count} numbers")
                try:
                    value = float(tokens[k])
                except ValueError:
                    raise error(k, f"bad number {tokens[k]!r}") from None
                if not math.isfinite(value):
                    raise error(k, "number must be finite")
                vals.append(value)
            return vals

        key = tokens[0]
        fields = CHAIN_FIELDS.get(key)
        if fields is None:
            raise error(0, f"unknown directive {key!r}")
        if key == "name":
            if len(tokens) < 2:
                raise error(1, "missing name")
            name = tokens[1]
        elif key == "joint":
            if len(joints) == MAX_LINK_TRIALS:  # no run takes more: parse no further
                raise error(0, f"more than {MAX_LINK_TRIALS} joints, past the trials times links bound")
            if len(tokens) < 2 or tokens[1] not in ("R", "P"):
                raise error(1, "joint kind must be R or P")
            joints.append(DhJoint(ROTARY if tokens[1] == "R" else PRISMATIC, *floats(2, 4)))
        else:
            point = tuple(floats(1, 3))
        if len(tokens) > fields + 1:
            raise error(fields + 1, f"{key} takes {fields} field{'s' if fields != 1 else ''}")
    if not joints:
        raise ChainParseError(filename, 1, 1, "chain has no joints")
    return ChainFile(name, tuple(joints), point)


def load_chain(path: str) -> ChainFile:
    if path == "puma560":
        return ChainFile("puma560", tuple(puma_chain([0.0] * 6, PUMA560)), (0.0, 0.0, 0.0))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ChainParseError(path, 1, 1, str(e)) from None
    return parse_chain(text, path)


def parse_qformat(text: str) -> QFormat:
    try:
        m, n = text.lstrip("Qq").split(".")
        return QFormat(int(m) + int(n), int(n))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(f"bad Q format {text!r}, expected like Q8.24") from None


@dataclass(frozen=True)
class _Backend:
    ops: int  # modeled scalar ops per pose
    latency: float  # modeled pipeline latency, 0 where no model exists
    params: str
    sincos: Callable | None = None  # the trig provider of a chain-product backend
    cascade: Callable | None = None  # ChainSet -> (len(chains), 4, 4) poses, for cordic


def _make_backends(args, n_links: int) -> dict[str, _Backend]:
    ccfg = CordicConfig(args.iters, args.format)
    tcfg = taylor.DEFAULT_CONFIG
    table = lut.build_table(args.table_size, mode=args.table_mode)
    # (sincos, ops per (cos, sin) pair, params) for the chain-product backends
    trig = {
        "matrix": (exact_sincos, 1, ""),
        "taylor": (
            taylor.taylor_sincos,
            taylor.sincos_op_count(tcfg),
            f"terms={tcfg.n_terms};fmt={tcfg.operand_fmt}",
        ),
        "lut": (
            partial(lut.lut_sincos, table=table),
            lut.sincos_op_count(table),
            f"entries={args.table_size};mode={args.table_mode}",
        ),
    }
    backends = {
        name: _Backend(pose_op_count(n_links, ops), 0.0, params, sincos=sincos)
        for name, (sincos, ops, params) in trig.items()
    }
    backends["cordic"] = _Backend(
        ccm.pose_op_count(n_links, ccfg),
        ccm.latency_us(ccm.PipelineModel(n_links)),
        f"iters={args.iters};fmt={args.format}",
        cascade=partial(ccm.ccm_poses, cfg=ccfg),
    )
    return backends


def _print_pose(pose: np.ndarray) -> None:
    for row in pose:
        print("  " + "  ".join(f"{v: .9f}" for v in row))


def _poses(backends: dict[str, _Backend], names: list[str], chains: ChainSet) -> tuple[np.ndarray, np.ndarray]:
    """(oracles, poses): the oracle's (len(chains), 4, 4) poses of the set,
    and every named backend's stacked in names' order, (len(names),
    len(chains), 4, 4).  One chain_product over provider_links' stack
    gives the oracle and every named chain-product backend a slot; matrix
    reads the oracle's, and cordic runs the cascade once the oracle is
    checked finite."""
    stacked = list(dict.fromkeys(["matrix", *(n for n in names if backends[n].sincos)]))
    slots = dict(zip(stacked, chain_product(provider_links(chains, [backends[n].sincos for n in stacked]))))
    oracles = finite(slots["matrix"], "oracle pose")
    for name in names:
        if name not in slots:
            slots[name] = backends[name].cascade(chains)
    return oracles, np.array([slots[name] for name in names])


def _check_size(trials: int, links: int) -> None:
    """Refuse a run of trials chains of links links past MAX_LINK_TRIALS
    (ValueError, exit 2), before anything is allocated for it."""
    if trials * links > MAX_LINK_TRIALS:
        raise ValueError(f"trials times links must be at most {MAX_LINK_TRIALS}, got {trials} x {links}")


def cmd_solve(args) -> int:
    chain_file = load_chain(args.chain)
    _check_size(1, len(chain_file.joints))
    backends = _make_backends(args, len(chain_file.joints))
    with np.errstate(over="ignore", invalid="ignore"):  # finite reports it
        oracles, poses = _poses(backends, [args.backend], ChainSet.of([chain_file.joints]))
        oracle, pose = oracles[0], poses[0, 0]
        dev = finite(float(np.abs(pose - oracle).max()), "deviation from the oracle")
        if chain_file.point is not None:
            moved = finite(pose @ (*chain_file.point, 1.0), "transformed point")
    print(f"chain: {chain_file.name} ({len(chain_file.joints)} joints)")
    print(f"backend: {args.backend}")
    _print_pose(pose)
    if args.backend != "matrix":
        print(f"max deviation vs matrix oracle: {dev:.6e}")
    if chain_file.point is not None:
        print("point: " + "  ".join(f"{v: .9f}" for v in moved[:3]))
    return 0


def bench_variants(joints, trials: int, seed: int) -> ChainSet:
    """The seeded chains bench grades: rotary theta in [-pi, pi), prismatic d in
    [0, 1), each lo + (hi - lo) * u from one draw, the bits of rng.uniform(lo, hi)."""
    rotary, theta, d, a_eff, alpha = np.array([(j.kind == ROTARY, j.theta, j.d, j.a_eff, j.alpha) for j in joints]).T
    u = np.random.default_rng(seed).random((trials, len(joints)))
    theta = np.where(rotary, -math.pi + (math.pi - -math.pi) * u, theta)  # rotary is 1.0 or 0.0
    d = np.where(rotary, d, u)
    return ChainSet(theta, d, a_eff.reshape(1, -1).repeat(trials, axis=0), alpha.reshape(1, -1).repeat(trials, axis=0))


def grade(poses: np.ndarray, oracles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max_err, rms_err) of each backend's (n, 4, 4) poses, stacked as
    (backends, n, 4, 4), against the (n, 4, 4) oracles, over every entry:
    two (backends,) arrays.  A backend's squared errors are summed pose by
    pose and the poses in order, as a loop over its poses adds them, so its
    rms_err keeps that loop's bits."""
    diff = np.abs(poses - oracles)
    sq_sum = np.cumsum((diff**2).sum(axis=(2, 3)), axis=1)[:, -1]
    return diff.max(axis=(1, 2, 3)), np.sqrt(sq_sum / oracles.size)


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    chain_file = load_chain(args.chain)
    _check_size(args.trials, len(chain_file.joints))
    names = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not names:
        raise ValueError("--backends names no backend")
    for b in names:
        if b not in BACKENDS:
            raise ValueError(f"--backends: unknown backend {b!r}, expected some of {','.join(BACKENDS)}")
    backends = _make_backends(args, len(chain_file.joints))
    variants = bench_variants(chain_file.joints, args.trials, args.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # finite reports it
        oracles, poses = _poses(backends, names, variants)
        max_errs, rms_errs = grade(poses, oracles)
    rows = [CSV_HEADER]
    for name, max_err, rms_err in zip(names, max_errs.tolist(), rms_errs.tolist()):
        finite((max_err, rms_err), f"{name} error")
        b = backends[name]
        rows.append(f"{name},{max_err:.6e},{rms_err:.6e},{b.ops},{b.latency:.6e},{b.params}")
    print("\n".join(rows))
    return 0


def cmd_pipeline(args) -> int:
    if args.links < 1:
        raise ValueError(f"--links must be >= 1, got {args.links}")
    print("n_links,processors,latency_us")
    for n in range(1, args.links + 1):
        model = ccm.PipelineModel(n)
        print(f"{n},{model.processors},{ccm.latency_us(model):.6e}")
    return 0


def cmd_vm(args) -> int:
    t1, t2, t3, t4 = args.angles  # (t2 + t3) + t4 is the program's last angle sum, which may overflow
    if not all(math.isfinite(v) for v in [t1, t2, t3, t4, (t2 + t3) + t4, *args.params]):
        raise DomainError("joint angles, their sum and link constants must be finite")
    params = UmdhParams(*args.params)
    prog = umdh.umdh_program(params)
    hw = umdh.VmConfig(half_sized=args.half_sized, sincos_cycles=args.sincos_cycles)
    pose, cycles = umdh.vm_run(prog, *args.angles, params, hw)
    finite(pose, "pose")
    time_us = finite(umdh.clock_time(cycles, args.clock_mhz), "time")
    if args.dump_program:
        print(prog.to_text(), end="")
    _print_pose(pose)
    naive_ops = umdh.umdh_t04_naive(*args.angles, params)[1]
    print(f"instructions: {len(prog.instrs)}")
    print(f"arithmetic ops: {prog.arith_ops} (naive {naive_ops})")
    print(f"cycles: {cycles}")
    print(f"time at {args.clock_mhz} MHz: {time_us:.6f} us")
    return 0


@cache  # parse_args leaves the parser as it is, so every main call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fkemu", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_opts(p):
        p.add_argument("--iters", type=int, default=24, help="CORDIC iteration count")
        p.add_argument("--table-size", type=int, default=1024, help="lookup table entries")
        p.add_argument("--table-mode", choices=(lut.NEAREST, lut.LINEAR), default=lut.NEAREST)
        p.add_argument("--format", type=parse_qformat, default=Q8_24, help="datapath Q format, e.g. Q8.24")

    p_solve = sub.add_parser("solve", help="print the pose of a chain")
    p_solve.add_argument("chain", help="chain file path, or 'puma560' for the demo")
    p_solve.add_argument("--backend", choices=BACKENDS, default="matrix")
    add_backend_opts(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="seeded accuracy/op-count sweep as CSV")
    p_bench.add_argument("chain")
    p_bench.add_argument("--backends", default="cordic,taylor,lut")
    p_bench.add_argument("--trials", type=int, default=16)
    p_bench.add_argument("--seed", type=int, default=0)
    add_backend_opts(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_pipe = sub.add_parser("pipeline", help="latency table for 1..n links")
    p_pipe.add_argument("--links", type=int, default=6)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_vm = sub.add_parser("vm", help="run the thumb FK program on the VM")
    p_vm.add_argument("--angles", type=float, nargs=4, required=True, metavar="T")
    p_vm.add_argument(
        "--params", type=float, nargs=5,
        default=[DEMO_THUMB.a0, DEMO_THUMB.a1, DEMO_THUMB.a2, DEMO_THUMB.a3, DEMO_THUMB.d1],
        metavar="K", help="a0 a1 a2 a3 d1",
    )
    p_vm.add_argument("--half-sized", action="store_true", help="halve the register file")
    p_vm.add_argument("--sincos-cycles", type=int, default=1)
    p_vm.add_argument("--clock-mhz", type=float, default=10.3)
    p_vm.add_argument("--dump-program", action="store_true")
    p_vm._negative_number_matcher = NEGATIVE_FLOAT  # --angles and --params take any float
    p_vm.set_defaults(func=cmd_vm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChainParseError as e:
        print(f"fkemu: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"fkemu: domain error: {e}", file=sys.stderr)
        return 3
    except CapacityError as e:
        print(f"fkemu: capacity error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"fkemu: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
