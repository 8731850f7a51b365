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

solve and bench take every pose, the oracle's and each backend's, from one
stacked product over a ChainSet; bench grades a backend in one pass over all
its poses.  Exit codes: 0 success, 2 parse failure or bad option, 3 numeric
domain error (an angle or reach outside a backend's domain, or a pose or
error past float64), 4 register capacity error.
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
from .dh import ChainSet, DhJoint, PRISMATIC, ROTARY, PumaParams, Vec4, chain_poses, exact_sincos, pose_op_count, puma_chain
from .fixedpoint import DomainError, QFormat
from .umdh import CapacityError, UmdhParams

BACKENDS = ("matrix", "cordic", "taylor", "lut")

# Demo profile only; the library itself takes link constants as inputs.
PUMA560 = PumaParams(d2=0.14909, d4=0.43307, d6=0.05625, a2=0.4318, a3=-0.02032)

DEMO_THUMB = UmdhParams(a0=0.05, a1=0.04, a2=0.03, a3=0.025, d1=0.02)

CSV_HEADER = "backend,max_err,rms_err,ops_per_pose,model_latency_us,params"


class ChainParseError(ValueError):
    def __init__(self, filename: str, line: int, col: int, msg: str) -> None:
        super().__init__(f"{filename}:{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ChainFile:
    name: str
    joints: tuple[DhJoint, ...]
    point: Vec4 | None


# fields after each directive word: a joint is its kind and four numbers
CHAIN_FIELDS = {"name": 1, "joint": 5, "point": 3}


def parse_chain(text: str, filename: str = "<chain>") -> ChainFile:
    name = "chain"
    joints: list[DhJoint] = []
    point: Vec4 | None = None
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
            if len(tokens) < 2 or tokens[1] not in ("R", "P"):
                raise error(1, "joint kind must be R or P")
            joints.append(DhJoint(ROTARY if tokens[1] == "R" else PRISMATIC, *floats(2, 4)))
        else:
            point = Vec4(*floats(1, 3))
        if len(tokens) > fields + 1:
            raise error(fields + 1, f"{key} takes {fields} fields")
    if not joints:
        raise ChainParseError(filename, 1, 1, "chain has no joints")
    return ChainFile(name, tuple(joints), point)


def load_chain(path: str) -> ChainFile:
    if path == "puma560":
        return ChainFile("puma560", tuple(puma_chain([0.0] * 6, PUMA560)), Vec4(0.0, 0.0, 0.0))
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
    poses: Callable  # ChainSet -> (len(chains), 4, 4) ndarray
    ops: int  # modeled scalar ops per pose
    latency: float  # modeled pipeline latency, 0 where no model exists
    params: str


def _make_backends(args, n_links: int) -> dict[str, _Backend]:
    ccfg = CordicConfig(args.iters, args.format)
    tcfg = taylor.TaylorConfig()
    table = lut.build_table(args.table_size, mode=args.table_mode)
    # (sincos, ops per (cos, sin) pair, params) for the chain-product backends
    trig = {
        "matrix": (exact_sincos, 1, ""),
        "taylor": (
            partial(taylor.taylor_sincos, cfg=tcfg),
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
        name: _Backend(partial(chain_poses, sincos=sincos), pose_op_count(n_links, ops), 0.0, params)
        for name, (sincos, ops, params) in trig.items()
    }
    backends["cordic"] = _Backend(
        partial(ccm.ccm_poses, cfg=ccfg),
        ccm.pose_op_count(n_links, ccfg),
        ccm.latency_us(ccm.PipelineModel(n_links)),
        f"iters={args.iters};fmt={args.format}",
    )
    return backends


def _print_pose(pose: np.ndarray) -> None:
    for row in pose:
        print("  " + "  ".join(f"{v: .9f}" for v in row))


def _finite(x, what: str):
    """x, unless some entry of it is NaN or infinite: link constants so large
    that a pose or an error leaves float64 are outside every backend's domain."""
    if not np.isfinite(x).all():
        raise DomainError(f"{what} is not finite in float64")
    return x


def cmd_solve(args) -> int:
    chain_file = load_chain(args.chain)
    backend = _make_backends(args, len(chain_file.joints))[args.backend]
    chains = ChainSet.of([chain_file.joints])
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports it
        oracle = _finite(chain_poses(chains)[0], "oracle pose")
        pose = backend.poses(chains)[0]
        dev = _finite(float(np.abs(pose - oracle).max()), "deviation from the oracle")
        if chain_file.point is not None:
            moved = _finite(pose @ chain_file.point.as_array(), "transformed point")
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
    base = ChainSet.of([joints])
    u = np.random.default_rng(seed).random((trials, len(joints)))
    rotary = np.array([j.kind == ROTARY for j in joints])
    theta = np.where(rotary, -math.pi + (math.pi - -math.pi) * u, base.theta)
    d = np.where(rotary, base.d, u)
    return ChainSet(theta, d, np.broadcast_to(base.a_eff, theta.shape), np.broadcast_to(base.alpha, theta.shape))


def grade(poses: np.ndarray, oracles: np.ndarray) -> tuple[float, float]:
    """(max_err, rms_err) of (n, 4, 4) poses against their oracles, over every
    entry.  The squared errors are summed pose by pose and the poses in order,
    as a loop over the poses adds them, so rms_err keeps that loop's bits."""
    diff = np.abs(poses - oracles)
    sq_sum = np.cumsum((diff**2).sum(axis=(1, 2)))[-1]
    return float(diff.max()), math.sqrt(sq_sum / diff.size)


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    chain_file = load_chain(args.chain)
    names = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not names:
        raise ValueError("--backends names no backend")
    for b in names:
        if b not in BACKENDS:
            raise ValueError(f"--backends: unknown backend {b!r}, expected some of {','.join(BACKENDS)}")
    backends = _make_backends(args, len(chain_file.joints))
    variants = bench_variants(chain_file.joints, args.trials, args.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports it
        oracles = _finite(chain_poses(variants), "oracle pose")
        print(CSV_HEADER)
        for name in names:
            backend = backends[name]
            max_err, rms_err = _finite(grade(backend.poses(variants), oracles), f"{name} error")
            print(f"{name},{max_err:.6e},{rms_err:.6e},{backend.ops},{backend.latency:.6e},{backend.params}")
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
    if not all(math.isfinite(v) for v in args.angles + args.params):
        raise DomainError("joint angles and link constants must be finite")
    params = UmdhParams(*args.params)
    prog = umdh.umdh_program(params)
    hw = umdh.VmConfig(half_sized=args.half_sized, sincos_cycles=args.sincos_cycles)
    pose, cycles = umdh.vm_run(prog, *args.angles, params, hw)
    time_us = umdh.clock_time(cycles, args.clock_mhz)
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
        p.add_argument("--format", type=parse_qformat, default=QFormat(32, 24), help="datapath Q format, e.g. Q8.24")

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
