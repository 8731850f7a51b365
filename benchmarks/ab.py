#!/usr/bin/env python3
"""Interleaved A/B runs of one perfbench workload, or of the layer rows,
on two revisions.

    python benchmarks/ab.py PARENT [CHANGE] --workload W --pairs N --seconds S
    python benchmarks/ab.py PARENT [CHANGE] --rows [ROW ...] --pairs N

PARENT and CHANGE are git revisions of this repository; each is checked
out by a local ``git clone`` into a temporary directory (no network).
CHANGE defaults to a copy of the working tree as it stands: every file
git lists, tracked or untracked, but none that .gitignore excludes, so
neither side runs with a bytecode cache the other lacks.  ``--null``
runs CHANGE on both sides instead, so the spread of a change against
itself sits next to a claim.

Pair k runs the parent first in even pairs and the change first in odd
ones, so a drift in the machine's speed falls on both sides alike.  Both
modes print, per metric or row, the pair ratios (change / parent), their
median and quartiles, and the pairs the change won.

``--workload``: each side runs its own ``perfbench/run.py --workload W
--seed SEED+k --seconds S``.  Every end-to-end metric also gets each
side's median and quartiles, its better side taken from BENCHMARK.json.

``--rows`` times rows of benchmarks/test_layers.py, as pytest names them
(e.g. ``test_lut_sincos_384_angles[linear]``), and every row of CHANGE's
file when none is named.  Each side runs CHANGE's rows file through
``pytest --benchmark-json`` from its own tree, with its own ``src`` first
on PYTHONPATH, so a row is one body timed on each side's package.  Per
row it prints each side's minimum per pair in microseconds and the ratio
summary.  A row that the parent's package cannot run in every pair is new.
The last line is the record, one JSON object, committed as
``BENCH_<n>.json``:

    {"parent": SHA, "rows": {ROW: {"ratio": MEDIAN, "quartiles": [Q1, Q3],
     "won": W, "pairs": N, "change_us": [MINIMUM, ...]}, NEW: {"new": true,
     "change_us": [...]}}}

where change_us holds the change side's minimum of each pair.  --seconds
and --seed do not apply to rows.

Exits 1 if any run is not ``correct: true``, or if the two sides of a
pair differ in ``sim``, ``acc`` or ``digest`` (the report line before the
result) unless ``--bits-change`` is given; 2 on a bad revision, a run
that prints no result, or a rows run that fails on the change side; 143
on SIGTERM, after killing the run it was waiting on and removing its
clones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = ("sim", "acc", "digest")
ROWS_FILE = Path("benchmarks") / "test_layers.py"


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(report, result): the last two JSON lines perfbench/run.py prints."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"expected a report and a result line, got {len(lines)} lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def directions(benchmark_json: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    """Metric name -> "lower" or "higher", the end-to-end metrics' better side."""
    spec = json.loads(benchmark_json.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ratios(parent: list[float], change: list[float], lower: bool = True) -> tuple[list[float], tuple, int]:
    """The ratio summary of one metric or row over the pairs: the pair
    ratios (change / parent), their (q1, median, q3), and the pairs won."""
    got = [c / p if p else float("nan") for p, c in zip(parent, change)]
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    return got, _quartiles(got), won


def _ratio_lines(parent: list[float], change: list[float], lower: bool = True) -> list[str]:
    got, (r1, rm, r3), won = ratios(parent, change, lower)
    return ["  ratios: " + " ".join(f"{r:.3f}" for r in got),
            f"  median ratio {rm:.3f} (quartiles {r1:.3f}-{r3:.3f}), change better in {won} of {len(got)} pairs"]


def problems(pairs: list[tuple[tuple[dict, dict], tuple[dict, dict]]], bits_change: bool) -> list[str]:
    """Why the runs cannot stand as a comparison: a run not correct, or a
    pair whose sides differ in sim, acc or digest (unless bits_change)."""
    found = []
    for k, sides in enumerate(pairs):
        for name, (report, result) in zip(("parent", "change"), sides):
            if result.get("correct") is not True:
                found.append(f"pair {k} {name}: not correct: {report.get('errors')}")
        if not bits_change:
            (parent, _), (change, _) = sides
            for key in FINGERPRINT:
                if parent.get(key) != change.get(key):
                    found.append(f"pair {k}: {key} differs: parent {parent.get(key)} != change {change.get(key)}")
    return found


def summarize(pairs: list[tuple[tuple[dict, dict], tuple[dict, dict]]], better: dict[str, str]) -> list[str]:
    """Per end-to-end metric: each side's median and quartiles, then the
    ratio summary."""
    lines = []
    names = [n for n in pairs[0][0][1]["metrics"] if n in better] if pairs else []
    for name in names:
        parent = [p[1]["metrics"][name]["value"] for p, _ in pairs]
        change = [c[1]["metrics"][name]["value"] for _, c in pairs]
        unit = pairs[0][0][1]["metrics"][name]["unit"]
        ratio, median = _ratio_lines(parent, change, better[name] == "lower")
        (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
        lines += [
            f"{name} ({unit}, {better[name]} is better)",
            ratio,
            f"  parent: median {pm:.6g}, quartiles {p1:.6g}-{p3:.6g}",
            f"  change: median {cm:.6g}, quartiles {c1:.6g}-{c3:.6g}",
            median,
        ]
    return lines


def row_minima(bench_json: dict) -> dict[str, float]:
    """{row name: fastest round in microseconds} of a pytest --benchmark-json file."""
    return {b["name"]: b["stats"]["min"] * 1e6 for b in bench_json["benchmarks"]}


def _is_new(pairs: list[tuple[dict, dict]], row: str) -> bool:
    return any(row not in parent for parent, _ in pairs)


def summarize_rows(pairs: list[tuple[dict, dict]], rows: list[str]) -> list[str]:
    """Per row: each side's minimum in every pair, then the ratio summary;
    a row new in the change gets its minima only."""
    lines = []
    for row in rows:
        change = [c[row] for _, c in pairs]
        lines.append(f"{row} (us, minimum of each run, lower is better)")
        if _is_new(pairs, row):
            lines += ["  new: the parent cannot run it", "  change: " + " ".join(f"{v:.4g}" for v in change)]
            continue
        parent = [p[row] for p, _ in pairs]
        lines += ["  parent: " + " ".join(f"{v:.4g}" for v in parent),
                  "  change: " + " ".join(f"{v:.4g}" for v in change),
                  *_ratio_lines(parent, change)]
    return lines


def record(pairs: list[tuple[dict, dict]], rows: list[str], parent_name: str) -> dict:
    """The rows' record, as the module docstring gives it."""
    out = {}
    for row in rows:
        entry = {"change_us": [float(f"{c[row]:.4g}") for _, c in pairs]}
        if _is_new(pairs, row):
            out[row] = {"new": True, **entry}
            continue
        _, (r1, rm, r3), won = ratios([p[row] for p, _ in pairs], [c[row] for _, c in pairs])
        out[row] = {"ratio": round(rm, 4), "quartiles": [round(r1, 4), round(r3, 4)], "won": won,
                    "pairs": len(pairs), **entry}
    return {"parent": parent_name, "rows": out}


def fail(msg: str):
    """Stop with msg on stderr and exit status 2: a run that gave no result."""
    print(msg, file=sys.stderr)
    raise SystemExit(2)


def terminate(signum, frame):
    """SIGTERM as SystemExit(128 + signum): subprocess.run kills the child
    it waits on, and TemporaryDirectory removes the clones, as it unwinds."""
    raise SystemExit(128 + signum)


def _checkout(rev: str, into: Path) -> str:
    """Clone this repository into `into` and check out rev there; returns
    the commit's short sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "checkout", "--quiet", sha], cwd=into, check=True)
    return sha[:12]


def _snapshot(root: Path, into: Path) -> None:
    """Copy root's working tree into `into`: the files that
    ``git ls-files --cached --others --exclude-standard`` lists and that
    still exist, so untracked new files come along and ignored ones, such
    as __pycache__, stay behind."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=root,
                            capture_output=True, check=True).stdout
    for name in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        if (root / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        return parse_run(proc.stdout)
    except ValueError as e:
        fail(f"ab: {tree}: run.py exited {proc.returncode} with no result ({e}):\n{proc.stderr}")


def _run_rows(tree: Path, rows_file: Path, rows: list[str], out: Path, must_pass: bool) -> dict[str, float]:
    """{row: minimum in us} of one pytest run of rows (all rows of rows_file
    if none) on tree's package; the change side (must_pass) fails unless
    every row passes, the parent's side leaves out the rows it cannot run."""
    report = out.with_suffix(".xml")
    for path in (out, report):
        path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--benchmark-json={out}",
         f"--junitxml={report}", *([f"{rows_file}::{row}" for row in rows] or [str(rows_file)])],
        cwd=tree, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if must_pass and proc.returncode != 0:
        fail(f"ab: {tree}: pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    if not out.exists():
        return {}
    # a row timed before it failed (an assert after the benchmark call) did not run either
    failed = {case.get("name") for case in ElementTree.parse(report).iter("testcase")
              if case.find("failure") is not None or case.find("error") is not None}
    return {row: t for row, t in row_minima(json.loads(out.read_text(encoding="utf-8"))).items() if row not in failed}


def _pairs(n: int, sides: dict[str, Path], run) -> list[tuple]:
    """n pairs of (parent's result, change's result), run(name, tree, k)
    giving each: the parent first in even pairs, the change in odd ones."""
    pairs = []
    for k in range(n):
        order = list(sides.items())[:: 1 if k % 2 == 0 else -1]
        runs = {name: run(name, tree, k) for name, tree in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"  pair {k} ({order[0][0]} first) done", file=sys.stderr, flush=True)
    return pairs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="git revision of the parent side")
    p.add_argument("change", nargs="?", help="git revision of the change side (default: the working tree)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--rows", nargs="*", metavar="ROW",
                      help="rows of benchmarks/test_layers.py to time instead, every row if none is named")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0, help="measured run length of each run")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair k runs seed + k")
    p.add_argument("--null", action="store_true", help="run CHANGE against itself")
    p.add_argument("--bits-change", action="store_true", help="allow sim, acc and digest to differ")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="fkemu-ab-") as tmp:
        try:
            change = Path(tmp) / "change"
            if args.change is None:
                change_name = "working tree"
                _snapshot(ROOT, change)
            else:
                change_name = _checkout(args.change, change)
            if args.null:
                parent, parent_name = change, change_name
            else:
                parent = Path(tmp) / "parent"
                parent_name = _checkout(args.parent, parent)
        except subprocess.CalledProcessError as e:
            print(f"ab: cannot check out a revision: {e}", file=sys.stderr)
            return 2
        sides = {"parent": parent, "change": change}
        if args.rows is not None:
            rows_file = change / ROWS_FILE
            print(f"ab: {len(args.rows) or 'all'} rows of {ROWS_FILE}, {args.pairs} pairs; "
                  f"parent {parent_name}, change {change_name}" + (" (null)" if args.null else ""), flush=True)
            pairs = _pairs(args.pairs, sides, lambda name, tree, k: _run_rows(
                tree, rows_file, args.rows, Path(tmp) / f"{name}.json", name == "change"))
            rows = args.rows or list(pairs[0][1])
            missing = [row for row in rows if any(row not in c for _, c in pairs)]
            if missing:
                fail(f"ab: {change}: no timing for {', '.join(missing)}")
            print("\n".join(summarize_rows(pairs, rows)))
            print(json.dumps(record(pairs, rows, parent_name)))
            return 0
        seeds = range(args.seed, args.seed + args.pairs)
        print(f"ab: {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, seeds {seeds[0]}-{seeds[-1]}; "
              f"parent {parent_name}, change {change_name}" + (" (null)" if args.null else ""), flush=True)
        pairs = _pairs(args.pairs, sides, lambda name, tree, k: _run(tree, args.workload, seeds[k], args.seconds))

    found = problems(pairs, args.bits_change)
    print("bits: " + ("not compared (--bits-change)" if args.bits_change else
                      "sim, acc and digest differ" if any("differs" in f for f in found) else
                      "sim, acc and digest equal on every pair"))
    print("\n".join(summarize(pairs, directions())))
    for f in found:
        print(f"ab: {f}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    sys.exit(main())
