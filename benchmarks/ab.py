#!/usr/bin/env python3
"""Interleaved A/B runs of one perfbench workload, or of named layer rows,
on two revisions.

    python benchmarks/ab.py PARENT [CHANGE] --workload W --pairs N --seconds S
    python benchmarks/ab.py PARENT [CHANGE] --rows ROW [ROW ...] --pairs N

PARENT and CHANGE are git revisions of this repository; each is checked
out by a local ``git clone`` into a temporary directory (no network).
CHANGE defaults to the working tree as it stands.  ``--null`` runs CHANGE
on both sides instead, so the spread of a change against itself sits next
to a claim.

Pair k runs each side's own ``perfbench/run.py --workload W --seed
SEED+k --seconds S``, the parent first in even pairs and the change first
in odd ones, so a drift in the machine's speed falls on both sides alike.
For every end-to-end metric the summary prints the pair ratios (change /
parent), each side's median and quartiles, the ratios' median and
quartiles, and the pairs the change won, by the direction BENCHMARK.json
gives the metric.

``--rows`` times rows of benchmarks/test_layers.py instead (ROW as
pytest names it, e.g. ``test_lut_sincos_384_angles[linear]``).  Pair k
runs CHANGE's rows file once per side through ``pytest
--benchmark-json``, from that side's tree with its ``src`` first on
PYTHONPATH, in the same alternating order: a row is one body timed on
each side's package, so a row new in CHANGE compares too.  For every row
the summary prints each side's minimum per pair, in microseconds, the
pair ratios (change / parent), the ratios' median and quartiles, and the
pairs the change was faster in.  --seconds and --seed do not apply.

Exits 1 if any run is not ``correct: true``, or if the two sides of a
pair differ in ``sim``, ``acc`` or ``digest`` (the report line before the
result) unless ``--bits-change`` is given; 2 on a bad revision, a run
that prints no result, or a rows run that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

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
    """Per end-to-end metric: the pair ratios, each side's median and
    quartiles, the ratios' median and quartiles, and the pairs won."""
    lines = []
    names = [n for n in pairs[0][0][1]["metrics"] if n in better] if pairs else []
    for name in names:
        parent = [p[1]["metrics"][name]["value"] for p, _ in pairs]
        change = [c[1]["metrics"][name]["value"] for _, c in pairs]
        unit = pairs[0][0][1]["metrics"][name]["unit"]
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        lower = better[name] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3), (r1, rm, r3) = map(_quartiles, (parent, change, ratios))
        lines += [
            f"{name} ({unit}, {better[name]} is better)",
            "  ratios: " + " ".join(f"{r:.3f}" for r in ratios),
            f"  parent: median {pm:.6g}, quartiles {p1:.6g}-{p3:.6g}",
            f"  change: median {cm:.6g}, quartiles {c1:.6g}-{c3:.6g}",
            f"  median ratio {rm:.3f} (quartiles {r1:.3f}-{r3:.3f}), change better in {won} of {len(pairs)} pairs",
        ]
    return lines


def row_minima(bench_json: dict) -> dict[str, float]:
    """{row name: fastest round in microseconds} of a pytest --benchmark-json file."""
    return {b["name"]: b["stats"]["min"] * 1e6 for b in bench_json["benchmarks"]}


def summarize_rows(pairs: list[tuple[dict, dict]], rows: list[str]) -> list[str]:
    """Per row: each side's minimum in every pair, the pair ratios (change /
    parent), their median and quartiles, and the pairs the change was faster in."""
    lines = []
    for row in rows:
        parent = [p[row] for p, _ in pairs]
        change = [c[row] for _, c in pairs]
        ratios = [c / p for p, c in zip(parent, change)]
        won = sum(c < p for p, c in zip(parent, change))
        r1, rm, r3 = _quartiles(ratios)
        lines += [
            f"{row} (us, minimum of each run, lower is better)",
            "  parent: " + " ".join(f"{v:.4g}" for v in parent),
            "  change: " + " ".join(f"{v:.4g}" for v in change),
            "  ratios: " + " ".join(f"{r:.3f}" for r in ratios),
            f"  median ratio {rm:.3f} (quartiles {r1:.3f}-{r3:.3f}), change faster in {won} of {len(pairs)} pairs",
        ]
    return lines


def fail(msg: str):
    """Stop with msg on stderr and exit status 2: a run that gave no result."""
    print(msg, file=sys.stderr)
    raise SystemExit(2)


def _checkout(rev: str, into: Path) -> str:
    """Clone this repository into `into` and check out rev there; returns
    the commit's short sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "checkout", "--quiet", sha], cwd=into, check=True)
    return sha[:12]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        return parse_run(proc.stdout)
    except ValueError as e:
        fail(f"ab: {tree}: run.py exited {proc.returncode} with no result ({e}):\n{proc.stderr}")


def _run_rows(tree: Path, rows_file: Path, rows: list[str], out: Path) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--benchmark-json={out}",
         *(f"{rows_file}::{row}" for row in rows)],
        cwd=tree, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if proc.returncode != 0:
        fail(f"ab: {tree}: pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    minima = row_minima(json.loads(out.read_text(encoding="utf-8")))
    missing = [row for row in rows if row not in minima]
    if missing:
        fail(f"ab: {tree}: no timing for {', '.join(missing)}")
    return minima


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="git revision of the parent side")
    p.add_argument("change", nargs="?", help="git revision of the change side (default: the working tree)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--rows", nargs="+", metavar="ROW", help="rows of benchmarks/test_layers.py to time instead")
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
            if args.change is None:
                change, change_name = ROOT, "working tree"
            else:
                change = Path(tmp) / "change"
                change_name = _checkout(args.change, change)
            if args.null:
                parent, parent_name = change, change_name
            else:
                parent = Path(tmp) / "parent"
                parent_name = _checkout(args.parent, parent)
        except subprocess.CalledProcessError as e:
            print(f"ab: cannot check out a revision: {e}", file=sys.stderr)
            return 2
        if args.rows:
            return _main_rows(args, parent, parent_name, change, change_name, Path(tmp))
        seeds = range(args.seed, args.seed + args.pairs)
        print(f"ab: {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, seeds {seeds[0]}-{seeds[-1]}; "
              f"parent {parent_name}, change {change_name}" + (" (null)" if args.null else ""), flush=True)
        pairs = []
        for k, seed in enumerate(seeds):
            order = [("parent", parent), ("change", change)][:: 1 if k % 2 == 0 else -1]
            runs = {name: _run(tree, args.workload, seed, args.seconds) for name, tree in order}
            pairs.append((runs["parent"], runs["change"]))
            p50 = {name: run[1]["metrics"].get("request_us.p50", {}).get("value", float("nan"))
                   for name, run in runs.items()}
            print(f"  pair {k} (seed {seed}, {order[0][0]} first): "
                  + ", ".join(f"{name} {v:.6g}" for name, v in p50.items()) + " us p50", file=sys.stderr, flush=True)

    found = problems(pairs, args.bits_change)
    print("bits: " + ("not compared (--bits-change)" if args.bits_change else
                      "sim, acc and digest differ" if any("differs" in f for f in found) else
                      "sim, acc and digest equal on every pair"))
    print("\n".join(summarize(pairs, directions())))
    for f in found:
        print(f"ab: {f}", file=sys.stderr)
    return 1 if found else 0


def _main_rows(args, parent: Path, parent_name: str, change: Path, change_name: str, tmp: Path) -> int:
    rows_file = change / ROWS_FILE
    print(f"ab: {len(args.rows)} rows of {ROWS_FILE}, {args.pairs} pairs; "
          f"parent {parent_name}, change {change_name}" + (" (null)" if args.null else ""), flush=True)
    pairs = []
    for k in range(args.pairs):
        order = [("parent", parent), ("change", change)][:: 1 if k % 2 == 0 else -1]
        runs = {name: _run_rows(tree, rows_file, args.rows, tmp / f"{name}.json") for name, tree in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"  pair {k} ({order[0][0]} first) done", file=sys.stderr, flush=True)
    print("\n".join(summarize_rows(pairs, args.rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
