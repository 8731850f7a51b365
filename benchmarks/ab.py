#!/usr/bin/env python3
"""Interleaved A/B runs of one perfbench workload on two revisions.

    python benchmarks/ab.py PARENT [CHANGE] --workload W --pairs N --seconds S

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

Exits 1 if any run is not ``correct: true``, or if the two sides of a
pair differ in ``sim``, ``acc`` or ``digest`` (the report line before the
result) unless ``--bits-change`` is given; 2 on a bad revision or a run
that prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = ("sim", "acc", "digest")


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
        raise SystemExit(f"ab: {tree}: run.py exited {proc.returncode} with no result ({e}):\n{proc.stderr}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="git revision of the parent side")
    p.add_argument("change", nargs="?", help="git revision of the change side (default: the working tree)")
    p.add_argument("--workload", required=True)
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


if __name__ == "__main__":
    sys.exit(main())
