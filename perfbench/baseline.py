#!/usr/bin/env python3
"""Repeat benchmark runs, check their spread, and record a baseline.

    python3 perfbench/baseline.py --runs 10 --sets 2 --write perfbench/baseline.json

For each workload, each set runs ``run.py`` once per seed (seed-base,
seed-base+1, ...) with the ``run_seconds`` of BENCHMARK.json, one run at a
time.  It prints, per end-to-end metric, the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the metric's bound.  With two sets it also checks that the second
median is no worse than the first by more than the bound, and that both
sets agree exactly, seed for seed, on failures, every ``sim.*``/``acc.*``
value and the output digest.  ``--write`` adds one traced run per workload
and stores everything as JSON, including for each run of the first set the
times as measured (``host_raw``), the set-up parts and the reference-kernel
times the speed correction used.  Exits 1 if any check fails.

run.py checks every seed against the fingerprints of the baseline file, so
after a change that alters the emulated arithmetic on purpose, move the old
file aside before recording a new one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py invocation: (report line, result line)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def fingerprint(report: dict, result: dict) -> dict:
    """What two runs of one seed must agree on exactly."""
    return {
        "failed": result["failed"],
        "correct": result["correct"],
        "sim": report["sim"],
        "acc": report["acc"],
        "digest": report["digest"],
    }


def run_record(report: dict) -> dict:
    """What a run measured before the speed correction, and the kernel
    times and set-up parts the correction used, so it can be audited."""
    return {
        "seed": report["seed"],
        "samples": report["samples"],
        "host_raw": {name: m["value"] for name, m in report["host_raw"].items()},
        "setup": report["setup"],
        "calibration": report["calibration"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload per set")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--write", metavar="PATH", help="also run one traced run per workload and write JSON here")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(args.seed_base, args.seed_base + args.runs))

    ok = True
    out = {"run_seconds": seconds, "seeds": seeds, "sets": args.sets, "workloads": {}}
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                report, result = run_once(w, seed, seconds, 0)
                runs.append((report, result))
                print(f"{w} set {s + 1} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
            sets.append(runs)
        entry = {"metrics": {}, "runs": [run_record(rep) for rep, _res in sets[0]], "fingerprints": {}}
        for name, spec in specs.items():
            medians = []
            for s, runs in enumerate(sets):
                values = [res["metrics"][name]["value"] for _rep, res in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = "ok" if spread <= spec["bound"] else "WIDE"
                if spread > spec["bound"]:
                    ok = False
                print(f"  {w:14s} {name:16s} set {s + 1}: median {med:.6g} {spec['unit']} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} (bound {spec['bound']}, "
                      f"third {spec['bound'] / 3:.4f}) {flag}")
                if s == 0:
                    entry["metrics"][name] = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                                              "spread": spread, "values": values}
            if len(medians) == 2:
                drift = worse_by(medians[0], medians[1], spec["better"])
                if drift > spec["bound"]:
                    ok = False
                print(f"  {w:14s} {name:16s} second median worse by {drift:+.4f} "
                      f"(bound {spec['bound']}) {'ok' if drift <= spec['bound'] else 'WORSE'}")
        for i, seed in enumerate(seeds):
            prints = [fingerprint(*runs[i]) for runs in sets]
            if any(fp != prints[0] for fp in prints) or not prints[0]["correct"]:
                ok = False
                print(f"  {w:14s} seed {seed}: runs disagree or failed: {prints}")
            entry["fingerprints"][str(seed)] = prints[0]
        print(f"  {w:14s} {'every seed repeats exactly' if len(sets) == 2 else 'one set'}; "
              f"failed {sum(res['failed'] for runs in sets for _r, res in runs)}", flush=True)
        if args.write:
            report, result = run_once(w, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], "correct": result["correct"], "layers": result["metrics"],
                               "traced_requests": report["traced_requests"]}
        entry["env"] = sets[0][0][0]["env"]
        out["workloads"][w] = entry
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    print("ALL OK" if ok else "CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
