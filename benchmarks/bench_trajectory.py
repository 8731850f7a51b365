"""Print the trajectory of the committed BENCH_*.json files: each row's
fastest time per file, in microseconds, scaled to the reference machine
speed by the rule that file's records allow.

    python benchmarks/bench_trajectory.py [BENCH_<n>.json ...]

With no argument it reads every BENCH_*.json in the repository root, in
number order.  One column per file; its tag names the rule:

- "raw" (before BENCH_16, no speed reference): the raw minimum.  Compare
  it only within its own file.
- "sess" (BENCH_16, BENCH_17): the session's speed reference,
  min * ref_ns / mean(before_ns, after_ns) of one calibrate kernel.
- "row" (from BENCH_19 on, each row carries extra_info["core_ns"], the
  core kernel timed just before and after it): min * ref_ns / core_ns.

STREAM_ROWS, over 1e5 or more angles, scale by the stream kernel's session
figures in both later rules; every other row by the core kernel.  ref_ns
is calibrate's constant, so it sets only the scale.

A tag ending in "!" marks a session whose kernel moved by over MOVED
between its before and after timings (benchmarks/conftest.py warns of it
at the session's end): the speed changed while it ran, so drop it rather
than compare its rows.  A cell ending in "?" moved the other way from its
raw minimum since the column before it (one rose while the other fell):
the speed reference beside the row moved more than the row did, so the
pair of files says nothing of the row's direction, as with
test_bench_chain12_cli from BENCH_21 to BENCH_22 (raw 954 -> 736 us,
scaled 992 -> 1049).  A row name ending in "~" is bound by numpy's
per-call cost: scaling does not make it comparable across files (the
untouched vm_run moved 13% from BENCH_16 to BENCH_17), so a claim about
it needs parent and change timed interleaved on one machine.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MOVED = 0.2  # a kernel whose after/before ratio is off 1 by more: the speed changed mid-session
STREAM_ROWS = ("test_lut_sincos_1e5_angles", "test_lut_sincos_2e20_angles")
# one call of a few numpy or Python operations on a handful of values
DISPATCH_BOUND = (
    "test_fx_add",
    "test_rescale_64_lanes",
    "test_sincos_cordic",
    "test_taylor_sincos",
    "test_taylor_sincos_384_angles",
    "test_fold_angle_384_angles",
    "test_lut_sincos_384_angles",
    "test_lut_sincos_scalar",
    "test_circ_rotate_lanes[1]",
    "test_ccm_points_one_module_64_lanes",
    "test_chain_pose_puma560",
    "test_chain_pose_thumb",
    "test_taylor_pose_puma560",
    "test_lut_pose_puma560",
    "test_chain_links_chain12_48x12",
    "test_bench_links_chain12_3_providers",
    "test_chain_product_chain12_48x12",
    "test_vm_run",
    "test_vm_run_taylor",
    "test_umdh_t04_naive",
    "test_thumb_vm_request",
)


def _number(path):
    return int(re.search(r"BENCH_(\d+)", path.name).group(1))


def _kind(name):
    return "stream" if name.split("[")[0] in STREAM_ROWS else "core"


def read(path):
    """(tag, {row name: scaled minimum in us}, {row name: raw minimum in us})
    of one BENCH file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    ref = data["machine_info"].get("speed_reference")
    rows = data["benchmarks"]
    per_row = all("core_ns" in row.get("extra_info", {}) for row in rows)
    tag = "raw" if ref is None else "row" if per_row else "sess"
    if ref is not None and any(abs(k["after_ns"] / k["before_ns"] - 1) > MOVED for k in ref.values()):
        tag += "!"
    times, raws = {}, {}
    for row in rows:
        t, kind = row["stats"]["min"], _kind(row["name"])
        raws[row["name"]] = t * 1e6
        if ref is not None:
            speed = ref[kind]
            ran_at = row["extra_info"]["core_ns"] if per_row and kind == "core" else (speed["before_ns"] + speed["after_ns"]) / 2
            t *= speed["ref_ns"] / ran_at
        times[row["name"]] = t * 1e6
    return tag, times, raws


def _cell(name, now, before):
    """Row name's figure in now, the (scaled, raw) minima of one file, with
    "?" where it moved the other way from its raw minimum since before, the
    minima of the column before it."""
    (times, raws), (was, was_raw) = now, before
    if name not in times:
        return "-"
    t = times[name]
    cell = f"{t:.3g}" if t < 1000 else f"{t:.0f}"
    if name in was and (t - was[name]) * (raws[name] - was_raw[name]) < 0:
        cell += "?"
    return cell


def main(argv):
    paths = sorted((Path(p) for p in argv) if argv else ROOT.glob("BENCH_*.json"), key=_number)
    if not paths:
        raise SystemExit("no BENCH_*.json given or found")
    files = [(path, *read(path)) for path in paths]
    names = list(files[-1][2])  # the newest file's rows first, in its order
    names += sorted({n for _, _, times, _ in files for n in times} - set(names))
    labels = [n + ("~" if n.split("[")[0] in DISPATCH_BOUND or n in DISPATCH_BOUND else "") for n in names]
    width = max(map(len, labels))
    heads = [f"{_number(path)}:{tag}" for path, tag, _, _ in files]
    cols = [max(8, len(h)) for h in heads]
    minima = [(times, raws) for _, _, times, raws in files]
    print("us".ljust(width), *(h.rjust(c) for h, c in zip(heads, cols)))
    for name, label in zip(names, labels):
        cells = (_cell(name, now, before) for now, before in zip(minima, [({}, {}), *minima]))
        print(label.ljust(width), *(cell.rjust(c) for cell, c in zip(cells, cols)))


if __name__ == "__main__":
    main(sys.argv[1:])
