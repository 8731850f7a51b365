"""Print the trajectory of the committed BENCH_*.json files, one column
per file.

    python benchmarks/bench_trajectory.py [BENCH_<n>.json ...]

With no argument it reads every BENCH_*.json in the repository root, in
number order.  From BENCH_33.json on, a file is a paired record, the last
line of ``benchmarks/ab.py PARENT --rows``; the files before it are
pytest-benchmark output.

- An older file's column ("<n>:us") holds each row's raw minimum in
  microseconds.  The host's speed drifts by up to 2x between sessions,
  so a raw minimum compares only within its own column.
- A paired file's column ("<n>:ratio") holds each row's median ratio,
  change / parent, both timed in interleaved pairs; "new" marks a row the
  parent could not run.  The last column, "product", is the running
  product of a row's ratios over the paired files: its time in the newest
  file over its time at the parent of the first paired file it was timed
  against.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _number(path):
    return int(re.search(r"BENCH_(\d+)", path.name).group(1))


def read(path):
    """("ratio", {row: median ratio, None if new}) of a paired record, or
    ("us", {row: raw minimum in us}) of an older file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if "rows" in data:
        return "ratio", {name: row.get("ratio") for name, row in data["rows"].items()}
    return "us", {row["name"]: row["stats"]["min"] * 1e6 for row in data["benchmarks"]}


def _cells(name, files):
    """Row name's cell in each file, then its running product if any file is paired."""
    cells, product = [], None
    for _, kind, rows in files:
        if name not in rows:
            cells.append("-")
        elif kind == "us":
            t = rows[name]
            cells.append(f"{t:.3g}" if t < 1000 else f"{t:.0f}")
        elif rows[name] is None:
            cells.append("new")
            product = None
        else:
            cells.append(f"{rows[name]:.3f}")
            product = rows[name] * (1.0 if product is None else product)
    if any(kind == "ratio" for _, kind, _ in files):
        cells.append("-" if product is None else f"{product:.3f}")
    return cells


def main(argv):
    paths = sorted((Path(p) for p in argv) if argv else ROOT.glob("BENCH_*.json"), key=_number)
    if not paths:
        raise SystemExit("no BENCH_*.json given or found")
    files = [(_number(path), *read(path)) for path in paths]
    names = list(files[-1][2])  # the newest file's rows first, in its order
    names += sorted({n for _, _, rows in files for n in rows} - set(names))
    heads = [f"{n}:{kind}" for n, kind, _ in files]
    heads += ["product"] if any(kind == "ratio" for _, kind, _ in files) else []
    width = max(map(len, names))
    cols = [max(8, len(h)) for h in heads]
    print("row".ljust(width), *(h.rjust(c) for h, c in zip(heads, cols)))
    for name in names:
        print(name.ljust(width), *(cell.rjust(c) for cell, c in zip(_cells(name, files), cols)))


if __name__ == "__main__":
    main(sys.argv[1:])
