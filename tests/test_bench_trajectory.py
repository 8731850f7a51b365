import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*paths):
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / "bench_trajectory.py"), *map(str, paths)],
                          capture_output=True, text=True, check=True).stdout.splitlines()


def _table(out):
    """(column heads, {row name: cells}) of the reader's output."""
    return out[0].split()[1:], {line.split()[0]: line.split()[1:] for line in out[1:]}


def _pytest_file(path, minima_s, **machine_info):
    """A pytest-benchmark file: one row per name, its minimum in seconds."""
    rows = [{"name": name, "stats": {"min": t}, "extra_info": {"core_ns": 1000}} for name, t in minima_s.items()]
    path.write_text(json.dumps({"machine_info": machine_info, "benchmarks": rows}))


def _record(path, ratios):
    """A paired record as benchmarks/ab.py --rows prints it; None marks a new row."""
    rows = {name: {"new": True, "change_us": [1.0]} if r is None else
            {"ratio": r, "quartiles": [r, r], "won": 1, "pairs": 1, "change_us": [1.0]} for name, r in ratios.items()}
    path.write_text(json.dumps({"parent": "3ad875fdb134", "rows": rows}) + "\n")


def test_trajectory_reads_every_committed_bench_file():
    # the reader parses JSON only, so it runs on every committed file in
    # tier 1; every row of the newest file must come out with a figure
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    heads, rows = _table(_run())
    numbers = [h.split(":")[0] for h in heads if h != "product"]
    assert numbers == [p.stem.split("_")[1] for p in files]
    newest = json.loads(files[-1].read_text(encoding="utf-8"))
    for name, row in newest["rows"].items() if "rows" in newest else ((r["name"], r) for r in newest["benchmarks"]):
        cell = rows[name][len(files) - 1]
        assert cell == "new" if row.get("new") else float(cell) > 0


def test_trajectory_shows_older_files_as_raw_minima(tmp_path):
    # a file's speed-reference records no longer scale its rows
    ref = {"core": {"ref_ns": 4000, "before_ns": 2000, "after_ns": 2000}}
    _pytest_file(tmp_path / "BENCH_3.json", {"test_vm_run": 1e-6, "test_lut[linear]": 1.5e-3})
    _pytest_file(tmp_path / "BENCH_21.json", {"test_vm_run": 2e-6}, speed_reference=ref)
    heads, rows = _table(_run(tmp_path / "BENCH_21.json", tmp_path / "BENCH_3.json"))
    assert heads == ["3:us", "21:us"]  # number order, and no product with no paired file
    assert rows == {"test_vm_run": ["1", "2"], "test_lut[linear]": ["1500", "-"]}


def test_trajectory_chains_paired_ratios_into_a_running_product(tmp_path):
    _pytest_file(tmp_path / "BENCH_32.json", {"test_a": 10e-6, "test_b": 20e-6, "test_gone": 5e-6})
    _record(tmp_path / "BENCH_33.json", {"test_a": 0.9, "test_b": 1.02, "test_c": None})
    _record(tmp_path / "BENCH_34.json", {"test_a": 0.5, "test_c": 0.8, "test_b": 1.0})
    heads, rows = _table(_run(*tmp_path.glob("BENCH_*.json")))
    assert heads == ["32:us", "33:ratio", "34:ratio", "product"]
    assert list(rows) == ["test_a", "test_c", "test_b", "test_gone"]  # the newest file's order first
    assert rows["test_a"] == ["10", "0.900", "0.500", "0.450"]
    assert rows["test_b"] == ["20", "1.020", "1.000", "1.020"]
    assert rows["test_c"] == ["-", "new", "0.800", "0.800"]  # its product starts where the parent has it
    assert rows["test_gone"] == ["5", "-", "-", "-"]
