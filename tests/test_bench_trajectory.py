import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*paths):
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / "bench_trajectory.py"), *map(str, paths)],
                          capture_output=True, text=True, check=True).stdout.splitlines()


def test_trajectory_reads_every_committed_bench_file():
    # the reader parses JSON only, so it runs on every committed file in
    # tier 1; every row of the newest file must come out with a number
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    out = _run()
    head, rows = out[0].split(), {line.split()[0].rstrip("~"): line.split()[1:] for line in out[1:]}
    assert [h.split(":")[0] for h in head[1:]] == [p.stem.split("_")[1] for p in files]
    for row in json.loads(files[-1].read_text(encoding="utf-8"))["benchmarks"]:
        assert float(rows[row["name"]][-1].rstrip("?")) > 0  # "?" marks a reversed sign


def test_trajectory_scales_by_each_files_rule(tmp_path):
    ref = {"core": {"ref_ns": 4000, "before_ns": 2000, "after_ns": 2000},
           "stream": {"ref_ns": 30000, "before_ns": 10000, "after_ns": 20000}}  # stream moved: warned
    rows = [{"name": "test_vm_run", "stats": {"min": 1e-6}, "extra_info": {"core_ns": 1000}},
            {"name": "test_lut_sincos_2e20_angles[linear]", "stats": {"min": 1e-3}, "extra_info": {"core_ns": 1000}}]
    files = []
    for n, info in [(3, {}), (16, {"speed_reference": ref})]:
        files.append(tmp_path / f"BENCH_{n}.json")
        files[-1].write_text(json.dumps({"machine_info": info, "benchmarks": [
            dict(r, extra_info={} if n == 16 else r["extra_info"]) for r in rows]}))
    (tmp_path / "BENCH_21.json").write_text(json.dumps({"machine_info": {"speed_reference": ref}, "benchmarks": rows}))
    out = _run(tmp_path / "BENCH_21.json", *files)
    assert out[0].split()[1:] == ["3:raw", "16:sess!", "21:row!"]
    # raw; the session's core mean; the row's own core_ns
    assert out[1].split() == ["test_vm_run~", "1", "2", "4"]
    # raw; the stream kernel's session mean in both later rules
    assert out[2].split() == ["test_lut_sincos_2e20_angles[linear]", "1000", "2000", "2000"]


def test_trajectory_marks_a_scaled_figure_that_moves_against_its_raw(tmp_path):
    # BENCH_21 -> BENCH_22's test_bench_chain12_cli: raw 954 -> 736 us, but
    # its core kernel read 4.44 -> 3.24 ms, so the scaled figure rose
    ref = {kind: {"ref_ns": 4_440_000, "before_ns": 4_000_000, "after_ns": 4_000_000} for kind in ("core", "stream")}
    minima = {21: {"test_bench_chain12_cli": (954e-6, 4_440_000), "test_vm_run": (10e-6, 4_440_000)},
              22: {"test_bench_chain12_cli": (736e-6, 3_240_000), "test_vm_run": (7e-6, 3_240_000),
                   "test_new_row": (5e-6, 3_240_000)}}
    for n, rows in minima.items():
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps({"machine_info": {"speed_reference": ref}, "benchmarks": [
            {"name": name, "stats": {"min": t}, "extra_info": {"core_ns": core}} for name, (t, core) in rows.items()]}))
    rows = {line.split()[0].rstrip("~"): line.split()[1:] for line in _run(*tmp_path.glob("BENCH_*.json"))[1:]}
    assert rows["test_bench_chain12_cli"] == ["954", "1009?"]  # raw fell, scaled rose
    assert rows["test_vm_run"] == ["10", "9.59"]  # both fell: no mark
    assert rows["test_new_row"] == ["-", "6.85"]  # nothing to compare with
