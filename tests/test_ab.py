import contextlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"request_us.p50": "lower", "items_per_s": "higher"}


def _stdout(p50, items, correct=True, digest="d0", sim=None):
    """perfbench/run.py's last lines: some log, the report, the result."""
    report = {"sim": sim or {"sim.ops": 1}, "acc": {"acc.max": 0.5}, "digest": {"sha256": digest, "requests": 8},
              "errors": [] if correct else ["request 3: boom"]}
    metrics = {"request_us.p50": {"value": p50, "unit": "us"}, "items_per_s": {"value": items, "unit": "1/s"},
               "other": {"value": 1.0, "unit": "x"}}
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": metrics}
    return "warming up\n" + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def _pairs(rows, **change):
    return [(ab.parse_run(_stdout(p, pi)), ab.parse_run(_stdout(c, ci, **change))) for p, pi, c, ci in rows]


def test_summary_gives_ratios_medians_quartiles_and_pairs_won():
    pairs = _pairs([(100.0, 10.0, 90.0, 11.0), (200.0, 20.0, 190.0, 19.0), (110.0, 11.0, 121.0, 12.1)])
    lines = ab.summarize(pairs, BETTER)
    assert lines[0] == "request_us.p50 (us, lower is better)"
    assert lines[1] == "  ratios: 0.900 0.950 1.100"
    assert lines[2] == "  parent: median 110, quartiles 105-155"
    assert lines[3] == "  change: median 121, quartiles 105.5-155.5"
    assert lines[4] == "  median ratio 0.950 (quartiles 0.925-1.025), change better in 2 of 3 pairs"
    # higher is better: 11 > 10 and 12.1 > 11 win, 19 < 20 loses
    assert lines[5] == "items_per_s (1/s, higher is better)"
    assert lines[9].endswith("change better in 2 of 3 pairs")
    assert not any(line.startswith("other") for line in lines)  # not an end-to-end metric


def test_one_pair_has_its_own_value_as_every_quartile():
    lines = ab.summarize(_pairs([(100.0, 10.0, 80.0, 12.0)]), BETTER)
    assert lines[2] == "  parent: median 100, quartiles 100-100"
    assert lines[4] == "  median ratio 0.800 (quartiles 0.800-0.800), change better in 1 of 1 pairs"


def test_problems_name_incorrect_runs_and_moved_bits():
    assert ab.problems(_pairs([(1.0, 1.0, 1.0, 1.0)]), bits_change=False) == []
    (found,) = ab.problems(_pairs([(1.0, 1.0, 1.0, 1.0)], correct=False), bits_change=False)
    assert found.startswith("pair 0 change: not correct")
    moved = _pairs([(1.0, 1.0, 1.0, 1.0)] * 2, digest="d1")
    assert [f.split(":")[0:2] for f in ab.problems(moved, bits_change=False)] == [
        ["pair 0", " digest differs"], ["pair 1", " digest differs"]]
    assert ab.problems(moved, bits_change=True) == []
    assert "sim differs" in ab.problems(_pairs([(1.0, 1.0, 1.0, 1.0)], sim={"sim.ops": 2}), bits_change=False)[0]


def test_parse_run_needs_a_report_and_a_result():
    with pytest.raises(ValueError):
        ab.parse_run('{"correct": true}\n')


def test_directions_come_from_benchmark_json():
    better = ab.directions()
    assert better["request_us.p50"] == "lower" and better["items_per_s"] == "higher"


def _bench_json(minima_us):
    """A pytest --benchmark-json document: one row per name, its minimum in seconds."""
    rows = [{"name": name, "stats": {"min": us * 1e-6, "mean": 2 * us * 1e-6}} for name, us in minima_us.items()]
    return {"machine_info": {}, "benchmarks": rows}


def test_row_minima_read_microseconds_by_row_name():
    got = ab.row_minima(_bench_json({"test_a": 12.5, "test_b[linear]": 40.0}))
    assert got == pytest.approx({"test_a": 12.5, "test_b[linear]": 40.0})


def test_rows_summary_gives_minima_ratios_and_pairs_won():
    sides = [({"test_a": 10.0, "test_b": 100.0}, {"test_a": 8.0, "test_b": 110.0}),
             ({"test_a": 12.0, "test_b": 100.0}, {"test_a": 9.0, "test_b": 90.0})]
    pairs = [(ab.row_minima(_bench_json(p)), ab.row_minima(_bench_json(c))) for p, c in sides]
    lines = ab.summarize_rows(pairs, ["test_b", "test_a"])
    assert lines[:5] == [
        "test_b (us, minimum of each run, lower is better)",
        "  parent: 100 100",
        "  change: 110 90",
        "  ratios: 1.100 0.900",
        "  median ratio 1.000 (quartiles 0.950-1.050), change better in 1 of 2 pairs",
    ]
    assert lines[5] == "test_a (us, minimum of each run, lower is better)"
    assert lines[8] == "  ratios: 0.800 0.750"
    assert lines[9].endswith("change better in 2 of 2 pairs")


ROW_PAIRS = [({"test_a": 10.0, "test_b": 100.0}, {"test_a": 8.0, "test_b": 110.0, "test_c": 5.0}),
             ({"test_a": 12.0, "test_b": 100.0}, {"test_a": 9.0, "test_b": 90.0, "test_c": 6.0}),
             ({"test_a": 10.0, "test_b": 100.0, "test_c": 5.0}, {"test_a": 11.0, "test_b": 95.0, "test_c": 5.5})]


def test_record_holds_each_rows_ratios_pairs_and_change_minima():
    got = ab.record(ROW_PAIRS, ["test_a", "test_b", "test_c"], "3ad875fdb134")
    assert json.loads(json.dumps(got)) == got  # one JSON line as it stands
    assert got["parent"] == "3ad875fdb134"
    # ratios 0.8, 0.75, 1.1: the median and inclusive quartiles; the change won two pairs
    assert got["rows"]["test_a"] == {"ratio": 0.8, "quartiles": [0.775, 0.95], "won": 2, "pairs": 3,
                                     "change_us": [8.0, 9.0, 11.0]}
    assert got["rows"]["test_b"]["ratio"] == 0.95 and got["rows"]["test_b"]["won"] == 2
    # the parent timed test_c in one pair of three: it cannot run it
    assert got["rows"]["test_c"] == {"new": True, "change_us": [5.0, 6.0, 5.5]}


def test_a_row_the_parent_cannot_run_is_new_in_the_summary():
    lines = ab.summarize_rows(ROW_PAIRS, ["test_c"])
    assert lines == ["test_c (us, minimum of each run, lower is better)",
                     "  new: the parent cannot run it",
                     "  change: 5 6 5.5"]


def test_pairs_alternate_the_side_that_runs_first():
    calls = []
    pairs = ab._pairs(3, {"parent": "P", "change": "C"}, lambda name, tree, k: calls.append((k, tree)) or f"{tree}{k}")
    assert calls == [(0, "P"), (0, "C"), (1, "C"), (1, "P"), (2, "P"), (2, "C")]
    assert pairs == [("P0", "C0"), ("P1", "C1"), ("P2", "C2")]


def test_rows_run_times_every_row_and_leaves_out_what_the_parent_cannot_run(tmp_path):
    # a rows file with no row named: every row that passes is timed; the
    # parent side drops a row that fails there, the change side stops on it
    rows_file = tmp_path / "test_rows.py"
    # py-cpuinfo's machine probe takes ~1 s a run; these runs need no machine info
    (tmp_path / "conftest.py").write_text("def pytest_benchmark_generate_machine_info(config):\n    return {}\n")
    once = "    benchmark.pedantic(int, rounds=1)\n"  # one round: no calibration
    rows_file.write_text(f"def test_fast(benchmark):\n{once}\n"
                         f"def test_fails(benchmark):\n{once}    assert False\n\n"
                         "def test_errors(benchmark):\n    raise ImportError\n")
    got = ab._run_rows(tmp_path, rows_file, [], tmp_path / "out.json", must_pass=False)
    assert list(got) == ["test_fast"] and got["test_fast"] > 0
    with pytest.raises(SystemExit) as e:
        ab._run_rows(tmp_path, rows_file, ["test_fast", "test_fails"], tmp_path / "out.json", must_pass=True)
    assert e.value.code == 2


def test_snapshot_takes_untracked_files_and_leaves_ignored_ones(tmp_path):
    tree, snap = tmp_path / "tree", tmp_path / "snap"
    (tree / "src" / "__pycache__").mkdir(parents=True)
    for name, text in [(".gitignore", "__pycache__/\n"), ("src/tracked.py", ""), ("src/deleted.py", "")]:
        (tree / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=tree, check=True)
    subprocess.run(["git", "add", "."], cwd=tree, check=True)
    (tree / "src" / "deleted.py").unlink()
    for name in ("src/new.py", "src/__pycache__/tracked.cpython-311.pyc"):
        (tree / name).write_text("")
    ab._snapshot(tree, snap)
    files = sorted(p.relative_to(snap).as_posix() for p in snap.rglob("*"))
    assert files == [".gitignore", "src", "src/new.py", "src/tracked.py"]


def test_rows_and_workload_exclude_each_other():
    with pytest.raises(SystemExit):
        ab.main(["HEAD", "--workload", "thumb-vm", "--rows", "test_vm_run"])
    with pytest.raises(SystemExit):
        ab.main(["HEAD"])


def test_a_run_with_no_result_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        ab.fail("ab: tree: run.py exited 1 with no result")
    assert e.value.code == 2
    assert capsys.readouterr().err == "ab: tree: run.py exited 1 with no result\n"


def _children(pid):
    """The child pids of pid, from /proc: every thread's children file."""
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        found += (task / "children").read_text().split()
    return [int(c) for c in found]


@pytest.mark.skipif(not Path("/proc/thread-self/children").exists() or not (ROOT / ".git").exists(),
                    reason="reads child pids from /proc and clones this repository's HEAD")
def test_sigterm_kills_the_running_child_and_removes_the_clone(tmp_path):
    # a null run of a clone of HEAD: ab.py waits on its perfbench/run.py
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "benchmarks" / "ab.py"), "HEAD", "HEAD", "--null",
         "--workload", "thumb-vm", "--pairs", "1", "--seconds", "60"],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)}, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    child = None
    try:
        deadline = time.monotonic() + 30
        while child is None and time.monotonic() < deadline and proc.poll() is None:
            with contextlib.suppress(OSError):  # a process may end while it is read
                for pid in _children(proc.pid):
                    if b"perfbench/run.py" in Path(f"/proc/{pid}/cmdline").read_bytes():
                        child = pid
            time.sleep(0.05)
        assert child is not None, proc.stderr.read() if proc.poll() is not None else "no run.py started"
        assert list(tmp_path.glob("fkemu-ab-*"))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert not Path(f"/proc/{child}").exists()  # killed, and reaped by ab.py
        assert list(tmp_path.glob("fkemu-ab-*")) == []
    finally:
        proc.kill()
        proc.wait()
        if child is not None:  # a run.py that outlived ab.py would run on for a minute
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
