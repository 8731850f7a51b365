import sys
import time
from pathlib import Path

import pytest

# perfbench's speed-reference kernels, imported as they are: they never touch fkemu
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import calibrate  # noqa: E402
from bench_trajectory import MOVED  # noqa: E402  the reader that flags such sessions

RUNS = {"core": 40, "stream": 20}  # ~0.2 s and ~0.6 s per timing on a 2-vCPU Xeon VM
ROW_RUNS = 5  # core kernel runs just before and just after each row: ~50 ms a row
BEFORE_NS = pytest.StashKey[dict]()  # kernel times at session start, on the config
AFTER_NS = pytest.StashKey[dict]()  # and at session end, taken once


def _kernel_ns(kind, runs=None):
    """Fastest time of one calibrate kernel over runs (RUNS[kind] by default)
    runs, in ns: a minimum, as the rows' own figure is."""
    kernel, _ = calibrate.KERNELS[kind]
    kernel()  # first call pays numpy's lazy set-up
    fastest = float("inf")
    for _ in range(runs or RUNS[kind]):
        t = time.perf_counter_ns()
        kernel()
        fastest = min(fastest, time.perf_counter_ns() - t)
    return fastest


def _after_ns(config):
    if AFTER_NS not in config.stash:
        config.stash[AFTER_NS] = {kind: _kernel_ns(kind) for kind in RUNS}
    return config.stash[AFTER_NS]


def pytest_sessionstart(session):
    config = session.config
    if not config.getoption("benchmark_disable") or config.getoption("benchmark_enable"):
        config.stash[BEFORE_NS] = {kind: _kernel_ns(kind) for kind in RUNS}


@pytest.fixture(autouse=True)
def _row_speed_reference(request):
    """The speed a row ran at: the core kernel's fastest of ROW_RUNS runs
    just before and ROW_RUNS just after it, in the row's extra_info["core_ns"].
    The box's speed can move within the ~20 s between the session's own
    before and after timings; a dispatch-bound row scales by this instead."""
    if "benchmark" not in request.fixturenames or BEFORE_NS not in request.config.stash:
        yield
        return
    bench = request.getfixturevalue("benchmark")
    before = _kernel_ns("core", ROW_RUNS)
    yield
    bench.extra_info["core_ns"] = min(before, _kernel_ns("core", ROW_RUNS))


def pytest_benchmark_update_machine_info(config, machine_info):
    # the host name says nothing about speed; keep the saved JSON free of it
    machine_info.pop("node", None)
    # the speed the session ran at, before and after, against calibrate's reference
    before, after = config.stash.get(BEFORE_NS, {}), _after_ns(config)
    machine_info["speed_reference"] = {
        kind: {
            "ref_ns": calibrate.KERNELS[kind][1],
            "before_ns": before.get(kind),
            "after_ns": after[kind],
            "ratio": after[kind] / before[kind] if kind in before else None,
        }
        for kind in RUNS
    }


def pytest_terminal_summary(terminalreporter, config):
    before = config.stash.get(BEFORE_NS, None)
    if before is None:
        return
    after = _after_ns(config)
    moved = [f"{kind} x{after[kind] / before[kind]:.2f}" for kind in RUNS if abs(after[kind] / before[kind] - 1) > MOVED]
    if moved:
        terminalreporter.write_line(
            f"WARNING: the speed reference moved by over {MOVED:.0%} during this session ({', '.join(moved)}): drop it"
        )


def pytest_benchmark_update_json(config, benchmarks, output_json):
    # keep the summary statistics, not every round's time: a BENCH_*.json is
    # committed, and the raw rounds would make it megabytes
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
