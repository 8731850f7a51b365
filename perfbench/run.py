#!/usr/bin/env python3
"""Run one fkemu benchmark workload and print its metrics.

    python3 perfbench/run.py --workload puma-bench --seed 1 --seconds 25 --trace 0

Run from the repository root; fkemu is imported from ``src/`` next to this
directory, never from an installed copy.  The last stdout line is the
result: ``{"correct", "attempted", "failed", "metrics"}``, where metrics are
the end-to-end host-time metrics with ``--trace 0`` and the per-layer ones
with ``--trace 1``.  End-to-end times are scaled to a reference machine
speed by a kernel timed beside each request (see calibrate.py).  The line
before the result is the full report: those metrics, the same ones as
measured (``host_raw``), simulated (``sim``) and accuracy (``acc``)
statistics kept apart, the output digest and the environment.  ``correct``
also requires sim, acc and digest to equal the fingerprint baseline.json
recorded for the seed, where it has one from the same numeric platform.  The traced
mode also writes its spans to ``perfbench/out/``.  Exits 2 when fkemu
cannot be imported.  See README.md.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads: the benchmark
# is one process, one thread, one client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline.json")
# the parts of the report a seed must repeat bit for bit, on every commit
# that leaves the emulated arithmetic alone
FINGERPRINT = ("sim", "acc", "digest")

WORKLOAD_NAMES = ("puma-bench", "chain12-bench", "thumb-vm", "lut-scan")
STARTUP_REPEATS = 9  # setup_s adds the median of this many interpreter start-ups
SETUP_REPEATS = 5  # to the median of this many in-process set-ups (warm-up included)
SPAN_CAP = 200_000  # the traced loop stops early rather than hold more spans
MAX_ERRORS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured run length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_commit(root: str) -> str:
    """HEAD's commit, or 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def numeric_platform(np) -> dict:
    """What bit-exact outputs depend on besides the code: the interpreter and
    numpy versions and the CPU features numpy and BLAS dispatch on, since
    their vector paths may round differently."""
    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, present in features.items() if present),
    }


def recorded_fingerprint(workload: str, seed: int, numeric: dict) -> dict | None:
    """The outputs baseline.json recorded for this workload and seed, if it
    has them and recorded them on the same numeric platform."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            entry = json.load(fh)["workloads"][workload]
        if entry["env"]["numeric_platform"] != numeric:
            return None
        return entry["fingerprints"][str(seed)]
    except (OSError, ValueError, KeyError):
        return None


class Tally:
    """Checks every output; keeps failures, the simulated statistics (which
    must repeat exactly), accuracy and the digest over one pool pass."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.sim = None
        self.acc_max: dict[str, float] = {}
        self.acc_sq: dict[str, float] = {}
        self.digest = hashlib.sha256()
        self.digested = 0

    def fail(self, k: int, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"request {k}: {msg}")

    def record(self, k: int, out, exc: BaseException | None = None) -> None:
        self.attempted += 1
        if exc is not None:
            self.fail(k, f"{type(exc).__name__}: {exc}")
            return
        try:
            sim, acc = self.wl.check(out, k)
        except Exception as e:  # a check failure or a malformed output
            self.fail(k, f"{type(e).__name__}: {e}")
            return
        if self.sim is None:
            self.sim = sim
        elif sim != self.sim:
            self.fail(k, f"simulated statistics moved: {sim} != {self.sim}")
            return
        if k == self.digested < self.wl.pool_size:
            self.digest.update(self.wl.digest_bytes(out))
            self.digested += 1
            for key, v in acc.items():
                if key.startswith("rms_err"):
                    self.acc_sq[key] = self.acc_sq.get(key, 0.0) + v * v
                else:
                    self.acc_max[key] = max(self.acc_max.get(key, 0.0), v)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.digested == self.wl.pool_size

    def sections(self) -> dict:
        acc = dict(self.acc_max)
        for key, sq in self.acc_sq.items():
            acc[key] = math.sqrt(sq / self.digested)
        return {
            "sim": {f"sim.{k}": v for k, v in sorted((self.sim or {}).items())},
            "acc": {f"acc.{k}": v for k, v in sorted(acc.items())},
            "digest": {"sha256": self.digest.hexdigest(), "requests": self.digested},
            "failed_frac": self.failed / self.attempted if self.attempted else 1.0,
            "errors": self.errors,
        }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, tally, cal, seconds: float) -> tuple[array.array, array.array, float, float]:
    """Closed loop, one client, untraced: request host times in ns, for each
    the index of the kernel run before it, and the median seconds, as
    measured and scaled, of STARTUP_REPEATS fresh interpreters started at
    even intervals over the run.  Start-ups are spread out so that, like the
    requests, they sample the machine's slow and fast phases."""
    raw, before, start_ups = array.array("q"), array.array("q"), []
    clock = time.perf_counter_ns
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while time.perf_counter() < deadline or k < wl.pool_size:
        if len(start_ups) < STARTUP_REPEATS and time.perf_counter() >= start + seconds * len(start_ups) / STARTUP_REPEATS:
            start_ups.append(time_start_up())
            cal.calibrate()
        before.append(cal.maybe_calibrate())
        exc = out = None
        t = clock()
        try:
            out = wl.request(k)
        except Exception as e:  # counted as a failed request
            exc = e
        raw.append(clock() - t)
        tally.record(k, out, exc)
        k += 1
    cal.calibrate()
    while len(start_ups) < STARTUP_REPEATS:
        start_ups.append(time_start_up())
    return raw, before, statistics.median(s for s, _ in start_ups), statistics.median(s for _, s in start_ups)


def timed_set_ups(cal, fn):
    """Call fn SETUP_REPEATS times, each between two kernel runs.  Returns
    the median seconds as measured and scaled to the reference speed, and
    the last call's result."""
    raw, ref = [], []
    before = cal.calibrate()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        result = fn()
        raw.append(time.perf_counter() - t)
        after = cal.calibrate()
        ref.append(cal.scale(raw[-1], before))
        before = after
    return statistics.median(raw), statistics.median(ref), result


def time_start_up() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import numpy and fkemu, as a
    user's ``fkemu`` command does: as measured, and scaled to the reference
    speed by the start-up kernel run right after it."""
    ns = calibrate.time_child("import numpy, fkemu.cli", env=dict(os.environ, PYTHONPATH=SRC))
    kernel_ns = calibrate.time_child(calibrate.START_UP_KERNEL)
    return ns / 1e9, ns * calibrate.START_UP_REF_NS / kernel_ns / 1e9


def end_to_end(wl, times_ns, setup_s: float) -> dict:
    """Set-up time, request percentiles and throughput from one list of
    request times."""
    us = [t / 1e3 for t in times_ns]
    p95 = statistics.quantiles(us, n=100, method="inclusive")[94] if len(us) > 1 else us[0]
    return {
        "setup_s": _metric(setup_s, "s"),
        "request_us.p50": _metric(statistics.median(us), "us"),
        "request_us.p95": _metric(p95, "us"),
        "items_per_s": _metric(wl.items_per_request * len(us) / (sum(times_ns) / 1e9), "1/s"),
    }


def measure_traced(wl, tally, tracer, seconds: float) -> tuple[int, int, int]:
    """Each input runs untraced (timed), under spans (timed), then under the
    counters (untimed); all three outputs must be identical.  Returns the
    request count and the untraced and span-traced ns."""
    clock = time.perf_counter_ns
    plain_ns = traced_ns = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while (time.perf_counter() < deadline or k < wl.pool_size) and tracer.span_count < SPAN_CAP:
        try:
            t = clock()
            out = wl.request(k)
            t1 = clock()
            with tracer.spans():
                out_spans = wl.request(k)
            t2 = clock()
            with tracer.counting():
                out_counts = wl.request(k)
        except Exception as e:  # counted as a failed request
            tally.record(k, None, e)
        else:
            plain_ns += t1 - t
            traced_ns += t2 - t1
            ref = wl.digest_bytes(out)
            if wl.digest_bytes(out_spans) != ref or wl.digest_bytes(out_counts) != ref:
                tally.record(k, None, RuntimeError("traced output differs from untraced output"))
            else:
                tally.record(k, out)
        k += 1
    return k, plain_ns, traced_ns


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import numpy as np
        import fkemu
        import tracing
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import fkemu from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(fkemu.__file__).startswith(SRC + os.sep):
        print(f"perfbench: fkemu came from {fkemu.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUTDIR, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    cal = calibrate.Calibrator(cls.calibration)

    def set_up():
        wl = cls(args.seed, OUTDIR)
        return wl, wl.request(0)  # the warm-up request

    setup_raw, setup_ref, (wl, warm) = timed_set_ups(cal, set_up)
    tally = Tally(wl)
    tally.record(0, warm)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    if args.trace:
        tracer = tracing.Tracer()
        n_req, plain_ns, traced_ns = measure_traced(wl, tally, tracer, args.seconds)
        layers = tracer.layer_metrics(n_req, n_req * wl.poses_per_request, plain_ns, traced_ns)
        metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
        spans_path = os.path.join(OUTDIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        report.update(traced_requests=n_req, spans=tracer.span_count,
                      spans_file=os.path.relpath(spans_path, ROOT), layers=metrics)
    else:
        raw, before, startup_raw, startup_ref = measure(wl, tally, cal, args.seconds)
        # read before the statistics below allocate per-sample lists
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        ref = [cal.scale(t, b) for t, b in zip(raw, before)]
        metrics = end_to_end(wl, ref, startup_ref + setup_ref)
        metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
        host = dict(metrics)
        host[wl.items_name] = metrics["items_per_s"]
        report.update(
            samples=len(raw),
            host=host,
            host_raw=end_to_end(wl, raw, startup_raw + setup_raw),
            setup={"start_up_s": startup_ref, "start_up_raw_s": startup_raw,
                   "in_process_s": setup_ref, "in_process_raw_s": setup_raw},
            calibration={
                "kernel": cls.calibration,
                "ref_ms": cal.ref_ns / 1e6,
                "kernel_ms.p50": statistics.median(cal.kernel_ns) / 1e6,
                "runs": len(cal.kernel_ns),
            },
        )
    report.update(tally.sections())
    numeric = numeric_platform(np)
    recorded = recorded_fingerprint(args.workload, args.seed, numeric)
    report["matches_baseline"] = None if recorded is None else all(report[k] == recorded[k] for k in FINGERPRINT)
    correct = tally.correct and report["matches_baseline"] is not False
    if report["matches_baseline"] is False:
        report["errors"].append(f"sim, acc or digest differ from {os.path.relpath(BASELINE, ROOT)} for this seed")
    report["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "numeric_platform": numeric,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
