"""Reference kernels that put host times on one speed scale.

The benchmark runs on a shared 2-vCPU machine whose speed drifts: with the
same code, request times move by up to 2x over a few seconds as other
tenants come and go, and thread CPU time moves with them, so the loss is
in per-cycle throughput, not in scheduling.  Medians over a run cannot
remove a slow phase that lasts the whole run.

So the runner times a fixed kernel in the same process before a request
(at most every ``INTERVAL_S``) and scales the request's host time by
``ref / mean(kernel time before, kernel time after)``.  The kernels never
touch fkemu and are not modelled on it, so a change to fkemu moves only the
request time; a slow phase of the machine moves both.  A change that loaded
the machine itself, say with a busy background thread, would be partly
scaled away; the raw times the runner also reports would still show it.

The machine slows down along two axes that do not move together: work whose
data fits in the core's caches (interpreted Python, numpy calls on small
arrays) can lose up to 2x while work that streams tens of MB through memory
barely moves, and a kernel of one kind leaves the other kind's spread
several times wider than its own kernel does.  So there are two kernels,
and a workload is paired with one by the size of the data it must touch,
which its definition fixes and no implementation of fkemu can change:

- ``core``: plain Python on small objects, dicts and lists, plus numpy
  calls on 64-element arrays; its data fits in L1.  For the workloads whose
  inputs and outputs are a few poses: puma-bench, chain12-bench, thumb-vm.
  Batching them into numpy (ROADMAP item 3) keeps their arrays small, so
  they stay in this class.
- ``stream``: arithmetic, a gather and reductions over 2**20-element
  arrays, about 40 MB; for lut-scan, which must read 8 MB of angles and
  write 32 MB of results whatever the implementation.

``ref`` is each kernel's median time over 200 runs, as ``python3
perfbench/calibrate.py`` prints it, measured once on the machine the
benchmark was defined on: a shared 2-vCPU Intel Xeon VM, Python 3.11.7,
numpy 2.4.6.  On that machine the figure itself moves by tens of percent
between invocations, so it only sets the scale in which corrected times
read; parent and change share it, so comparisons do not depend on it.
"""

from __future__ import annotations

import array
import functools
import math
import statistics
import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.05
STREAM_N = 1 << 20
SMALL_N = 64


class _Rec:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _step(r: _Rec, i: int) -> _Rec:
    return _Rec(r.b, (r.a + 31 * r.b + i) & 0xFFFFFFFF)


@functools.cache
def _core_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    return rng.integers(0, 1 << 30, SMALL_N), rng.uniform(-1.0, 1.0, (8, 8))


def core_kernel(reps: int = 2500) -> float:
    """Object, dict, list and float traffic in the interpreter, then numpy
    calls on arrays small enough to stay in L1."""
    r, counts, xs, f = _Rec(1, 2), {}, [], 0.0
    for i in range(reps):
        r = _step(r, i)
        key = r.b & 1023
        counts[key] = counts.get(key, 0) + 1
        xs.append(r.a % 97)
        f += math.sqrt(r.b + 1.0)
    xs.sort()
    ints, m = _core_inputs()
    a, b = ints, ints[::-1].copy()
    for _ in range(150):
        a = (a * 3 + b) & 0xFFFFFFFF
        b = np.where(a > b, a >> 2, b ^ a)
        m = m @ m * 0.125
    return f + sum(xs) + len(counts) + float(b.sum()) + float(m[0, 0])


@functools.cache
def _stream_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    return rng.uniform(-1.0, 1.0, STREAM_N), rng.uniform(-1.0, 1.0, 1 << 16)


def stream_kernel() -> float:
    """Elementwise arithmetic, a table gather and reductions over arrays
    far larger than the core's caches."""
    x, table = _stream_inputs()
    y = x * 1.5 + 0.25
    idx = (np.abs(y) * 32768.0).astype(np.int64) & 0xFFFF
    v = table[idx]
    return float(np.where(x < 0, -v, v).sum() + y.sum())


# kind -> (kernel, reference time in ns): the medians ``main`` printed on
# 2026-10-17 on the machine the module docstring names
KERNELS = {
    "core": (core_kernel, 4_617_000),
    "stream": (stream_kernel, 29_104_000),
}


# A fresh interpreter importing a fixed set of standard-library modules: the
# reference for interpreter start-up, which a kernel timed inside the running
# process does not track; its reference time is the median over 50 runs that
# ``main`` printed on the day and machine of KERNELS' figures.
START_UP_KERNEL = "import argparse, dataclasses, decimal, email.parser, fractions, json, typing, unittest"
START_UP_REF_NS = 135_313_000


def time_child(code: str, env: dict | None = None) -> int:
    """Nanoseconds a fresh interpreter takes to run ``code`` and exit."""
    t = time.perf_counter_ns()
    # no timeout: with one, subprocess polls the child every 50 ms and the
    # measured time rounds up to that grid
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter_ns() - t


class Calibrator:
    """Times one kernel, and scales host times measured between two kernel
    runs by ref / (mean of those two kernel times)."""

    def __init__(self, kind: str) -> None:
        self.kernel, self.ref_ns = KERNELS[kind]
        self.kernel()  # first call pays numpy's lazy set-up
        self.kernel_ns = array.array("q")
        self.last = -math.inf

    def calibrate(self) -> int:
        """Run the kernel; returns the index of this run."""
        t = time.perf_counter_ns()
        self.kernel()
        self.kernel_ns.append(time.perf_counter_ns() - t)
        self.last = time.perf_counter()
        return len(self.kernel_ns) - 1

    def maybe_calibrate(self) -> int:
        """Calibrate if INTERVAL_S has passed; the index of the latest run."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            return self.calibrate()
        return len(self.kernel_ns) - 1

    def scale(self, ns: float, before: int) -> float:
        """ns measured after kernel run ``before`` and before the next one."""
        k = self.kernel_ns
        return ns * 2 * self.ref_ns / (k[before] + k[before + 1])


def _timed(fn) -> int:
    t = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t


def main() -> None:
    """Print each kernel's median time over 200 runs (50 for the start-up
    kernel), the figure its ``ref`` is set from."""
    kernels = {kind: (kernel, ref_ns, 200) for kind, (kernel, ref_ns) in KERNELS.items()}
    kernels["start-up"] = (functools.partial(time_child, START_UP_KERNEL), START_UP_REF_NS, 50)
    for kind, (kernel, ref_ns, runs) in kernels.items():
        kernel()
        times = [_timed(kernel) for _ in range(runs)]
        print(f"{kind}: median {statistics.median(times) / 1e6:.3f} ms over {runs} runs "
              f"(min {min(times) / 1e6:.3f}, ref {ref_ns / 1e6:.3f})")


if __name__ == "__main__":
    main()
