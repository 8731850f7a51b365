"""Spans and counters patched onto fkemu's public functions from outside the
package, for the benchmark's traced mode.

The package imports names with ``from .x import y``, so a function lives
under its name in every module that imports it.  Each wrapper replaces the
original in every ``fkemu`` module namespace that holds it, the defining
module included, and ``uninstall`` puts the originals back.

Two instrument sets are kept apart, because a counter on a 1 us fixed-point
call would swamp the span times around it:

* spans time the layer functions below (name, start, end, parent);
* counters count calls into ``fkemu.fixedpoint`` from the other modules,
  results sitting at a format's min/max raw value (saturations), and
  CORDIC micro-rotations.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

import numpy as np

# (span name, defining module, function name)
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli._taylor_pose", "cli", "_taylor_pose"),
    ("ccm.ccm_pose", "ccm", "ccm_pose"),
    ("ccm.ccm_transform", "ccm", "ccm_transform"),
    ("cordic.circ_rotate", "cordic", "circ_rotate"),
    ("cordic.cordic_rotate", "cordic", "cordic_rotate"),
    ("taylor.taylor_sincos", "taylor", "taylor_sincos"),
    ("lut.lut_sincos", "lut", "lut_sincos"),
    ("lut.lut_fk_pose", "lut", "lut_fk_pose"),
    ("dh.chain_pose", "dh", "chain_pose"),
    ("dh.link_transform", "dh", "link_transform"),
    ("dh.link_from_trig", "dh", "link_from_trig"),
    ("umdh.vm_run", "umdh", "vm_run"),
    ("umdh.naive", "umdh", "umdh_t04_naive"),
)

# Pose functions whose self time (the chain product, without the trig and
# link-assembly children) is reported as dh.product.self_s.
PRODUCT_SPANS = ("dh.chain_pose", "lut.lut_fk_pose", "cli._taylor_pose")

# lut_sincos on an array is the lut-scan path; it gets its own span name so
# the scalar calls inside poses stay separate.
ARRAY_SUFFIX = ".array"


def _fkemu_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "fkemu" or name.startswith("fkemu.")]


def _module(short: str):
    return sys.modules[f"fkemu.{short}"]


class _Patch:
    """Wrappers for a set of originals, and every place each one is bound."""

    def __init__(self, wrappers: dict, skip=None) -> None:
        self.sites = []
        for mod in _fkemu_modules():
            if mod is skip:
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    self.sites.append((mod, attr, value, wrapper[1]))

    def install(self) -> None:
        for mod, attr, _orig, wrapped in self.sites:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig, _wrapped in self.sites:
            setattr(mod, attr, orig)


class Tracer:
    """In-memory spans and counts; ``spans`` and ``counting`` are context
    managers that patch one instrument set in for the duration of a call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        span_wrappers = {}
        for name, short, attr in SPANS:
            # a function a refactor has removed is skipped; its metrics read 0
            fn = getattr(_module(short), attr, None)
            if fn is not None:
                span_wrappers[id(fn)] = (fn, self._span(name, fn))
        self._span_patch = _Patch(span_wrappers)
        fixedpoint = _module("fixedpoint")
        count_wrappers = {}
        for attr, fn in vars(fixedpoint).items():
            if attr.startswith(("fx_", "acc_")) and callable(fn):
                count_wrappers[id(fn)] = (fn, self._fixed_counter(fn))
        step = _module("cordic").cordic_step
        count_wrappers[id(step)] = (step, self._counter("cordic.steps", step))
        # fixedpoint's own internal calls (fx_mul -> acc_from_mul) are not
        # layer-boundary calls; patching the other modules only skips them.
        self._count_patch = _Patch(count_wrappers, skip=fixedpoint)

    # -- instruments -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, name: str, fn):
        name_ids = self.name_ids
        starts, ends, parents, stack = self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter_ns
        scalar_id = self._name_id(name)
        array_id = self._name_id(name + ARRAY_SUFFIX) if name == "lut.lut_sincos" else None
        counts = self.counts

        def wrapped(*args, **kwargs):
            nid = scalar_id
            if array_id is not None and np.ndim(args[0]) > 0:
                nid = array_id
                counts["lut.angles"] += np.size(args[0])
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _fixed_counter(self, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["fixedpoint.calls"] += 1
            fmt = getattr(out, "fmt", None)
            if fmt is not None:
                if out.raw == fmt.max_raw or out.raw == fmt.min_raw:
                    counts["fixedpoint.saturations"] += 1
            elif hasattr(out, "acc_bits"):
                hi = (1 << (out.acc_bits - 1)) - 1
                if out.raw == hi or out.raw == -hi - 1:
                    counts["fixedpoint.saturations"] += 1
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def spans(self):
        return _installed(self._span_patch)

    def counting(self):
        return _installed(self._count_patch)

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy ns (sum of durations) and self ns
        (duration minus the time covered by direct children)."""
        if not self.starts:
            return {}
        starts = np.asarray(self.starts, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.int64) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        ids = np.asarray(self.name_ids, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {
                "calls": int(sel.sum()),
                "busy_ns": int(dur[sel].sum()),
                "self_ns": int(own[sel].sum()),
            }
        return out

    def layer_metrics(self, n_req: int, poses: int, plain_ns: int, traced_ns: int) -> dict:
        """Per-layer (value, unit), each per traced request unless named
        otherwise; ``poses`` is the graded poses over those requests and the
        two times are the untraced and span-traced totals."""
        spans = self.summary()
        counts = self.counts

        def stat(name, field):
            return spans.get(name, {}).get(field, 0)

        def per_req_s(ns):
            return ns / n_req / 1e9

        angles = counts.get("lut.angles", 0)
        array_ns = stat("lut.lut_sincos" + ARRAY_SUFFIX, "busy_ns")
        return {
            "fixedpoint.calls_per_pose": (counts["fixedpoint.calls"] / poses if poses else 0.0, "count"),
            "fixedpoint.saturations": (counts["fixedpoint.saturations"] / n_req, "count"),
            "cordic.circ_rotate.calls": (stat("cordic.circ_rotate", "calls") / n_req, "count"),
            "cordic.circ_rotate.self_s": (per_req_s(stat("cordic.circ_rotate", "self_ns")), "s"),
            "cordic.cordic_rotate.self_s": (per_req_s(stat("cordic.cordic_rotate", "self_ns")), "s"),
            "cordic.steps": (counts["cordic.steps"] / n_req, "count"),
            "ccm.ccm_transform.calls": (stat("ccm.ccm_transform", "calls") / n_req, "count"),
            "ccm.ccm_transform.self_s": (per_req_s(stat("ccm.ccm_transform", "self_ns")), "s"),
            "ccm.ccm_pose.busy_s": (per_req_s(stat("ccm.ccm_pose", "busy_ns")), "s"),
            "taylor.taylor_sincos.calls": (stat("taylor.taylor_sincos", "calls") / n_req, "count"),
            "taylor.taylor_sincos.busy_s": (per_req_s(stat("taylor.taylor_sincos", "busy_ns")), "s"),
            "lut.lut_sincos.calls": (stat("lut.lut_sincos", "calls") / n_req, "count"),
            "lut.lut_sincos.busy_s": (per_req_s(stat("lut.lut_sincos", "busy_ns")), "s"),
            "lut.ns_per_angle": (array_ns / angles if angles else 0.0, "ns"),
            "dh.link_from_trig.calls": (stat("dh.link_from_trig", "calls") / n_req, "count"),
            "dh.link_from_trig.busy_s": (per_req_s(stat("dh.link_from_trig", "busy_ns")), "s"),
            "dh.chain_pose.busy_s": (per_req_s(stat("dh.chain_pose", "busy_ns")), "s"),
            "dh.product.self_s": (per_req_s(sum(stat(name, "self_ns") for name in PRODUCT_SPANS)), "s"),
            "umdh.vm_run.self_s": (per_req_s(stat("umdh.vm_run", "self_ns")), "s"),
            "umdh.naive.busy_s": (per_req_s(stat("umdh.naive", "busy_ns")), "s"),
            "cli.main.self_s": (per_req_s(stat("cli.main", "self_ns")), "s"),
            "trace.overhead_frac": (traced_ns / plain_ns - 1.0, "ratio"),
        }

    def write(self, path: str) -> None:
        """Spans as columns (ns from the first span start) plus the counts."""
        t0 = self.starts[0] if self.starts else 0
        doc = {
            "names": self.names,
            "span_name": self.name_ids,
            "start_ns": [s - t0 for s in self.starts],
            "end_ns": [e - t0 for e in self.ends],
            "parent": self.parents,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


@contextlib.contextmanager
def _installed(patch: _Patch):
    patch.install()
    try:
        yield
    finally:
        patch.uninstall()
