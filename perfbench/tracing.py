"""Span tracing of qtricycle's public functions, installed from outside.

Each traced function is replaced on its module by a wrapper, so calls
between modules of the package (``optimize._principal_or_none`` ->
``solve_time_allocation``, ``cycle`` -> ``thermo.sigma_coefficient``,
``oracle._generator`` -> ``lindblad.liouvillian``) are seen as well as the
benchmark's own calls.  No private helper is wrapped and no file of the
program is edited.

A span is (op, span id, parent span id, name, start, end, status, attrs).
Spans stay in memory until :meth:`Tracer.write`.  ``lindblad.liouvillian``
runs three times per RK4 step, so it is counted instead of spanned; its
time stays in the self time of the span that calls it.
"""

from __future__ import annotations

import csv
import functools
import json
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs that get a span.
SPANNED = (
    ("cli", "parse_config"),
    ("cli", "run"),
    ("cli", "emit_report"),
    ("cycle", "cycle_coefficients"),
    ("cycle", "evaluate_cycle"),
    ("cycle", "zeroth_heat_sum"),
    ("cycle", "zeroth_heat_sum_curve"),
    ("cycle", "reversible_amplitude"),
    ("thermo", "gauss_legendre_adaptive"),
    ("thermo", "sigma_coefficient"),
    ("thermo", "branch_heat"),
    ("thermo", "perturbed_state"),
    ("thermo", "ts_trajectory"),
    ("optimize", "solve_time_allocation"),
    ("optimize", "optimal_curve"),
    ("optimize", "max_cooling_rate"),
    ("optimize", "max_figure_of_merit"),
    ("optimize", "free_time_sweep"),
    ("oracle", "propagate"),
    ("oracle", "heat_via_trajectory"),
)
COUNTED = (("lindblad", "liouvillian"),)


def _allocation_attrs(result):
    best = result[0].metrics
    return {"roots": len(result), "useful": int(bool(best.valid) and best.cold.Q > 0.0)}


# Counters read off a traced call's return value.
RESULT_ATTRS = {
    "optimize.solve_time_allocation": _allocation_attrs,
    "optimize.optimal_curve": lambda result: {"skipped": len(result.skipped)},
    "oracle.propagate": lambda result: {"steps": len(result.times) - 1},
    "cli.emit_report": lambda result: {"bytes": len(result.encode())},
}


class Tracer:
    """Installs wrappers on the package modules and records spans."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in
                        {m for m, _ in SPANNED + COUNTED}}
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._saved = []

    def install(self):
        for mod, fn in SPANNED:
            self._replace(mod, fn, self._spanning)
        for mod, fn in COUNTED:
            self._replace(mod, fn, self._counting)

    def remove(self):
        for module, fn, original in reversed(self._saved):
            setattr(module, fn, original)
        self._saved.clear()

    def _replace(self, mod, fn, make):
        module = self.modules[mod]
        original = getattr(module, fn)
        self._saved.append((module, fn, original))
        setattr(module, fn, make(f"{mod}.{fn}", original))

    def open_op(self, op_id):
        """Start the root span of one op; returns the handle close_op takes."""
        self.op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def close_op(self, handle, status):
        sid, start = handle
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (self.op, sid, -1, "op", start, end, status, {})

    def _counting(self, name, original):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def _spanning(self, name, original):
        tracer = self
        attrs_of = RESULT_ATTRS.get(name)
        counts_points = name == "thermo.gauss_legendre_adaptive"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            attrs = {}
            if counts_points:
                args = (_count_points(args[0], attrs),) + args[1:]
            status = "ok"
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(result))
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (tracer.op, sid, parent, name, start, end, status, attrs)
        return wrapper

    def write(self, path):
        """Write every recorded span as one CSV row."""
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("op", "span", "parent", "name", "start", "end", "status", "attrs"))
            for op, sid, parent, name, start, end, status, attrs in self.spans:
                out.writerow((op, sid, parent, name, repr(start), repr(end), status,
                              json.dumps(attrs, sort_keys=True)))


def _count_points(f, attrs):
    attrs["points"] = 0

    def counted(s):
        attrs["points"] += int(np.size(s))
        return f(s)
    return counted


def layer_totals(spans):
    """Per span name: calls, inclusive and self seconds, failures, attrs.

    Self time is a span's duration minus the part of it covered by its
    children.  Inclusive time counts only spans with no ancestor of the
    same name, so recursion is not counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[2] >= 0:
            children[span[2]].append(span)
    totals = defaultdict(lambda: defaultdict(float))
    for op, sid, parent, name, start, end, status, attrs in spans:
        t = totals[name]
        t["calls"] += 1
        t["failed"] += status != "ok"
        covered, reach = 0.0, start
        for child in sorted(children[sid], key=lambda c: c[4]):
            lo, hi = max(child[4], reach), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        t["self_s"] += (end - start) - covered
        if not _has_ancestor_named(spans, parent, name):
            t["incl_s"] += end - start
        for key, value in attrs.items():
            t[key] += value
    return totals


def _has_ancestor_named(spans, parent, name):
    while parent >= 0:
        if spans[parent][3] == name:
            return True
        parent = spans[parent][2]
    return False
