"""Span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of each weyllab module
from outside the package: the wrapper replaces the object in every weyllab
module namespace that holds it, so calls between modules and within a module
are both seen.  Spans stay in memory as [name, parent, start, end, count] and
are written out by the caller when the round ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _rows(args, kwargs, result):
    """Points passed to a RegularizedCoefficient method (self, x, ...)."""
    x = kwargs["x"] if "x" in kwargs else args[1]
    return np.atleast_2d(np.asarray(x)).shape[0]


# (span name, module, attribute, count of work at the boundary or None)
TARGETS = [
    *[("mollify.regularized_eval", "weyllab.mollify",
       f"RegularizedCoefficient.{method}", _rows)
      for method in ("value", "grad", "hess", "derivative")],
    ("mollify.build_mollifier", "weyllab.mollify", "build_mollifier", None),
    ("operators.assemble", "weyllab.operators", "assemble", None),
    ("operators.count_below", "weyllab.operators", "count_below",
     lambda a, k, r: (k["op"] if "op" in k else a[0]).size),
    ("operators.eigenvalues_below", "weyllab.operators",
     "eigenvalues_below", None),
    ("phasevol.remainder_functional", "weyllab.phasevol",
     "remainder_functional", lambda a, k, r: r.grid_size),
    ("phasevol.weyl_volume", "weyllab.phasevol", "weyl_volume", None),
    ("phasevol.poly_sublevel_measure", "weyllab.phasevol",
     "poly_sublevel_measure", lambda a, k, r: 1),
    ("dynamics.oscillatory_integral", "weyllab.dynamics",
     "oscillatory_integral", None),
    ("dynamics.integrate_flow", "weyllab.dynamics", "integrate_flow",
     lambda a, k, r: r.integrator_steps),
    ("symbols.find_critical_points", "weyllab.symbols",
     "find_critical_points", None),
    ("harness.run_h_sweep", "weyllab.harness", "run_h_sweep", None),
    ("fitting.fit_loglog", "weyllab._fitting", "fit_loglog", None),
    ("cli.run", "weyllab.cli", "run", None),
]

# Per-layer metrics: self time of each span (suffixed _self_s where the span
# has traced children), and the work counted at its boundary.
TIME_METRICS = {
    "mollify.regularized_eval": "mollify.regularized_eval_s",
    "mollify.build_mollifier": "mollify.build_mollifier_s",
    "operators.assemble": "operators.assemble_self_s",
    "operators.count_below": "operators.count_below_s",
    "operators.eigenvalues_below": "operators.eigenvalues_below_s",
    "phasevol.remainder_functional": "phasevol.remainder_functional_s",
    "phasevol.weyl_volume": "phasevol.weyl_volume_s",
    "phasevol.poly_sublevel_measure": "phasevol.poly_sublevel_measure_s",
    "dynamics.oscillatory_integral": "dynamics.oscillatory_integral_s",
    "dynamics.integrate_flow": "dynamics.integrate_flow_s",
    "symbols.find_critical_points": "symbols.find_critical_points_s",
    "harness.run_h_sweep": "harness.run_h_sweep_self_s",
    "fitting.fit_loglog": "fitting.fit_loglog_s",
    "cli.run": "cli.run_self_s",
}
COUNT_METRICS = {
    "mollify.regularized_eval": "mollify.regularized_points",
    "operators.count_below": "operators.unknowns_factored",
    "phasevol.remainder_functional": "phasevol.shell_levels",
    "phasevol.poly_sublevel_measure": "phasevol.poly_sublevel_calls",
    "dynamics.integrate_flow": "dynamics.flow_rhs_evals",
}


class Recorder:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, count]
        self._open = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = int(count(args, kwargs, result))
            return result

        return traced


def install() -> Recorder:
    """Wrap every target in every loaded weyllab module; return the recorder."""
    rec = Recorder()
    modules = [m for n, m in sys.modules.items()
               if n == "weyllab" or n.startswith("weyllab.")]
    for name, module_name, attr, count in TARGETS:
        owner = sys.modules[module_name]
        *cls, fname = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, fname)
        wrapped = rec.wrap(name, original, count)
        setattr(owner, fname, wrapped)
        if not cls:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return rec


def self_times(spans) -> dict:
    """Summed self time and count per span name."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for (name, _, start, end, count), inner in zip(spans, child):
        t, c = totals.get(name, (0.0, 0))
        totals[name] = (t + (end - start) - inner, c + count)
    return totals


def layer_metrics(spans) -> dict:
    """Every per-layer metric, 0 for a layer the round never entered."""
    totals = self_times(spans)
    out = {}
    for name, metric in TIME_METRICS.items():
        out[metric] = totals.get(name, (0.0, 0))[0]
    for name, metric in COUNT_METRICS.items():
        out[metric] = totals.get(name, (0.0, 0))[1]
    return out


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds, measured on an empty function."""

    def noop():
        return None

    traced = Recorder().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
