"""Per-module tracing from outside the program.

Spans are recorded around calls into evostab's public functions, at the
place where the calling module looks them up: a hook replaces the
attribute ``module.name`` in every evostab module whose global of that
name is the original object.  The benchmark's own files call the program
through module attributes, so they see the hooks too.
Closures the program builds and hands back -- coefficient paths, library
fields, compiled expressions -- are wrapped where they are returned.
Nothing under ``src/`` changes; hooks whose target no longer exists are
skipped, so the tracer keeps working while the program is refactored.

Spans are aggregated in memory as they close: per name, the count, the
total time and the self time (duration minus the time covered by child
spans), plus the total time per (parent, child) edge.  ``metrics()``
turns them into the per-layer figures that BENCHMARK.json lists.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

import evostab.evolution as _evolution

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []          # [name, child time] of the open spans
        self._step_stats = []     # every StepStats the integrator created

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                self.count[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                parent = ""
                if stack:
                    stack[-1][1] += dt
                    parent = stack[-1][0]
                self.edges[(parent, name)] += dt

        return traced

    def counting(self, key: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks ------------------------------------------------------------

    def replace_everywhere(self, module, name: str, make) -> None:
        """Put ``make(original)`` wherever ``module.name`` is imported."""
        original = getattr(module, name, None)
        if original is None:
            return
        replacement = make(original)
        holders = [m for key, m in list(sys.modules.items())
                   if m is not None and key.startswith("evostab.")]
        for holder in holders:
            if getattr(holder, name, None) is original:
                setattr(holder, name, replacement)

    def span_function(self, module, name: str, span: str) -> None:
        self.replace_everywhere(module, name,
                                 lambda fn: self.wrap(span, fn))

    def wrap_returned(self, module, name: str, rewrap) -> None:
        """Hook a factory: its result passes through ``rewrap``."""
        def make(fn):
            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return rewrap(fn(*args, **kwargs))
            return factory
        self.replace_everywhere(module, name, make)

    def patch_method(self, cls, name: str, span: str) -> None:
        original = cls.__dict__.get(name)
        if original is None:
            return
        setattr(cls, name, self.wrap(span, original))

    def record_step_stats(self) -> None:
        """Replace StepStats in every module holding it with a subclass
        that registers each instance, so that integrator counts can be
        summed whether or not the caller passes a ``stats=`` object."""
        registry = self._step_stats

        def make(cls):
            class RecordedStepStats(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    registry.append(self)
            return RecordedStepStats

        self.replace_everywhere(_evolution, "StepStats", make)

    def reset(self) -> None:
        for d in (self.count, self.total, self.self_time, self.edges,
                  self.counters):
            d.clear()
        self._step_stats.clear()

    # -- results ----------------------------------------------------------

    def step_totals(self) -> dict:
        out = {"steps": 0, "rejected": 0, "rhs_evals": 0, "segments": 0}
        for st in self._step_stats:
            for key in out:
                out[key] += getattr(st, key, 0)
        return out

    def snapshot(self) -> dict:
        """Everything recorded since the last reset, as plain data."""
        return {
            "spans": {name: {"count": self.count[name],
                             "total_s": self.total[name],
                             "self_s": self.self_time[name]}
                      for name in sorted(self.count)},
            "edges": [{"parent": p, "child": c, "total_s": t}
                      for (p, c), t in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
            "steps": self.step_totals(),
        }


def _replace_fields(obj, names, rewrap):
    """A copy of a frozen dataclass with some callable fields rewrapped."""
    changes = {n: rewrap(getattr(obj, n)) for n in names
               if getattr(obj, n, None) is not None}
    return dataclasses.replace(obj, **changes)


def install(tracer: Tracer) -> None:
    """Hook every layer the per-layer metrics name."""
    from evostab import (calculus, expressions, extension, harness, library,
                         operators, stability, transport)

    w = tracer.wrap
    tracer.record_step_stats()

    # evolution: public entry points, wherever the callers look them up
    for name in ("evolve", "propagate_vector", "param_evolution"):
        tracer.span_function(_evolution, name, "evolution.entry")
    tracer.patch_method(_evolution.EvolutionOperator, "query",
                        "evolution.entry")

    # closures handed to the integrator
    tracer.wrap_returned(stability, "assemble_A", lambda cp: _replace_fields(
        cp, ("eval",), lambda f: w("stability.coef", f)))
    tracer.wrap_returned(transport, "curve_coefficient",
                         lambda cp: _replace_fields(
                             cp, ("eval",),
                             lambda f: w("transport.coef", f)))

    # library fields and connections
    field = lambda f: w("library.field", f)
    conn_fields = ("omega1", "omega2", "d1_omega2")
    tracer.wrap_returned(library, "make_system", lambda sys_: dataclasses.replace(
        sys_, G=_replace_fields(sys_.G, ("eval", "partial_t"), field)))
    tracer.wrap_returned(library, "make_connection",
                         lambda c: _replace_fields(c, conn_fields, field))
    tracer.wrap_returned(library, "make_extension_problem",
                         lambda p: dataclasses.replace(
                             p, omega=_replace_fields(p.omega, conn_fields,
                                                      field)))

    # expressions: every compiled evaluator
    tracer.wrap_returned(expressions, "parse_expression",
                         lambda f: w("expressions.eval", f))

    # calculus: quadrature (integrand evaluations counted) and paths
    def traced_integrate(fn):
        def integrate(g, *args, **kwargs):
            return fn(tracer.counting("calculus.integrand_evals", g),
                      *args, **kwargs)
        return w("calculus.integrate", functools.wraps(fn)(integrate))
    tracer.replace_everywhere(calculus, "integrate", traced_integrate)
    tracer.patch_method(calculus.ScalarPath, "__call__", "calculus.path")
    tracer.patch_method(calculus.ScalarPath, "d", "calculus.path")

    # dense linear algebra
    tracer.span_function(operators, "matrix_norm", "operators.norm")
    tracer.span_function(operators, "invert_matrix", "operators.invert")

    # whole-stage spans
    for module, name, span in (
            (stability, "verify_certificate", "stability.verify"),
            (stability, "certify", "stability.certify"),
            (transport, "sample_connection_bounds", "transport.bounds"),
            (extension, "build_sigma", "extension.build_sigma"),
            (extension, "extend_section", "extension.extend"),
            (extension, "parallel_residual", "extension.residual"),
            (harness, "emit_report", "harness.emit")):
        tracer.span_function(module, name, span)


def metrics(snap: dict) -> dict:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    spans = snap["spans"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    steps = snap["steps"]
    return {
        "evolution.self_s": (span("evolution.entry", "self_s"), "s"),
        "evolution.calls": (span("evolution.entry", "count"), "count"),
        "evolution.rhs_evals": (steps["rhs_evals"], "count"),
        "evolution.steps": (steps["steps"], "count"),
        "evolution.rejected": (steps["rejected"], "count"),
        "evolution.segments": (steps["segments"], "count"),
        "stability.verify_s": (span("stability.verify", "total_s"), "s"),
        "stability.coef_s": (span("stability.coef", "self_s"), "s"),
        "stability.certify_s": (span("stability.certify", "total_s"), "s"),
        "transport.coef_s": (span("transport.coef", "self_s"), "s"),
        "transport.bounds_s": (span("transport.bounds", "total_s"), "s"),
        "library.field_evals": (span("library.field", "count"), "count"),
        "library.field_s": (span("library.field", "self_s"), "s"),
        "calculus.integrate_calls": (span("calculus.integrate", "count"),
                                     "count"),
        "calculus.integrand_evals": (
            snap["counters"].get("calculus.integrand_evals", 0), "count"),
        "calculus.integrate_self_s": (span("calculus.integrate", "self_s"),
                                      "s"),
        "calculus.path_s": (span("calculus.path", "self_s"), "s"),
        "operators.norm_calls": (span("operators.norm", "count"), "count"),
        "operators.norm_s": (span("operators.norm", "self_s"), "s"),
        "operators.invert_calls": (span("operators.invert", "count"),
                                   "count"),
        "operators.invert_s": (span("operators.invert", "self_s"), "s"),
        "expressions.eval_calls": (span("expressions.eval", "count"),
                                   "count"),
        "expressions.eval_s": (span("expressions.eval", "self_s"), "s"),
        "extension.build_sigma_s": (span("extension.build_sigma", "total_s"),
                                    "s"),
        "extension.extend_s": (span("extension.extend", "total_s"), "s"),
        "extension.residual_s": (span("extension.residual", "total_s"), "s"),
        "harness.emit_s": (span("harness.emit", "total_s"), "s"),
    }
