"""The built-in fields, paths and connections are fragments of expression
strings, compiled once per process.  Each must be the same as the config
written from its strings, bit for bit, through the whole program, and
agree with its pointwise formula (conftest, and the paths below) to a
few ulps on every shape the program calls it with.  The four built-in
scenarios keep their bytes."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evostab import expressions, harness
from evostab.calculus import Interval, OperatorField
from evostab.errors import ExpressionError
from evostab.expressions import parse_expression
from evostab.harness import BUILTIN_SCENARIOS, emit_report, run_scenario
from evostab.library import (BUILTIN_CONNECTIONS, BUILTIN_FIELDS,
                             BUILTIN_PATHS, builtin_system, constant_matrix,
                             make_connection, make_extension_problem,
                             make_scalar_path, make_system)

from conftest import (POINTWISE_CONNECTIONS, POINTWISE_EXTENSION_OMEGA2,
                      POINTWISE_FIELDS, assert_within_ulps)

_M = np.array([[0.5, -1.25], [2.0, 0.0]])
_CONSTANT = (lambda t, u: _M, lambda t, u: np.zeros((2, 2)))


def _assert_array_evaluator_is_the_formula(array_fn, formula, t0, ts, us):
    """array_fn against formula over scalar x (n,), (k,) x (n, 1),
    (k, 1) x (n,) (the bounds sampler's block of grid rows) and (n,) x (n,)
    arguments."""
    ts, us = np.array(ts), np.array(us)
    paired = np.resize(ts, us.shape)
    cases = (
        (t0, us, [formula(t0, u) for u in us.tolist()]),
        (ts, us[:, None], [[formula(t, u) for t in ts.tolist()]
                           for u in us.tolist()]),
        (ts[:, None], us, [[formula(t, u) for u in us.tolist()]
                           for t in ts.tolist()]),
        (paired, us, [formula(t, u) for t, u in zip(paired.tolist(),
                                                     us.tolist())]),
    )
    for t, u, want in cases:
        assert_within_ulps(array_fn(t, u), want)


_points = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6)
_times = st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6)


@pytest.mark.parametrize("name", sorted(POINTWISE_FIELDS) + ["constant"])
@settings(max_examples=40, deadline=None)
@given(t0=st.floats(0.0, 60.0), ts=_times, us=_points)
def test_field_evaluators_are_their_pointwise_formulas(name, t0, ts, us):
    if name == "constant":
        field, formulas = builtin_system(constant_matrix(_M)).G, _CONSTANT
    else:
        field, formulas = make_system(name).G, POINTWISE_FIELDS[name]
    # example39's d/dt is infinite at t = 0, where it raises
    ts = [t for t in ts if t > 0.0] or [1.0]
    t0 = t0 or 1.0
    for array_fn, formula in zip((field.eval, field.partial_t), formulas):
        _assert_array_evaluator_is_the_formula(array_fn, formula, t0, ts, us)


@pytest.mark.parametrize("name", sorted(POINTWISE_CONNECTIONS))
@settings(max_examples=40, deadline=None)
@given(x0=st.floats(-2.0, 2.0), xs=_points, us=_points)
def test_connection_evaluators_are_their_pointwise_formulas(name, x0, xs, us):
    w = make_connection(name)
    for array_fn, formula in zip((w.omega1, w.omega2, w.d1_omega2),
                                 POINTWISE_CONNECTIONS[name]):
        _assert_array_evaluator_is_the_formula(array_fn, formula, x0, xs, us)


@pytest.mark.parametrize("name", sorted(POINTWISE_EXTENSION_OMEGA2))
@settings(max_examples=40, deadline=None)
@given(x0=st.floats(-2.0, 2.0), xs=_points, us=_points)
def test_extension_omega2_is_its_pointwise_formula(name, x0, xs, us):
    omega2 = make_extension_problem(name).omega.omega2
    _assert_array_evaluator_is_the_formula(
        omega2, POINTWISE_EXTENSION_OMEGA2[name], x0, xs, us)


# ---------------------------------------------------------------------------
# the built-ins against their per-point formulas, on a seeded grid


def _triangle_wave(t):
    s = (t - 1.0) % 4.0
    return 1.0 - s if s <= 2.0 else s - 3.0


def _triangle_deriv(t):
    s = (t - 1.0) % 4.0
    return -1.0 if s < 2.0 else 1.0


# the built-in paths one time at a time, as they were written with math:
# name -> (f, f')
POINTWISE_PATHS = {
    "sin": (math.sin, math.cos),
    "sin2t": (lambda t: math.sin(2.0 * t), lambda t: 2.0 * math.cos(2.0 * t)),
    "sin-t-squared": (lambda t: math.sin(t * t),
                      lambda t: 2.0 * t * math.cos(t * t)),
    "sawtooth": (_triangle_wave, _triangle_deriv),
    "constant": (lambda t: 0.25, lambda t: 0.0),
}

_RNG = np.random.default_rng(20)
_EDGES = np.array([0.0, 5e-324, 1e-300, 1e6])
# the sawtooth's breakpoints 1 + 2k on [-41, 41], each and 1 ulp either side
_BREAKS = np.arange(-41.0, 42.0, 2.0)
_BREAKS = np.concatenate([_BREAKS, np.nextafter(_BREAKS, np.inf),
                          np.nextafter(_BREAKS, -np.inf)])
# times >= 0 (example39's domain), and times of either sign
_TIMES = np.concatenate([_EDGES, _RNG.uniform(0.0, 100.0, 3000),
                         _RNG.uniform(0.0, 1e-6, 200)])
_SIGNED = np.concatenate([_TIMES, -_TIMES, _BREAKS,
                          _RNG.uniform(-50.0, 50.0, 3000)])


def _shapes(ts, us):
    """The shapes callers pass: scalars, (n,) against (n,), and (k, 15)
    against (15,)."""
    k = len(ts) // 15
    return ((float(ts[1]), float(us[-1])), (ts, us[:len(ts)]),
            (ts[:15 * k].reshape(k, 15), us[:15]))


def _per_point(formula, *args):
    """formula at each point of the broadcast arguments, stacked in their
    shape."""
    shape = np.broadcast(*args).shape
    flat = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
    vals = np.array([formula(*p) for p in zip(*flat)], dtype=float)
    return vals.reshape(shape + vals.shape[1:])


def test_example39_is_its_formula_on_a_seeded_grid():
    field = make_system("example39").G
    us = _RNG.uniform(-1.0, 1.0, len(_TIMES))
    for t, u in _shapes(_TIMES, us):
        assert_within_ulps(field.eval(t, u),
                           _per_point(POINTWISE_FIELDS["example39"][0], t, u))
    # its d/dt is infinite at t = 0
    for t, u in _shapes(_TIMES[1:], us[1:]):
        assert_within_ulps(field.partial_t(t, u),
                           _per_point(POINTWISE_FIELDS["example39"][1], t, u))


@pytest.mark.parametrize("name", sorted(POINTWISE_PATHS))
def test_path_is_its_formula_on_a_seeded_grid(name):
    assert set(POINTWISE_PATHS) == set(BUILTIN_PATHS)
    path = make_scalar_path(name, Interval(-41.0, 41.0))
    for t, _ in _shapes(_SIGNED, _SIGNED):
        for array_fn, formula in zip((path.eval, path.deriv),
                                     POINTWISE_PATHS[name]):
            assert_within_ulps(array_fn(t), _per_point(formula, t))


def test_mixed_bounded_is_its_formula_on_a_seeded_grid():
    w = make_connection("mixed-bounded")
    us = _RNG.permutation(_SIGNED)
    for x, u in _shapes(_SIGNED, us):
        for array_fn, formula in zip((w.omega1, w.omega2, w.d1_omega2),
                                     POINTWISE_CONNECTIONS["mixed-bounded"]):
            assert_within_ulps(array_fn(x, u), _per_point(formula, x, u))


@pytest.mark.parametrize("which, t", [
    (0, -1e-300), (0, -0.5), (0, -2.0), (0, -math.inf),
    (1, -1e-300), (1, -0.5), (1, -1.0 - 1e-15), (1, -3.0), (1, -math.inf),
    (1, -1.0),
])
def test_example39_raises_where_its_formula_raised(which, t):
    # outside its domain (t < 0) the formula raises math's ValueError or
    # ZeroDivisionError, and the built-in, or its d/dt, the ExpressionError
    # of its first entry that faults there: sqrt(t + 1) - sqrt(t)
    field = make_system("example39").G
    array_fn = (field.eval, field.partial_t)[which]
    formula = POINTWISE_FIELDS["example39"][which]
    if which == 0 or t <= -1.0:
        with pytest.raises((ValueError, ZeroDivisionError)):
            formula(t, 0.0)
    with pytest.raises(ExpressionError) as was:
        parse_expression(BUILTIN_FIELDS["example39"][0][1])(t, 0.0)
    for arg in (t, np.array([2.0, t, 1.0]), np.full((2, 15), t)):
        with pytest.raises(ExpressionError) as got:
            array_fn(arg, 0.0)
        assert str(got.value) == str(was.value)


# ---------------------------------------------------------------------------
# one route: a built-in is the config written from its strings


_PAIRS = {"window": [0.0, 6.0], "num_pairs": 6}


def _listed(rows):
    """A fragment's rows as a config's list of lists."""
    return [list(row) for row in rows]


def _same_outputs(builtin, written, kind, config, tmp_path):
    """The reports of ``config`` with the built-in and with the written-out
    object under its key: the same rows.csv and summary.json bytes, the
    config they echo aside."""
    key, = builtin
    reports = [run_scenario(kind, {**config, key: obj}, seed=3)
               for obj in (builtin[key], written)]
    files = [emit_report(dataclasses.replace(r, scenario=None),
                         tmp_path / str(i)) for i, r in enumerate(reports)]
    for one, other in zip(*files):
        assert one.read_bytes() == other.read_bytes()


@pytest.mark.parametrize("name", sorted(BUILTIN_FIELDS) + ["constant-matrix"])
def test_builtin_field_is_its_written_out_config(name, tmp_path):
    builtin = {"builtin": name}
    G = _listed(BUILTIN_FIELDS.get(name, ()))
    if name == "constant-matrix":
        builtin = {"builtin": "constant", "matrix": _M.tolist()}
        G = [[repr(x) for x in row] for row in _M.tolist()]
    written = {"G": G, "f": BUILTIN_PATHS["sin"], "I": [0.0, math.inf],
               "J": [-1.0, 1.0]}
    _same_outputs({"system": builtin}, written, "verify", _PAIRS, tmp_path)


@pytest.mark.parametrize("name", sorted(BUILTIN_CONNECTIONS))
def test_builtin_connection_is_its_written_out_config(name, tmp_path):
    written = {k: _listed(rows)
               for k, rows in BUILTIN_CONNECTIONS[name].items()}
    written.update(M=[-1.05, 0.0], J=[-1.3, 1.3])
    _same_outputs({"connection": {"builtin": name}}, written, "sine-curve",
                  {"a": -1.0, "b_list": [-0.1], "v": [1.0, 0.5]}, tmp_path)


def test_a_second_builtin_parses_nothing(monkeypatch):
    # each built-in is compiled once per process: building it again
    # takes no parse
    build = (lambda: make_connection("gauge-twist"),
             lambda: make_system("example39"))
    for make in build:
        make()
    calls = []
    parse_tree = expressions.parse_tree
    monkeypatch.setattr(expressions, "parse_tree",
                        lambda src: calls.append(src) or parse_tree(src))
    for make in build:
        make()
    assert calls == []


def test_builtin_example39_verify_keeps_its_bytes_and_cost(tmp_path):
    kind, config = BUILTIN_SCENARIOS["example39"]
    report = run_scenario(kind, config, seed=7)
    csv_path, _ = emit_report(report, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "778fc3b7a42d5866b8100da371267762263584a706c4b44c0983c4cf01640248")
    cost = report.summary["cost"]
    assert (cost["rhs_evals"], cost["steps"], cost["rejected"],
            cost["windows"], cost["quad_panels"], cost["quad_nodes"]) == (
        16671, 448, 33, 15, 103, 1545)


def test_example39_variation_takes_one_partial_t_call_per_bisection(
        monkeypatch):
    # the variation's first panel takes one call, then each of its 51
    # bisections one call for both halves; the certificate does not
    # depend on the pairs, so two will do
    calls = []
    make = harness.make_system

    def counted(*args):
        system = make(*args)

        def partial_t(t, u):
            calls.append(np.shape(t))
            return system.G.partial_t(t, u)
        return dataclasses.replace(system, G=dataclasses.replace(
            system.G, partial_t=partial_t))

    monkeypatch.setattr(harness, "make_system", counted)
    kind, config = BUILTIN_SCENARIOS["example39"]
    report = run_scenario(kind, {**config, "num_pairs": 2}, seed=7)
    cost = report.summary["cost"]
    assert (len(calls), cost["quad_panels"], cost["quad_nodes"]) == (
        52, 103, 1545)


def test_certify_expr_takes_one_d1_many_call_per_bisection(monkeypatch,
                                                           tmp_path):
    calls = []
    d1_many = OperatorField.d1_many

    def counted(self, t, us):
        calls.append(np.shape(t))
        return d1_many(self, t, us)

    monkeypatch.setattr(OperatorField, "d1_many", counted)
    report = run_scenario("certify", {
        "system": {"G": [["atan(t)*u", "0.1*u"], ["sin(t*u)", "exp(-t)"]],
                   "f": "sin(t)", "J": [-1.0, 1.0], "norm": "euclidean"},
        "window": [0.0, 2.0]}, seed=0)
    csv_path, _ = emit_report(report, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "b82073ee773e93f92cc1e0efd81e7c647949e5210a3174910ef29b30ddeea36d")
    cost = report.summary["cost"]
    assert (len(calls), cost["quad_panels"], cost["quad_nodes"]) == (
        98, 226, 50475)


# (rhs_evals, steps, rejected, segments, windows) of each built-in at
# seed 7
BUILTIN_COSTS = {
    "intro-cos": (2271, 50, 17, 1, 5),
    "sine-curve": (71310, 7787, 132, 1, 141),
    "extension-gauge": (1005, 49, 10, 39, 49),
}


@pytest.mark.parametrize("name, digest", [
    ("intro-cos",
     "500ab760a694b7d39780d6f265be99658fd9152d0eb9fab759c100d92c52c0d1"),
    ("sine-curve",
     "9bc0a35596864fc94437696843338b332cefaaec0291279e2e85b55617987289"),
    ("extension-gauge",
     "f9ffe215dc577c1548fd933e0b564389e024868900a922a2e32d75c37d7e0038"),
])
def test_builtin_scenario_keeps_its_bytes(tmp_path, name, digest):
    kind, config = BUILTIN_SCENARIOS[name]
    report = run_scenario(kind, config, seed=7)
    csv_path, _ = emit_report(report, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest
    cost = report.summary["cost"]
    assert (cost["rhs_evals"], cost["steps"], cost["rejected"],
            cost["segments"], cost["windows"]) == BUILTIN_COSTS[name]
