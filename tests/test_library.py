"""The built-in fields and connections have one evaluator each, over
arrays: it must equal the pointwise formula (conftest) bit for bit, on
every shape the program calls it with."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evostab.library import (BUILTIN_FIELDS, constant_field,
                             make_connection, make_extension_problem)

from conftest import (POINTWISE_CONNECTIONS, POINTWISE_EXTENSION_OMEGA2,
                      POINTWISE_FIELDS)

_M = np.array([[0.5, -1.25], [2.0, 0.0]])
_CONSTANT = (lambda t, u: _M, lambda t, u: np.zeros((2, 2)))


def _assert_array_evaluator_is_the_formula(array_fn, formula, t0, ts, us):
    """array_fn against formula over scalar x (n,), (k,) x (n, 1) and
    (n,) x (n,) arguments."""
    ts, us = np.array(ts), np.array(us)
    paired = np.resize(ts, us.shape)
    cases = (
        (t0, us, [formula(t0, u) for u in us.tolist()]),
        (ts, us[:, None], [[formula(t, u) for t in ts.tolist()]
                           for u in us.tolist()]),
        (paired, us, [formula(t, u) for t, u in zip(paired.tolist(),
                                                     us.tolist())]),
    )
    for t, u, want in cases:
        want = np.array(want, dtype=float)
        got = array_fn(t, u)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


_points = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6)
_times = st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6)


@pytest.mark.parametrize("name", sorted(POINTWISE_FIELDS) + ["constant"])
@settings(max_examples=40, deadline=None)
@given(t0=st.floats(0.0, 60.0), ts=_times, us=_points)
def test_field_evaluators_are_their_pointwise_formulas(name, t0, ts, us):
    if name == "constant":
        field, formulas = constant_field(_M), _CONSTANT
    else:
        field, formulas = BUILTIN_FIELDS[name](), POINTWISE_FIELDS[name]
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
