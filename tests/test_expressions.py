import math
import operator
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evostab.errors import ExpressionError
from evostab.expressions import (compile_program, derivative,
                                 expression_matrix, parse_expression,
                                 parse_tree)


def test_numbers_and_arithmetic():
    assert parse_expression("1 + 2*3")(0.0) == 7.0
    assert parse_expression("(1 + 2)*3")(0.0) == 9.0
    assert parse_expression("7/2")(0.0) == 3.5
    assert parse_expression("1.5e2")(0.0) == 150.0
    assert parse_expression(".25")(0.0) == 0.25


def test_variables_bind_t_and_u():
    f = parse_expression("t*u + 1")
    assert f(2.0, 3.0) == 7.0
    assert f(2.0) == 1.0  # u defaults to 0


def test_power_is_right_associative():
    assert parse_expression("2^3^2")(0.0) == 512.0
    assert parse_expression("(2^3)^2")(0.0) == 64.0


def test_unary_minus_binds_tighter_than_subtraction():
    assert parse_expression("-2^2")(0.0) == -4.0  # -(2^2) per the grammar
    assert parse_expression("3 - -2")(0.0) == 5.0


def test_functions_and_constants():
    assert parse_expression("sin(pi/2)")(0.0) == pytest.approx(1.0)
    assert parse_expression("exp(1)")(0.0) == pytest.approx(math.e)
    assert parse_expression("atan(t)")(1.0) == pytest.approx(math.pi / 4)
    assert parse_expression("sqrt(t+1)-sqrt(t)")(0.0) == pytest.approx(1.0)
    assert parse_expression("cos(2*pi)")(0.0) == pytest.approx(1.0)
    assert parse_expression("e^2")(0.0) == pytest.approx(math.e ** 2)


def test_parse_errors_carry_position():
    with pytest.raises(ExpressionError, match="position"):
        parse_expression("1 + ")
    with pytest.raises(ExpressionError, match="position"):
        parse_expression("sin 2")
    with pytest.raises(ExpressionError, match="unknown name"):
        parse_expression("tan(t)")
    with pytest.raises(ExpressionError, match="unexpected character"):
        parse_expression("2 % 3")
    with pytest.raises(ExpressionError):
        parse_expression("")
    with pytest.raises(ExpressionError, match="trailing"):
        parse_expression("1 2")


def test_evaluation_domain_errors_are_wrapped():
    f = parse_expression("sqrt(t)")
    with pytest.raises(ExpressionError, match="evaluation"):
        f(-1.0)
    g = parse_expression("1/t")
    with pytest.raises(ExpressionError, match="evaluation"):
        g(0.0)


def test_no_builtins_leak():
    # names outside the grammar must fail, not resolve to python builtins
    with pytest.raises(ExpressionError):
        parse_expression("abs(t)")
    with pytest.raises(ExpressionError):
        parse_expression("__import__")


# ---------------------------------------------------------------------------
# the batched (numpy) backend


def _ulps_apart(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) / scale


@pytest.mark.parametrize("src", [
    "sin(t*u)", "cos(t + u)", "exp(t - u)", "atan(t/u)",
    "sqrt(t*t + u*u)", "(t*t + 1)^u", "t*u + t/u - (-u)", "pi*t^2 + e",
])
def test_many_agrees_with_scalar_to_four_ulps(src):
    rng = np.random.default_rng(2024)
    t = rng.uniform(-3.0, 3.0, 300)
    u = rng.uniform(-2.0, 2.0, 300)
    f = parse_expression(src)
    batch = f.many(t, u)
    scalar = np.array([f(a, b) for a, b in zip(t, u)])
    assert batch.shape == t.shape
    # a call at one point is the batch's program at that point
    assert batch.tobytes() == scalar.tobytes()
    # a scalar t against an array of u, as the quadrature panels call it
    row = np.broadcast_to(f.many(t[0], u), u.shape)
    assert row.tobytes() == np.array([f(t[0], b) for b in u]).tobytes()


def test_many_of_an_expression_without_u_broadcasts():
    f = parse_expression("exp(-t)")
    us = np.linspace(-1.0, 1.0, 15)
    out = np.empty(15)
    out[:] = f.many(0.5, us)
    assert np.all(out == out[0])
    assert np.max(_ulps_apart(out[0], f(0.5))) <= 4.0


def test_many_domain_fault_raises_the_scalar_message():
    f = parse_expression("sqrt(u)")
    us = np.array([1.0, 4.0, -1.0, 9.0])
    with pytest.raises(ExpressionError) as scalar:
        f(0.0, -1.0)
    with pytest.raises(ExpressionError) as batch:
        f.many(0.0, us)
    assert str(batch.value) == str(scalar.value)
    # without a fault the batch is exact for sqrt
    assert list(f.many(0.0, np.abs(us))) == [1.0, 2.0, 1.0, 3.0]


def test_an_overflow_in_a_batch_raises_the_call_at_its_point():
    # Python's float * overflows to inf unguarded; the program's numpy *
    # raises, in a batch as in a call at one point, and names the point
    src = "exp(sin(t)*3) + 0*(t*1e300*t)"
    f = parse_expression(src)
    ts = np.random.default_rng(1).uniform(-5.0, 5.0, 4000)
    before = f.many(ts, 0.0)
    message = (rf"^evaluation of '{re.escape(src)}' failed at "
               r"\(t=100000\.0, u=0\.0\): overflow encountered in multiply$")
    with pytest.raises(ExpressionError, match=message):
        f.many(np.append(ts, 1e5), 0.0)
    with pytest.raises(ExpressionError, match=message):
        f(1e5)
    with pytest.raises(ExpressionError, match=message):
        expression_matrix([[src]])(np.append(ts, 1e5), 0.0)
    assert f.many(ts, 0.0).tobytes() == before.tobytes()
    assert before.tobytes() == np.array([f(t) for t in ts]).tobytes()
    # an operation on two constants is guarded too
    with pytest.raises(ExpressionError, match="overflow"):
        parse_expression("1e200*1e200 + t").many(ts, 0.0)


def test_complex_power_is_an_expression_error():
    for src in ("(0-8)^0.5", "(0-8)^(1/3)", "sqrt((0-8)^0.5)", "(t-2)^u"):
        f = parse_expression(src)
        with pytest.raises(ExpressionError, match="evaluation") as scalar:
            f(0.0, 0.5)
        with pytest.raises(ExpressionError) as batch:
            f.many(0.0, np.array([0.5, 0.5]))
        assert str(batch.value) == str(scalar.value)
    # a negative base with a whole exponent stays real
    assert parse_expression("(0-2)^3")(0.0) == -8.0
    assert parse_expression("(t-2)^u").many(0.0, np.array([2.0, 3.0])).tolist() \
        == [4.0, -8.0]


def test_non_finite_numbers_are_refused():
    with pytest.raises(ExpressionError, match="not finite"):
        parse_expression("1e400*t")


# ---------------------------------------------------------------------------
# exact t-derivatives

_NUMBERS = st.floats(0.1, 4.0).map(lambda x: repr(round(x, 3)))


def _grow(inner):
    return st.one_of(
        inner.map(lambda a: f"(-{a})"),
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda x: f"({x[0]} {x[1]} {x[2]})"),
        st.tuples(inner, st.sampled_from(["2", "3", "0.5"]) | inner).map(
            lambda x: f"({x[0]})^({x[1]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "atan", "sqrt"]),
                  inner).map(lambda x: f"{x[0]}({x[1]})"),
    )


_EXPRESSIONS = st.recursive(
    st.sampled_from(["t", "u", "pi", "e"]) | _NUMBERS, _grow, max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(_EXPRESSIONS, st.floats(0.1, 2.0),
       st.floats(0.1, 1.5) | st.floats(-1.5, -0.1))
def test_derivative_agrees_with_mpmath_diff(src, t, u):
    # where the value is finite, the compiled d/dt agrees with mpmath's
    # numerical derivative of the same tree compiled over mpmath at 50
    # digits, to 1e-12 relative to the larger of the two sides, the value
    # and 1 (an expression constant in t may leave rounding in its d/dt)
    f = parse_expression(src)
    try:
        value = f(t, u)
    except ExpressionError:
        return
    if not math.isfinite(value):
        return
    try:
        d = 0.0 if f.dt is None else f.dt(t, u)
    except ExpressionError:
        # d/dt alone faults where it is infinite or overflows, as that of
        # (t - t)^t or sqrt(t - t) does; a fault is never a value
        assert f.dt is not None
        return
    table = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
             "atan": mpmath.atan, "sqrt": mpmath.sqrt, "^": mpmath.power,
             "log": mpmath.log}
    g = compile_program([parse_tree(src)], table)
    with mpmath.workdps(50):
        exact = float(mpmath.re(mpmath.diff(
            lambda x: g(x, mpmath.mpf(u))[0], mpmath.mpf(t))))
    assert abs(d - exact) <= 1e-12 * max(abs(exact), abs(value), 1.0)


def test_reads_u_is_read_off_the_tree():
    # a u anywhere in the tree counts, even where it cannot matter
    for src, reads in (("t", False), ("sin(t)*e + pi", False), ("u", True),
                       ("0*u", True), ("exp(-t)^u", True),
                       ("atan(t*(1 + u))", True)):
        assert parse_expression(src).reads_u is reads


def test_derivative_tree_drops_zero_terms_and_unit_factors():
    tree = lambda src: derivative(parse_tree(src))
    assert tree("atan(t)*u") == (
        "*", ("/", ("num", 1.0), ("+", ("num", 1.0), ("*", ("t",), ("t",)))),
        ("u",))
    assert tree("sin(t*u)") == ("*", ("cos", ("*", ("t",), ("u",))), ("u",))
    assert tree("3*t + u") == ("num", 3.0)
    assert tree("exp(-t)") == ("*", ("exp", ("neg", ("t",))), ("num", -1.0))
    for constant in ("0.1*u", "sin(u)^2", "pi - e"):
        assert tree(constant) is None
        assert parse_expression(constant).dt is None


def test_derivative_many_agrees_with_scalar_and_central_differences():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.1, 3.0, 200)
    u = rng.uniform(-2.0, 2.0, 200)
    h = 1e-6
    for src in ("atan(t)*u", "sin(t*u)", "exp(-t)", "(t*t + 1)^u", "2^t",
                "t/(1 + u*t)", "sqrt(t*t + u*u)"):
        f = parse_expression(src)
        batch = f.dt.many(t, u)
        assert batch.shape == t.shape
        assert batch.tobytes() == \
            np.array([f.dt(a, b) for a, b in zip(t, u)]).tobytes()
        slope = (f.many(t + h, u) - f.many(t - h, u)) / (2.0 * h)
        assert np.max(np.abs(batch - slope) / (1.0 + np.abs(batch))) <= 1e-8


def test_derivative_fault_raises_the_value_fault_or_names_d_dt():
    # where the value faults, its derivative raises the value's error
    f = parse_expression("sqrt(t - 1)")
    with pytest.raises(ExpressionError) as value:
        f(0.5, 0.0)
    with pytest.raises(ExpressionError) as batch:
        f.dt.many(np.array([2.0, 0.5]), 0.0)
    assert str(batch.value) == str(value.value)
    # where only the derivative does (infinite at t = 1), one naming d/dt
    with pytest.raises(ExpressionError,
                       match=r"^evaluation of d/dt 'sqrt\(t - 1\)' failed "
                             r"at \(t=1\.0, u=0\.0\): divide by zero"):
        f.dt.many(np.array([2.0, 1.0]), 0.0)
    # an overflow of the derivative alone is a fault too, never an inf
    g = parse_expression("exp(t*t)")
    assert math.isfinite(g(26.6))
    with pytest.raises(ExpressionError, match="d/dt.*overflow"):
        g.dt.many(np.array([1.0, 26.6]), 0.0)


# ---------------------------------------------------------------------------
# the compiled program: a point's bits do not depend on where it sits

_NAIVE = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
          "*": operator.mul, "/": operator.truediv, "sin": np.sin,
          "cos": np.cos, "exp": np.exp, "atan": np.arctan, "sqrt": np.sqrt,
          "^": np.power, "log": np.log}


def _naive(node, t, u):
    """The tree at one point, node by node, recursively."""
    if node[0] == "num":
        return node[1]
    if node[0] in ("t", "u"):
        return t if node[0] == "t" else u
    return _NAIVE[node[0]](*(_naive(a, t, u) for a in node[1:]))


@settings(max_examples=150, deadline=None)
@given(st.lists(_EXPRESSIONS, min_size=4, max_size=4),
       st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4),
       st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4), st.randoms())
def test_program_bits_do_not_depend_on_where_a_point_sits(srcs, ts, us, rnd):
    # a 2x2 expression matrix and its d/dt, at points where no operation
    # faults: each point's matrix is that of a naive evaluation of each
    # tree, alone, at any position of the stepper's flat node array, and
    # in the quadrature's (k, n) x (n,) and the bounds sampler's
    # (rows, 1) x (n,) broadcasts
    G = expression_matrix([srcs[:2], srcs[2:]])
    trees = [parse_tree(src) for src in srcs]
    ts, us = np.array(ts), np.array(us)
    points = [(t, u) for t in ts.tolist() for u in us.tolist()]
    for fn, roots in ((G, trees), (G.partial_t, map(derivative, trees))):
        roots = list(roots)
        try:
            with np.errstate(all="raise", under="ignore"):
                want = {p: np.array([0.0 if r is None else _naive(
                    r, np.float64(p[0]), np.float64(p[1])) for r in roots],
                    dtype=float).reshape(2, 2) for p in points}
        except (FloatingPointError, ZeroDivisionError):
            continue

        def check(t, u):
            shape = np.broadcast(t, u).shape
            flat = zip(np.broadcast_to(t, shape).ravel().tolist(),
                       np.broadcast_to(u, shape).ravel().tolist())
            expected = np.array([want[p] for p in flat])
            expected = expected.reshape(shape + (2, 2))
            assert fn(t, u).tobytes() == expected.tobytes()

        for t, u in points:
            check(t, u)
        shuffled = rnd.sample(points, len(points)) + points[:3]
        check(*map(np.array, zip(*shuffled)))
        check(np.resize(ts, (3, len(us))), us)
        check(ts[:, None], us)
