import math

import numpy as np
import pytest

from evostab.errors import ExpressionError
from evostab.expressions import parse_expression


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
    assert np.max(_ulps_apart(batch, scalar)) <= 4.0
    # a scalar t against an array of u, as the quadrature panels call it
    row = f.many(t[0], u)
    assert np.max(_ulps_apart(row, [f(t[0], b) for b in u])) <= 4.0


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
