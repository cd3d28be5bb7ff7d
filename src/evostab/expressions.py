"""A small arithmetic-expression parser for config-defined fields.

Grammar (whitespace ignored):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?          # right associative
    atom   := NUMBER | CONST | VAR | FUNC '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, atan, sqrt.  Constants: pi, e.  Variables are
``t`` and ``u`` (the second coordinate of two-argument fields binds to u).
A string is parsed once, into a tree of tuples: ("num", value), ("t",),
("u",), ("neg", a), (op, a, b) for + - * / ^ and (name, a) for a
function.  :func:`compile_tree` makes closures of (t, u) of a tree over
a function table: ``math`` for scalar calls, and the numpy ufuncs for
``evaluate.many``, which takes arrays (a quadrature panel's nodes) in one
call.  :func:`derivative` differentiates the tree in t once, and its tree
is compiled over numpy: ``evaluate.dt``.  No ``eval`` is involved.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ExpressionError

_BINARY = {  # closure factories, so that each node applies its operator inline
    "+": lambda a, b: lambda t, u: a(t, u) + b(t, u),
    "-": lambda a, b: lambda t, u: a(t, u) - b(t, u),
    "*": lambda a, b: lambda t, u: a(t, u) * b(t, u),
    "/": lambda a, b: lambda t, u: a(t, u) / b(t, u),
}
# math.pow raises where ** would turn a negative base complex
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
         "atan": math.atan, "sqrt": math.sqrt, "^": math.pow}
# log enters only derivative trees, which are compiled over numpy alone
_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
          "atan": np.arctan, "sqrt": np.sqrt, "^": np.power, "log": np.log}
_FUNCTIONS = sorted(k for k in _MATH if k.isalpha())
# the numpy evaluators run under this guard; a fault it raises sends the
# batch back through the scalar evaluator
_GUARD = {"all": "raise", "under": "ignore"}
_FAULTS = (FloatingPointError, ZeroDivisionError)
_CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("t", "u")
# a number has a digit, and takes an exponent only where a digit follows
# the e (and its sign)
_TOKEN = re.compile(r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[^\W\d_][^\W_]*)|(?P<char>\S))")


def _tokenize(src: str):
    tokens = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text, i = m.group(kind), m.start(kind)
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):  # 1e400
                raise ExpressionError(
                    f"number {text!r} at position {i} is not finite")
            tokens.append(("num", value, i))
        elif kind == "name":
            tokens.append(("name", text, i))
        elif text in "+-*/^()":
            tokens.append((text, text, i))
        else:
            raise ExpressionError(f"unexpected character {text!r} at position {i}")
    tokens.append(("end", None, len(src)))
    return tokens


def parse_tree(src: str) -> tuple:
    """The tree of an expression string, by recursive descent; an
    ExpressionError names the offending position on bad input."""
    tokens, pos = _tokenize(src), 0

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(
                f"expected {kind!r} at position {tok[2]} in {src!r}, "
                f"got {tok[0]!r}")
        pos += 1
        return tok

    def left_assoc(operand, ops):
        node = operand()
        while tokens[pos][0] in ops:
            node = (take()[0], node, operand())
        return node

    def expr():
        return left_assoc(lambda: left_assoc(unary, "*/"), "+-")

    def unary():
        if tokens[pos][0] in ("+", "-"):
            sign = take()[0]
            return ("neg", unary()) if sign == "-" else unary()
        base = atom()
        if tokens[pos][0] != "^":
            return base
        take()
        return ("^", base, unary())

    def atom():
        kind, value, at = take()
        if kind == "num":
            return ("num", value)
        if kind == "name" and value in _CONSTANTS:
            return ("num", _CONSTANTS[value])
        if kind == "name" and value in VARIABLES:
            return (value,)
        if kind == "name" and value in _FUNCTIONS:
            take("(")
        elif kind == "name":
            raise ExpressionError(
                f"unknown name {value!r} at position {at} "
                f"(variables: t, u; functions: {_FUNCTIONS})")
        elif kind != "(":
            raise ExpressionError(
                f"unexpected token at position {at} in {src!r}")
        inner = expr()
        take(")")
        return inner if kind == "(" else (value, inner)

    node = expr()
    if tokens[pos][0] != "end":
        raise ExpressionError(
            f"trailing input at position {tokens[pos][2]} in {src!r}")
    return node


def compile_tree(node: tuple, fns: dict):
    """The closure (t, u) -> value of the tree ``node``: Python's + - * /
    inline, and the functions and ``^`` of the table ``fns``."""
    op = node[0]
    if op == "num":
        return lambda t, u, _v=node[1]: _v
    if op in VARIABLES:
        return (lambda t, u: t) if op == "t" else (lambda t, u: u)
    args = [compile_tree(a, fns) for a in node[1:]]
    if op == "neg":
        inner = args[0]
        return lambda t, u: -inner(t, u)
    if op in _BINARY:
        return _BINARY[op](*args)
    f = fns[op]
    if op == "^":
        base, exponent = args
        return lambda t, u: f(base(t, u), exponent(t, u))
    arg = args[0]
    return lambda t, u: f(arg(t, u))


_ONE = ("num", 1.0)
# d/dt f(a) = f'(a) a', with f'(a) a tree of a and of the node f(a)
_CHAIN = {
    "sin": lambda a, fa: ("cos", a),
    "cos": lambda a, fa: ("neg", ("sin", a)),
    "exp": lambda a, fa: fa,
    "atan": lambda a, fa: ("/", _ONE, ("+", _ONE, ("*", a, a))),
    "sqrt": lambda a, fa: ("/", ("num", 0.5), fa),
}


def _op(op, a, b=None):
    """The tree (op, a, b), or ("neg", a), where None is a tree that is
    identically 0: without its terms that are 0 or factors that are 1."""
    if op == "neg":
        return a and (("num", -a[1]) if a[0] == "num" else ("neg", a))
    if op in "+-" and None in (a, b):
        return a if b is None else b if op == "+" else _op("neg", b)
    if op == "*" and (None in (a, b) or _ONE in (a, b)):
        return None if None in (a, b) else b if a == _ONE else a
    return None if op == "/" and a is None else (op, a, b)


def derivative(node: tuple):
    """The tree of d/dt of the tree ``node``, or None where that is
    identically 0 (no t in it), by the chain rule."""
    op, args = node[0], node[1:]
    if op in ("num", "u", "t"):
        return _ONE if op == "t" else None
    a, da = args[0], derivative(args[0])
    if op in _CHAIN:
        return _op("*", _CHAIN[op](a, node), da)
    if op == "neg":
        return _op("neg", da)
    b, db = args[1], derivative(args[1])
    if op in "+-":
        return _op(op, da, db)
    if op == "*":
        return _op("+", _op("*", da, b), _op("*", a, db))
    if op == "/":  # (a' - (a/b) b') / b
        return _op("/", _op("-", da, _op("*", node, db)), b)
    if db is None:  # the power rule, b a^(b - 1) a'
        less = ("num", b[1] - 1.0) if b[0] == "num" else ("-", b, _ONE)
        return _op("*", _op("*", b, ("^", a, less)), da)
    # a^b (b' log a + b a' / a)
    return _op("*", node, _op("+", _op("*", db, ("log", a)),
                              _op("/", _op("*", b, da), a)))


def _reads_u(node: tuple) -> bool:
    """Whether the tree ``node`` has a u in it (``0*u`` has)."""
    return node == ("u",) or any(isinstance(a, tuple) and _reads_u(a)
                                 for a in node[1:])


def _guarded(raw, scalar):
    """The array evaluator of ``raw`` under the floating-point guard; a
    batch with a fault is redone point by point through ``scalar``."""
    def many(t, u):
        try:
            with np.errstate(**_GUARD):
                return np.asarray(raw(t, u), dtype=float)
        except _FAULTS:
            return np.vectorize(scalar, otypes=[float])(t, u)
    return many


def parse_expression(src: str):
    """Compile an expression string to a function of (t, u).

    Raises ExpressionError with the offending position on bad input; the
    returned callable raises ExpressionError on domain faults (sqrt of a
    negative number, a complex power and the like).  ``evaluate.many``
    takes arrays; a batch with a floating-point fault is redone point by
    point, so it raises exactly what the scalar call raises.
    ``evaluate.reads_u`` says whether the expression has a u in it.
    ``evaluate.dt`` is the exact t-derivative, with a ``many`` of its
    own, or None for an expression constant in t.  It runs in numpy under
    the same guard: where the value faults it raises the value's error,
    and where only it does (sqrt at 0, an overflow) one that names d/dt;
    it never returns a non-finite value.
    """
    if not isinstance(src, str) or not src.strip():
        raise ExpressionError("expression must be a non-empty string")
    tree = parse_tree(src)
    raw = compile_tree(tree, _MATH)

    def evaluate(t: float, u: float = 0.0) -> float:
        try:
            return float(raw(t, u))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ExpressionError(
                f"evaluation of {src!r} failed at (t={t}, u={u}): {exc}"
            ) from exc

    evaluate.source = src
    evaluate.reads_u = _reads_u(tree)
    evaluate.raw_many = compile_tree(tree, _NUMPY)
    evaluate.many = _guarded(evaluate.raw_many, evaluate)
    evaluate.dt = None
    d_tree = derivative(tree)
    if d_tree is not None:
        raw_dt = compile_tree(d_tree, _NUMPY)

        def dt(t: float, u: float = 0.0) -> float:
            evaluate(t, u)  # a fault of the value raises as the value's
            try:
                with np.errstate(**_GUARD):
                    return float(dt.raw_many(t, u))
            except _FAULTS as exc:
                raise ExpressionError(f"evaluation of d/dt {src!r} failed "
                                      f"at (t={t}, u={u}): {exc}") from exc

        # arrays in: Python's float arithmetic would overflow unguarded
        dt.raw_many = lambda t, u: raw_dt(np.asarray(t, dtype=float),
                                          np.asarray(u, dtype=float))
        dt.many = _guarded(dt.raw_many, dt)
        evaluate.dt = dt
    return evaluate


def many_together(fs, t, u) -> list:
    """``[f.many(t, u) for f in fs]`` for parsed expressions ``fs`` (or
    their ``dt``), all under one floating-point guard.  A fault redoes
    the list through each f's own ``many``, so it raises exactly what the
    scalar call of the first faulting f raises."""
    try:
        with np.errstate(**_GUARD):
            return [np.asarray(f.raw_many(t, u), dtype=float) for f in fs]
    except _FAULTS:
        return [f.many(t, u) for f in fs]
