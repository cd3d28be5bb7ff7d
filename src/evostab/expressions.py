"""A small arithmetic-expression parser for config-defined fields.

Grammar (whitespace ignored):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?          # right associative
    atom   := NUMBER | CONST | VAR | FUNC '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, atan, sqrt.  Constants: pi, e.  Variables are
``t`` and ``u`` (the second coordinate of two-argument fields binds to u).
One parse compiles to closures of (t, u) twice, over two function tables:
``math`` for scalar calls, and the numpy ufuncs for ``evaluate.many``,
which takes arrays (a quadrature panel's nodes) in one call.  No ``eval``
is involved anywhere.
"""

from __future__ import annotations

import math

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
_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
          "atan": np.arctan, "sqrt": np.sqrt, "^": np.power}
_FUNCTIONS = sorted(k for k in _MATH if k.isalpha())
_CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("t", "u")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE" and j + 1 < n and (
                src[j + 1].isdigit() or (src[j + 1] in "+-" and j + 2 < n
                                         and src[j + 2].isdigit())
            ):
                j += 2
                while j < n and src[j].isdigit():
                    j += 1
            try:
                value = float(src[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {src[i:j]!r} at position {i}")
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, src: str, fns: dict):
        self.src = src
        self.fns = fns
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(
                f"expected {kind!r} at position {tok[2]} in {self.src!r}, "
                f"got {tok[0]!r}"
            )
        self.pos += 1
        return tok

    def parse(self):
        fn = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(
                f"trailing input at position {tok[2]} in {self.src!r}"
            )
        return fn

    def _left_assoc(self, operand, ops):
        fn = operand()
        while self.peek()[0] in ops:
            fn = _BINARY[self.take()[0]](fn, operand())
        return fn

    def expr(self):
        return self._left_assoc(self.term, "+-")

    def term(self):
        return self._left_assoc(self.unary, "*/")

    def unary(self):
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.take()
            inner = self.unary()
            if tok[0] == "-":
                return lambda t, u: -inner(t, u)
            return inner
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            exponent = self.unary()
            return lambda t, u, _p=self.fns["^"]: _p(base(t, u), exponent(t, u))
        return base

    def atom(self):
        tok = self.take()
        kind, value, pos = tok
        if kind == "num":
            return lambda t, u, _v=value: _v
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if kind == "name":
            if value in _CONSTANTS:
                return lambda t, u, _v=_CONSTANTS[value]: _v
            if value == "t":
                return lambda t, u: t
            if value == "u":
                return lambda t, u: u
            if value in _FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                f = self.fns[value]
                return lambda t, u, _f=f, _a=arg: _f(_a(t, u))
            raise ExpressionError(
                f"unknown name {value!r} at position {pos} "
                f"(variables: t, u; functions: {_FUNCTIONS})"
            )
        raise ExpressionError(f"unexpected token at position {pos} in {self.src!r}")


def parse_expression(src: str):
    """Compile an expression string to a function of (t, u).

    Raises ExpressionError with the offending position on bad input; the
    returned callable raises ExpressionError on domain faults (sqrt of a
    negative number, a complex power and the like).  ``evaluate.many``
    takes arrays; a batch with a floating-point fault is redone point by
    point, so it raises exactly what the scalar call raises.
    """
    if not isinstance(src, str) or not src.strip():
        raise ExpressionError("expression must be a non-empty string")
    raw = _Parser(src, _MATH).parse()
    raw_many = _Parser(src, _NUMPY).parse()

    def evaluate(t: float, u: float = 0.0) -> float:
        try:
            return float(raw(t, u))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ExpressionError(
                f"evaluation of {src!r} failed at (t={t}, u={u}): {exc}"
            ) from exc

    def many(t, u):
        try:
            with np.errstate(all="raise", under="ignore"):
                return np.asarray(raw_many(t, u), dtype=float)
        except (FloatingPointError, ZeroDivisionError):
            return np.vectorize(evaluate, otypes=[float])(t, u)

    evaluate.source = src
    evaluate.many = many
    return evaluate
