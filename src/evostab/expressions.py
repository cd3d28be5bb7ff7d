"""A small arithmetic-expression parser and compiler for fields.

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
function.  :func:`derivative` differentiates a tree in t once.
:func:`compile_program` compiles a list of trees over a function table
into one straight-line program that computes each distinct subtree once;
every evaluator here runs it over numpy, on arrays or at one point, under
one floating-point guard.  :func:`expression_matrix` and
:func:`expression_path` build the array evaluators of config fields and
paths, and of the built-ins, which are written as expressions too.  No
``eval`` is involved.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .calculus import ScalarPath
from .errors import ExpressionError

_ARITHMETIC = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
               "*": operator.mul, "/": operator.truediv}
# numpy computes a^0.5, a^2 and a^-1 as sqrt(a), a*a and 1/a where the
# exponent is one number (a constant, a 0-d array or one broadcast along
# the loop), but as pow over an array of exponents, and the two can differ
# in the last bit
_SHORTCUTS = (0.5, 2.0, -1.0)


def _power(a, b):
    """np.power(a, b) with the bits of a one-number exponent at every
    point, so a point's bits do not depend on how its exponent is laid
    out."""
    out = np.power(a, b)
    if np.ndim(b) == 0:
        return out
    for x in _SHORTCUTS:
        hit = b == x
        if hit.any():
            hit = np.broadcast_to(hit, out.shape)
            out[hit] = np.power(np.broadcast_to(a, out.shape)[hit], x)
    return out


# log enters only derivative trees; a constant is a read-only 0-d array,
# so an operation on two of them is guarded too, and every call shares it
_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "atan": np.arctan,
          "sqrt": np.sqrt, "^": _power, "log": np.log,
          "num": lambda x: np.broadcast_to(x, ())}
# the programs run under this guard; a fault it raises at a point is an
# ExpressionError, and sends a batch back point by point
_GUARD = {"all": "raise", "under": "ignore"}
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


def compile_program(trees, fns: dict):
    """The function (t, u) -> [the value of each tree] of the list of
    trees ``trees``: Python's + - * / and negation, and the functions and
    ``^`` of the table ``fns``.  It runs one straight-line program over a
    list of values seeded with t, u and the trees' constants (the table's
    "num" of them), in which each distinct subtree (an operation on the
    places of its operands; a constant by its bits, so 0 and -0 differ)
    has one place and is one instruction, run once per call."""
    fns = {**_ARITHMETIC, "num": float, **fns}
    seed, ops, place = [None, None], [], {("t",): 0, ("u",): 1}

    def emit(node):
        num = node[0] == "num"
        key = (("num", node[1].hex()) if num
               else (node[0], *map(emit, node[1:])))
        if key not in place:
            place[key] = len(seed)
            seed.append(fns["num"](node[1]) if num else None)
            if not num:
                i, j = (*key[1:], None)[:2]
                ops.append((fns[node[0]], i, j, place[key]))
        return place[key]

    outs = [emit(tree) for tree in trees]

    def run(t, u):
        v = seed.copy()
        v[0], v[1] = t, u
        for f, i, j, k in ops:
            v[k] = f(v[i]) if j is None else f(v[i], v[j])
        return [v[k] for k in outs]

    return run


_ONE = ("num", 1.0)
# d/dt f(a) = f'(a) a', with f'(a) a tree of a and of the node f(a)
_CHAIN = {
    "sin": lambda a, fa: ("cos", a),
    "cos": lambda a, fa: ("neg", ("sin", a)),
    "exp": lambda a, fa: fa,
    "atan": lambda a, fa: ("/", _ONE, ("+", _ONE, ("*", a, a))),
    "sqrt": lambda a, fa: ("/", ("num", 0.5), fa),
}
_FUNCTIONS = sorted(_CHAIN)


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


def _compiled(tree, name: str, value=None):
    """The evaluator (t, u) -> float of ``tree``'s numpy program on 0-d
    arrays, and its ``.many`` on arrays, under the floating-point guard; a
    fault raises ``value``'s error there, else one naming ``name``, and a
    batch with a fault is redone point by point."""
    run = compile_program([tree], _NUMPY)

    def evaluate(t: float, u: float = 0.0) -> float:
        if value is not None:
            value(t, u)
        try:
            with np.errstate(**_GUARD):
                return float(run(np.asarray(t, dtype=float),
                                 np.asarray(u, dtype=float))[0])
        except FloatingPointError as exc:
            raise ExpressionError(f"evaluation of {name} failed at "
                                  f"(t={t}, u={u}): {exc}") from exc

    def many(t, u):
        t, u = np.asarray(t, dtype=float), np.asarray(u, dtype=float)
        try:
            with np.errstate(**_GUARD):
                return np.asarray(run(t, u)[0], dtype=float)
        except FloatingPointError:
            return np.vectorize(evaluate, otypes=[float])(t, u)

    evaluate.tree, evaluate.many = tree, many
    return evaluate


def parse_expression(src: str):
    """Compile an expression string to a function of (t, u).

    Raises ExpressionError with the offending position on bad input; the
    returned callable raises ExpressionError naming the point on every
    floating-point fault (sqrt of a negative number, an overflow and the
    like).  ``evaluate.many`` is the same program over arrays, so a point
    has the bits of its one-point call, and a faulting batch raises what
    its first faulting point's call raises.  ``evaluate.tree`` is the
    parsed tree, and ``evaluate.reads_u`` says whether the expression has
    a u in it.  ``evaluate.dt`` is the exact t-derivative, with a ``many``
    and a ``tree`` of its own, or None for an expression constant in t:
    where the value faults it raises the value's error, and where only it
    does (sqrt at 0, an overflow) one that names d/dt; it is never
    non-finite.
    """
    if not isinstance(src, str) or not src.strip():
        raise ExpressionError("expression must be a non-empty string")
    tree = parse_tree(src)
    evaluate = _compiled(tree, repr(src))
    evaluate.source, evaluate.reads_u = src, _reads_u(tree)
    d_tree = derivative(tree)
    evaluate.dt = d_tree and _compiled(d_tree, f"d/dt {src!r}", evaluate)
    return evaluate


def parse_entry(src, where: str = ""):
    """:func:`parse_expression` of ``src`` as a string (a config may give
    a number), its errors, and a nesting too deep to parse, prefixed by
    ``where``."""
    try:
        return parse_expression(str(src))
    except (ExpressionError, RecursionError) as exc:
        raise ExpressionError(f"{where}{exc}") from None


def _matrix(fs, r: int):
    """The array evaluator (t, u) -> matrix of the r*r parsed entries fs
    (or their ``dt``), row by row, t and u numbers or arrays broadcast
    together: one program of their trees over numpy, under one
    floating-point guard.  An entry None or the number 0 is not evaluated,
    but filled in.  A fault redoes the entries through their own ``many``,
    so it raises exactly what the scalar call of the first faulting entry
    raises."""
    ks = [k for k, f in enumerate(fs) if f is not None
          and not (f.tree[0] == "num" and str(f.tree[1]) == "0.0")]
    run = compile_program([fs[k].tree for k in ks], _NUMPY)
    fill = np.empty if len(ks) == len(fs) else np.zeros

    def matrix(t, u):
        t, u = np.asarray(t, dtype=float), np.asarray(u, dtype=float)
        try:
            with np.errstate(**_GUARD):
                values = run(t, u)
        except FloatingPointError:
            values = [fs[k].many(t, u) for k in ks]
        shape = np.broadcast(t, u).shape
        out = fill(shape + (r * r,))
        for k, x in zip(ks, values):
            out[..., k] = x
        return out.reshape(shape + (r, r))

    return matrix


def expression_matrix(rows):
    """The array evaluator (t, u) -> matrix of a square list-of-lists of
    expression strings, t and u numbers or arrays broadcast together, with
    its dimension as ``.dim``, its exact t-derivative as ``.partial_t``,
    which leaves the entries constant in t at 0 without evaluating them,
    and as ``.u_independent`` whether no entry has a u in it.  Each of the
    two is one program, so a subexpression that several entries share is
    computed once per call."""
    entries = [parse_entry(s, f"entry [{i}][{j}]: ")
               for i, row in enumerate(rows) for j, s in enumerate(row)]
    matrix = _matrix(entries, len(rows))
    matrix.partial_t = _matrix([f.dt for f in entries], len(rows))
    matrix.dim = len(rows)
    matrix.u_independent = not any(f.reads_u for f in entries)
    return matrix


def expression_path(f, breakpoints=()) -> ScalarPath:
    """The path t -> f(t, 0) of a parsed expression, over an array of
    times in one ``f.many`` call (a constant's one value spread to the
    shape of the times), with its exact derivative (0 where f is
    constant in t)."""
    def value(ts):
        out = f.many(ts, 0.0)
        return out if out.shape == np.shape(ts) else np.full(np.shape(ts), out)

    def slope(ts):
        out = np.zeros(np.shape(ts))
        return out if f.dt is None else out + f.dt.many(ts, 0.0)

    return ScalarPath(eval=value, deriv=slope, breakpoints=breakpoints)
