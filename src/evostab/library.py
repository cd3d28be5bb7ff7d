"""Built-in fields, systems, connections, and extension problems.

These are the named cases the command line refers to; tests use them as
a corpus.  Each field, path and connection is a fragment of expression
strings, in t (x for a connection) and u, that a config could hold as
well: it is compiled once per process, on first use, and built into a
system or connection by the same builders as a config's expressions.
Only the sawtooth path, which needs ``%``, is written out in numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .calculus import Interval, OperatorField, ScalarPath
from .expressions import expression_matrix, expression_path, parse_expression
from .extension import ExtensionProblem
from .operators import EUCLIDEAN, VectorSpaceSpec
from .stability import SeparableSystem
from .transport import ConnectionForm

__all__ = [
    "builtin_system", "constant_matrix", "expression_system",
    "expression_connection", "make_system", "make_scalar_path",
    "make_connection", "make_extension_problem", "BUILTIN_FIELDS",
    "BUILTIN_PATHS", "BUILTIN_CONNECTIONS", "BUILTIN_EXTENSIONS",
]

_TWIST_SYM = np.array([[0.3, 0.1], [0.1, -0.2]])

# G(t, u) of each built-in field
BUILTIN_FIELDS = {
    # slowly settling, with monotone bounded entries; its t-derivative is
    # singular like 1/sqrt(t) at t = 0, which is integrable
    "example39": (("2*atan(t)", "sqrt(t + 1) - sqrt(t)"),
                  ("-1/(1 + t*t)", "1 + exp(-t)")),
    # with f = sin this is x' = cos(t) x
    "intro-cos": (("1",),),
    "constant": (("1",),),  # a matrix can override it in configs
    "rotation": (("0", "1"), ("-1", "0")),
}

# f(t) of each built-in scalar path, with range inside [-1, 1]; the
# sawtooth is written out below
BUILTIN_PATHS = {
    "sin": "sin(t)",
    "sin2t": "sin(2*t)",
    "sin-t-squared": "sin(t*t)",
    "sawtooth": None,
    "constant": "0.25",
}

# omega1(x, u) and omega2(x, u) of each built-in connection, x written t
BUILTIN_CONNECTIONS = {
    "zero": {"omega1": (("0", "0"), ("0", "0")),
             "omega2": (("0", "0"), ("0", "0"))},
    "scalar-decay": {"omega1": (("0", "0"), ("0", "0")),
                     "omega2": (("0.3", "0"), ("0", "0.3"))},
    # flat: the gauge exp(0.1 x u R), R = [[0, 1], [-1, 0]], gives
    # omega1 = -0.1 u R and omega2 = -0.1 x R
    "gauge-rotation": {"omega1": (("0", "-0.1*u"), ("0.1*u", "0")),
                       "omega2": (("0", "-0.1*t"), ("0.1*t", "0"))},
    # flat: the gauge exp(0.2 x R) exp(0.15 u S), S = [[0.3, 0.1],
    # [0.1, -0.2]], gives omega1 = -0.2 R and omega2 = -0.15 e S e^T with
    # e = exp(0.2 x R), written out entry by entry
    "gauge-twist": {
        "omega1": (("0", "-0.2"), ("0.2", "0")),
        "omega2": (
            ("-0.15*(0.3*(cos(0.2*t)*cos(0.2*t)) + 0.2*(cos(0.2*t)*sin(0.2*t))"
             " - 0.2*(sin(0.2*t)*sin(0.2*t)))",
             "-0.15*(0.1*(cos(0.2*t)*cos(0.2*t) - sin(0.2*t)*sin(0.2*t))"
             " - 0.5*(cos(0.2*t)*sin(0.2*t)))"),
            ("-0.15*(0.1*(cos(0.2*t)*cos(0.2*t) - sin(0.2*t)*sin(0.2*t))"
             " - 0.5*(cos(0.2*t)*sin(0.2*t)))",
             "-0.15*(0.3*(sin(0.2*t)*sin(0.2*t)) - 0.2*(cos(0.2*t)*sin(0.2*t))"
             " - 0.2*(cos(0.2*t)*cos(0.2*t)))"))},
    # smooth, bounded and not flat (no gauge oracle)
    "mixed-bounded": {
        "omega1": (("0.3*sin(u)", "0.06*cos(t)"),
                   ("-0.06*cos(t)", "0.3*cos(u)")),
        "omega2": (("0.15*cos(t)", "0.15*sin(t)"),
                   ("0.15*sin(t)", "-0.15*cos(t)"))},
}

# the connection of each built-in extension problem, on [-2, 2] x [-2, 2]
BUILTIN_EXTENSIONS = {
    # the gauge exp(0.25 x u R)
    "extension-gauge": {"omega1": (("0", "-0.25*u"), ("0.25*u", "0")),
                        "omega2": (("0", "-0.25*t"), ("0.25*t", "0"))},
    "extension-twist": BUILTIN_CONNECTIONS["gauge-twist"],
}


# the expression matrix of a fragment's rows, once per process
_compiled = functools.cache(expression_matrix)


def expression_system(G, f: ScalarPath, I: Interval, J: Interval,
                      norm_kind: str = EUCLIDEAN,
                      G_breakpoints=()) -> SeparableSystem:
    """The separable system of an expression matrix G
    (:func:`~evostab.expressions.expression_matrix`) and a scalar path f
    on I x J: the one builder of config and built-in systems."""
    space = VectorSpaceSpec(G.dim, norm_kind)
    field = OperatorField(eval=G, space=space, partial_t=G.partial_t,
                          t_breakpoints=G_breakpoints,
                          u_independent=G.u_independent)
    return SeparableSystem(G=field, f=f, I=I, J=J, space=space)


def expression_connection(omega1, omega2, m_interval: Interval,
                          j_interval: Interval,
                          norm_kind: str = EUCLIDEAN) -> ConnectionForm:
    """The connection form of two expression matrices on M x J, with
    omega2's exact t-derivative as d/dx omega2: the one builder of config
    and built-in connections."""
    return ConnectionForm(
        omega1=omega1, omega2=omega2, m_interval=m_interval,
        j_interval=j_interval, space=VectorSpaceSpec(omega1.dim, norm_kind),
        d1_omega2=omega2.partial_t)


def constant_matrix(matrix):
    """The expression matrix equal to ``matrix`` everywhere, its entries
    written as the numbers they are."""
    return expression_matrix([[repr(x) for x in row] for row in
                              np.asarray(matrix, dtype=float).tolist()])


def _triangle_wave(t) -> np.ndarray:
    s = (t - 1.0) % 4.0
    return np.where(s <= 2.0, 1.0 - s, s - 3.0)


def _triangle_deriv(t) -> np.ndarray:
    s = (t - 1.0) % 4.0
    return np.where(s < 2.0, -1.0, 1.0)


def _triangle_breakpoints(lo: float, hi: float) -> tuple:
    # breakpoint lists must be finite: for unbounded windows cover the
    # first 1024 time units, ample for every shipped scenario window
    hi = min(hi, lo + 1024.0)
    first = math.ceil((lo - 1.0) / 2.0)
    return tuple(1.0 + 2.0 * k for k in range(first, int((hi - 1.0) // 2) + 1)
                 if lo < 1.0 + 2.0 * k < hi)


_parsed = functools.cache(parse_expression)


def make_scalar_path(name: str, window: Interval) -> ScalarPath:
    """Named scalar paths with range inside [-1, 1] on the window."""
    if name not in BUILTIN_PATHS:
        raise KeyError(f"unknown scalar path {name!r}")
    if name == "sawtooth":
        return ScalarPath(eval=_triangle_wave, deriv=_triangle_deriv,
                          breakpoints=_triangle_breakpoints(window.lo, window.hi))
    return expression_path(_parsed(BUILTIN_PATHS[name]))


def builtin_system(G, norm_kind: str = EUCLIDEAN,
                   f_name: str = "sin") -> SeparableSystem:
    """The separable system over I = [0, inf), J = [-1, 1] of an
    expression matrix G and a named scalar path."""
    I = Interval(0.0, math.inf)
    return expression_system(G, make_scalar_path(f_name, I), I,
                             Interval(-1.0, 1.0), norm_kind)


def make_system(field_name: str, norm_kind: str = EUCLIDEAN,
                f_name: str = "sin") -> SeparableSystem:
    """A named separable system over I = [0, inf), J = [-1, 1]."""
    return builtin_system(_compiled(BUILTIN_FIELDS[field_name]), norm_kind,
                          f_name)


# ---------------------------------------------------------------------------
# connections


def _connection(fragment, m_interval, j_interval, norm_kind):
    return expression_connection(_compiled(fragment["omega1"]),
                                 _compiled(fragment["omega2"]),
                                 m_interval, j_interval, norm_kind)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def gauge_rotation_matrix(x: float, u: float, eps: float = 0.1) -> np.ndarray:
    return _rot(eps * x * u)


def gauge_twist_matrix(x: float, u: float, ax: float = 0.2,
                       au: float = 0.15) -> np.ndarray:
    from scipy.linalg import expm
    return _rot(ax * x) @ expm(au * u * _TWIST_SYM)


def make_connection(name: str, m_interval: Interval = None,
                    j_interval: Interval = None,
                    norm_kind: str = EUCLIDEAN) -> ConnectionForm:
    if name not in BUILTIN_CONNECTIONS:
        raise KeyError(f"unknown connection {name!r}")
    # by default the sine curve's rectangle
    m = m_interval if m_interval is not None else Interval(-1.05, 0.0)
    j = j_interval if j_interval is not None else Interval(-1.3, 1.3)
    return _connection(BUILTIN_CONNECTIONS[name], m, j, norm_kind)


# ---------------------------------------------------------------------------
# extension problems


def make_extension_problem(name: str = "extension-gauge",
                           norm_kind: str = EUCLIDEAN) -> ExtensionProblem:
    """The shipped extension scenario: a gauge-flat connection on
    [-2, 2] x [-2, 2] and the oscillating graph f(x) = sin(1/x) for x > 0,
    confined to the strip (-1.5, 1.5)."""
    if name not in BUILTIN_EXTENSIONS:
        raise KeyError(f"unknown extension problem {name!r}")
    square = Interval(-2.0, 2.0)
    return ExtensionProblem(
        omega=_connection(BUILTIN_EXTENSIONS[name], square, square,
                          norm_kind),
        f=lambda x: math.sin(1.0 / x),
        a=0.0, v0=-1.5, v1=1.5,
        sigma_seed=np.array([1.0, 0.5]),
        p_ref=(-1.0, 0.0),
    )


def extension_gauge_oracle(p_x: float, p_v: float, name: str,
                           p_ref: tuple, seed: np.ndarray) -> np.ndarray:
    """Closed-form parallel section of the gauge-flat extension problems."""
    if name == "extension-gauge":
        g = lambda x, u: gauge_rotation_matrix(x, u, eps=0.25)
    else:
        g = gauge_twist_matrix
    return g(p_x, p_v) @ np.linalg.inv(g(*p_ref)) @ np.asarray(seed)
