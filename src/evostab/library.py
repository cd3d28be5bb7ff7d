"""Built-in fields, systems, connections, and extension problems.

These are the named cases the command line refers to; tests use them as
a corpus.  Everything is plain construction, no computation here.
"""

from __future__ import annotations

import math

import numpy as np

from .calculus import Interval, OperatorField, ScalarPath, _spread, libm
from .extension import ExtensionProblem
from .operators import EUCLIDEAN, VectorSpaceSpec
from .stability import SeparableSystem
from .transport import ConnectionForm

__all__ = [
    "example39_field", "intro_cos_field", "rotation_field", "constant_field",
    "make_system", "make_scalar_path", "make_connection",
    "make_extension_problem", "BUILTIN_FIELDS", "BUILTIN_PATHS",
    "BUILTIN_CONNECTIONS", "BUILTIN_EXTENSIONS", "ROTATION_GENERATOR",
]

ROTATION_GENERATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])
_TWIST_SYM = np.array([[0.3, 0.1], [0.1, -0.2]])


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _constant(m):
    """The array evaluator of a field equal to the matrix m everywhere; m
    is read-only, as a call at a single point returns m itself."""
    m = np.array(m, dtype=float)
    m.flags.writeable = False
    return lambda t, u: _spread(m, np.asarray(t)[..., None, None],
                                np.asarray(u)[..., None, None])


def _mat2(shape, a, b, c, d) -> np.ndarray:
    """The 2x2 matrices [[a, b], [c, d]] over the points of ``shape``, from
    entries that broadcast to it."""
    out = np.empty(shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def example39_field(norm_kind: str = EUCLIDEAN) -> OperatorField:
    """The 2x2 slowly-settling field with monotone bounded entries
    (arctan / square-root gap / rational / exponential), independent of
    the second variable; its t-derivative is analytic (singular like
    1/sqrt(t) at t = 0, which is integrable).

    Both evaluators apply libm per element (:func:`libm`: math's atan and
    exp, and pow for the square in dG/dt) and run the algebra in numpy, so
    they have the same bits as math's per-point formula.  The square roots
    that bound the domain are numpy's, correctly rounded as math's are,
    unless a t is outside it: then they are math's, so that G at t < 0
    and dG/dt at t <= -1 raise its ValueError or ZeroDivisionError."""
    space = VectorSpaceSpec(2, norm_kind)

    def val(t, u):
        t = np.asarray(t, dtype=float)
        root = libm(math.sqrt, t) if (t < 0.0).any() else np.sqrt(t)
        return _mat2(np.broadcast(t, u).shape,
                     2.0 * libm(math.atan, t), np.sqrt(t + 1.0) - root,
                     -1.0 / (1.0 + t * t), 1.0 + libm(math.exp, -t))

    def d_dt(t, u):
        t = np.asarray(t, dtype=float)
        head = (libm(lambda x: 0.5 / math.sqrt(x + 1.0), t)
                if (t <= -1.0).any() else 0.5 / np.sqrt(t + 1.0))
        # 0.5 / sqrt(t) where t > 0, and 0.5 / sqrt(inf) = 0 elsewhere
        root = head - 0.5 / np.sqrt(np.where(t > 0.0, t, np.inf))
        q = 1.0 + t * t
        # libm's pow, as the formula's q ** 2: q * q differs from it in the
        # last bit for about one t in 1,200 on [0, 100]
        return _mat2(np.broadcast(t, u).shape,
                     2.0 / q, root,
                     2.0 * t / libm(lambda x: x ** 2, q), -libm(math.exp, -t))

    return OperatorField(eval=val, space=space, partial_t=d_dt,
                         u_independent=True)


def intro_cos_field(norm_kind: str = EUCLIDEAN) -> OperatorField:
    """The scalar unit field: with f = sin this reproduces x' = cos(t) x."""
    return constant_field(np.array([[1.0]]), norm_kind)


def rotation_field(norm_kind: str = EUCLIDEAN) -> OperatorField:
    """Constant rotation generator as a 2x2 field."""
    return constant_field(ROTATION_GENERATOR, norm_kind)


def constant_field(matrix: np.ndarray, norm_kind: str = EUCLIDEAN) -> OperatorField:
    m = np.asarray(matrix, dtype=float)
    space = VectorSpaceSpec(m.shape[0], norm_kind)
    return OperatorField(
        eval=_constant(m),
        space=space,
        partial_t=_constant(np.zeros_like(m)),
        u_independent=True,
    )


BUILTIN_FIELDS = {
    "example39": example39_field,
    "intro-cos": intro_cos_field,
    "constant": intro_cos_field,  # alias; a matrix can override it in configs
    "rotation": rotation_field,
}


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


def make_scalar_path(name: str, window: Interval) -> ScalarPath:
    """Named scalar paths with range inside [-1, 1] on the window."""
    if name == "sin":
        return ScalarPath(eval=np.sin, deriv=np.cos)
    if name == "sin2t":
        return ScalarPath(eval=lambda t: libm(math.sin, 2.0 * t),
                          deriv=lambda t: 2.0 * libm(math.cos, 2.0 * t))
    if name == "sin-t-squared":
        return ScalarPath(eval=lambda t: libm(math.sin, t * t),
                          deriv=lambda t: 2.0 * t * libm(math.cos, t * t))
    if name == "sawtooth":
        return ScalarPath(eval=_triangle_wave, deriv=_triangle_deriv,
                          breakpoints=_triangle_breakpoints(window.lo, window.hi))
    if name == "constant":
        return ScalarPath(eval=lambda t: np.full(np.shape(t), 0.25),
                          deriv=lambda t: np.zeros(np.shape(t)))
    raise KeyError(f"unknown scalar path {name!r}")


BUILTIN_PATHS = ("sin", "sin2t", "sin-t-squared", "sawtooth", "constant")


def make_system(field_name: str, norm_kind: str = EUCLIDEAN,
                f_name: str = "sin") -> SeparableSystem:
    """A named separable system over I = [0, inf), J = [-1, 1]."""
    field = BUILTIN_FIELDS[field_name](norm_kind)
    I = Interval(0.0, math.inf)
    f = make_scalar_path(f_name, I)
    return SeparableSystem(G=field, f=f, I=I, J=Interval(-1.0, 1.0),
                           space=field.space)


# ---------------------------------------------------------------------------
# connections

_SINE_RECT = (Interval(-1.05, 0.0), Interval(-1.3, 1.3))


def _zero_connection(m_interval, j_interval, norm_kind):
    space = VectorSpaceSpec(2, norm_kind)
    z = _constant(np.zeros((2, 2)))
    return ConnectionForm(
        omega1=z, omega2=z,
        m_interval=m_interval, j_interval=j_interval, space=space,
        d1_omega2=z,
    )


def _scalar_decay_connection(m_interval, j_interval, norm_kind, rate=0.3):
    space = VectorSpaceSpec(2, norm_kind)
    z = _constant(np.zeros((2, 2)))
    return ConnectionForm(
        omega1=z,
        omega2=_constant(rate * np.eye(2)),
        m_interval=m_interval, j_interval=j_interval, space=space,
        d1_omega2=z,
    )


def _gauge_rotation_connection(m_interval, j_interval, norm_kind, eps=0.1):
    """Flat by construction: the gauge is g(x, u) = exp(eps x u R), so
    omega1 = -eps u R and omega2 = -eps x R."""
    space = VectorSpaceSpec(2, norm_kind)
    R = ROTATION_GENERATOR

    def omega1(xs, us):
        return (-eps * _spread(us, xs))[..., None, None] * R

    def omega2(xs, us):
        return (-eps * _spread(xs, us))[..., None, None] * R

    return ConnectionForm(
        omega1=omega1, omega2=omega2,
        m_interval=m_interval, j_interval=j_interval, space=space,
        d1_omega2=_constant(-eps * R),
    )


def gauge_rotation_matrix(x: float, u: float, eps: float = 0.1) -> np.ndarray:
    return _rot(eps * x * u)


def _gauge_twist_connection(m_interval, j_interval, norm_kind,
                            ax=0.2, au=0.15):
    """Flat by construction: g(x, u) = exp(ax x R) exp(au u S), so
    omega1 = -ax R and omega2 = -au e S e^T with e = exp(ax x R)."""
    space = VectorSpaceSpec(2, norm_kind)
    R = ROTATION_GENERATOR
    S = _TWIST_SYM

    def frame(xs, us):  # e S e^T over the points, e as _rot(ax x) builds it
        xs = _spread(xs, us)
        c, s = np.cos(ax * xs), np.sin(ax * xs)
        e = np.empty(xs.shape + (2, 2))
        e[..., 0, 0], e[..., 0, 1], e[..., 1, 1] = c, s, c
        np.negative(s, out=e[..., 1, 0])
        return e @ S @ np.swapaxes(e, -1, -2)

    def d1_omega2(xs, us):
        m = frame(xs, us)
        return -au * ax * (R @ m - m @ R)

    return ConnectionForm(
        omega1=_constant(-ax * R),
        omega2=lambda xs, us: -au * frame(xs, us),
        m_interval=m_interval, j_interval=j_interval, space=space,
        d1_omega2=d1_omega2,
    )


def gauge_twist_matrix(x: float, u: float, ax: float = 0.2,
                       au: float = 0.15) -> np.ndarray:
    from scipy.linalg import expm
    return _rot(ax * x) @ expm(au * u * _TWIST_SYM)


def _mixed_bounded_connection(m_interval, j_interval, norm_kind,
                              c1=0.3, c2=0.15):
    """A smooth bounded non-flat connection (no gauge oracle)."""
    space = VectorSpaceSpec(2, norm_kind)

    def omega1(x, u):
        cx = 0.2 * libm(math.cos, x)
        return c1 * _mat2(np.broadcast(x, u).shape,
                          libm(math.sin, u), cx, -cx, libm(math.cos, u))

    def omega2(x, u):
        cx, sx = libm(math.cos, x), libm(math.sin, x)
        return c2 * _mat2(np.broadcast(x, u).shape, cx, sx, sx, -cx)

    def d1_omega2(x, u):
        cx, sx = libm(math.cos, x), libm(math.sin, x)
        return c2 * _mat2(np.broadcast(x, u).shape, -sx, cx, cx, sx)

    return ConnectionForm(
        omega1=omega1, omega2=omega2,
        m_interval=m_interval, j_interval=j_interval, space=space,
        d1_omega2=d1_omega2,
    )


BUILTIN_CONNECTIONS = {
    "zero": _zero_connection,
    "scalar-decay": _scalar_decay_connection,
    "gauge-rotation": _gauge_rotation_connection,
    "gauge-twist": _gauge_twist_connection,
    "mixed-bounded": _mixed_bounded_connection,
}


def make_connection(name: str, m_interval: Interval = None,
                    j_interval: Interval = None,
                    norm_kind: str = EUCLIDEAN) -> ConnectionForm:
    if name not in BUILTIN_CONNECTIONS:
        raise KeyError(f"unknown connection {name!r}")
    m = m_interval if m_interval is not None else _SINE_RECT[0]
    j = j_interval if j_interval is not None else _SINE_RECT[1]
    return BUILTIN_CONNECTIONS[name](m, j, norm_kind)


# ---------------------------------------------------------------------------
# extension problems


def make_extension_problem(name: str = "extension-gauge",
                           norm_kind: str = EUCLIDEAN) -> ExtensionProblem:
    """The shipped extension scenario: a gauge-flat connection on
    [-2, 2] x [-2, 2] and the oscillating graph f(x) = sin(1/x) for x > 0,
    confined to the strip (-1.5, 1.5)."""
    if name not in BUILTIN_EXTENSIONS:
        raise KeyError(f"unknown extension problem {name!r}")
    m = Interval(-2.0, 2.0)
    j = Interval(-2.0, 2.0)
    if name == "extension-gauge":
        omega = _gauge_rotation_connection(m, j, norm_kind, eps=0.25)
    else:  # extension-twist
        omega = _gauge_twist_connection(m, j, norm_kind)
    a = 0.0
    return ExtensionProblem(
        omega=omega,
        f=lambda x: math.sin(1.0 / (x - a)),
        a=a, v0=-1.5, v1=1.5,
        sigma_seed=np.array([1.0, 0.5]),
        p_ref=(-1.0, 0.0),
    )


BUILTIN_EXTENSIONS = ("extension-gauge", "extension-twist")


def extension_gauge_oracle(p_x: float, p_v: float, name: str,
                           p_ref: tuple, seed: np.ndarray) -> np.ndarray:
    """Closed-form parallel section of the gauge-flat extension problems."""
    if name == "extension-gauge":
        g = lambda x, u: gauge_rotation_matrix(x, u, eps=0.25)
    else:
        g = gauge_twist_matrix
    return g(p_x, p_v) @ np.linalg.inv(g(*p_ref)) @ np.asarray(seed)
