"""Scalar and operator-valued 1-D calculus.

Adaptive Gauss-Kronrod quadrature (pre-split at declared breakpoints),
piecewise-C1 paths and fields with their exact derivatives, total
variation as the integral of the derivative's norm, arc length, and the
numerical change-of-variables identity

    int_s^t f'(tau) y(f(tau)) dtau  =  int_{f(s)}^{f(t)} y(u) du.

Integrands may return floats or ndarrays; the quadrature accumulates
componentwise and measures segment errors in the max-abs sense, so a
family of integrals (one per time, say) is integrated on shared panels.
The engine evaluates all 15 nodes of a panel in one call: node by node
for ``integrate``, and in one array call for the certificate's
u-integrals over a family of times (``OperatorField.eval`` and
``d1_many``), for derivative-mode variation, and for the path integrands
of arc length and the change of variables (``ScalarPath.eval`` and
``d_many``).  A non-finite panel raises QuadratureError naming it.

Every path and field here has one evaluator, over arrays, and one of its
exact derivative, which its builder supplies: nothing here differentiates
numerically.  A source that only gives one point at a time goes through
:func:`stacked` (paths) or :func:`pointwise` (fields).
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainViolationError, QuadratureError
from .operators import EUCLIDEAN, VectorSpaceSpec, matrix_norm

DEFAULT_TOL = 1e-10

# 15-point Kronrod nodes on [-1, 1] and weights, with the embedded
# 7-point Gauss rule on the odd-indexed nodes.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_KRONROD_ROW = _KRONROD_WEIGHTS.reshape(1, 15)
_GAUSS_ROW = _GAUSS_WEIGHTS.reshape(1, 7)
# QUADPACK's roundoff floor, per unit of magnitude: the Kronrod-Gauss gap
# does not settle below it (15.5 eps on a constant, from 15-digit weights)
_ROUNDOFF = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Interval:
    """A closed interval; endpoints may be -inf/+inf for domains that are
    only sampled on compact windows."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    def length(self) -> float:
        return self.hi - self.lo

    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, t: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= t <= self.hi + tol

    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def first_outside(self, ts: np.ndarray, rel_tol: float) -> Optional[int]:
        """Index of the first of the (non-empty) values ts that ``contains``
        rejects with tol = rel_tol * max(1, |t|), or None."""
        if self.lo <= ts.min() and ts.max() <= self.hi:  # False on a NaN
            return None
        tol = rel_tol * np.maximum(1.0, np.abs(ts))
        inside = (self.lo - tol <= ts) & (ts <= self.hi + tol)
        return None if inside.all() else int(np.argmin(inside))


@dataclass(frozen=True)
class Partition:
    """Strictly increasing points a_0 < ... < a_n inside an interval."""

    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 1 or any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("partition points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def mesh(self) -> float:
        if self.n == 0:
            return 0.0
        return max(b - a for a, b in zip(self.points, self.points[1:]))

    @staticmethod
    def uniform(lo: float, hi: float, n: int) -> "Partition":
        return Partition(tuple(np.linspace(lo, hi, n + 1)))


def stacked(fn: Callable[[float], object]):
    """The array evaluator of a pointwise source t -> fn(t), for a
    :class:`ScalarPath` or a ``CoefficientPath``: fn at each time of the
    array, one call each, stacked on a new leading axis."""
    def eval_each(ts):
        return np.array([fn(t) for t in np.asarray(ts, dtype=float).tolist()],
                        dtype=float)
    return eval_each


def pointwise(fn: Callable[[float, float], np.ndarray]):
    """The array evaluator of a pointwise field source (t, u) -> fn(t, u),
    an (r, r) matrix, for an :class:`OperatorField` or a connection form:
    fn at each point of the arrays t and u, broadcast against each other,
    one call each, of shape broadcast(t, u) + (r, r)."""
    def eval_each(t, u):
        t, u = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(u, dtype=float))
        vals = np.array([fn(a, b) for a, b in zip(t.ravel().tolist(),
                                                  u.ravel().tolist())],
                        dtype=float)
        return vals.reshape(t.shape + vals.shape[1:])
    return eval_each


@dataclass(frozen=True)
class ScalarPath:
    """A piecewise-C1 real (or vector-valued) function of one variable.

    ``eval(ts)`` maps a 1-D array of times to the array of the values
    over them, (len(ts),) or (len(ts), k) for a vector-valued path, and
    ``deriv(ts)``, the exact derivative, does the same for it.
    Within 1e-14 relative of a declared breakpoint the derivative is
    defined to be 0 (the value there never matters for integrals, but
    point queries are reproducible this way).  A source that only gives
    one time at a time goes through :func:`stacked`.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple = ()

    def __post_init__(self):
        bps = tuple(sorted(float(b) for b in self.breakpoints))
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)

    def __call__(self, t: float):
        """f(t): row 0 of the one-time array."""
        return np.asarray(self.eval(np.array([float(t)])), dtype=float)[0]

    def d(self, t: float):
        """f'(t): row 0 of :meth:`d_many` at the one time."""
        return self.d_many(np.array([float(t)]))[0]

    def d_many(self, ts: np.ndarray) -> np.ndarray:
        """The derivative at the times in ts: 0 within the snapping
        distance of a breakpoint, where nothing is evaluated, and from
        ``deriv`` elsewhere."""
        if not self.breakpoints:
            return np.asarray(self.deriv(ts), dtype=float)
        bps = np.asarray(self.breakpoints)
        i = np.searchsorted(bps, ts)
        keep = np.ones(ts.shape, dtype=bool)
        for j in (np.maximum(i - 1, 0), np.minimum(i, len(bps) - 1)):
            b = bps[j]
            keep &= np.abs(ts - b) > 1e-14 * np.maximum(1.0, np.abs(b))
        if keep.all():
            return np.asarray(self.deriv(ts), dtype=float)
        kept = np.asarray(self.deriv(ts[keep]), dtype=float)
        out = np.zeros(ts.shape + kept.shape[1:])
        out[keep] = kept
        return out


@dataclass(frozen=True)
class OperatorField:
    """An operator-valued function of (t, u), continuous in u for each t.

    ``eval(ts, us)`` takes arrays of t and u that broadcast against each
    other and returns the stack of G(t, u) over them, of shape
    broadcast(ts, us) + (r, r); ``partial_t``, the exact t-derivative,
    takes and returns the same.  A source that only gives one point at a
    time goes through :func:`pointwise`.  ``u_independent`` marks fields
    G(t, u) that do not depend on u, unlocking exact shortcuts for the
    L1-in-u norm and the variation computation; an expression field
    derives it from its entries.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    space: VectorSpaceSpec
    partial_t: Callable[[np.ndarray, np.ndarray], np.ndarray]
    t_breakpoints: tuple = ()
    u_independent: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "t_breakpoints", tuple(sorted(float(b) for b in self.t_breakpoints))
        )

    def d1_many(self, t, us) -> np.ndarray:
        """The stack of the partial derivatives in t, broadcast as in
        ``eval``: ``partial_t``'s, as an array."""
        return np.asarray(self.partial_t(t, us), dtype=float)


@dataclass
class QuadStats:
    """Deterministic quadrature counters: the Gauss-Kronrod panels
    evaluated, and the integrand values they took: 15 per panel and
    component, the members of a family of integrals being its components."""

    quad_panels: int = 0
    quad_nodes: int = 0
    # not a field, as not a counter: the largest tolerance that the
    # roundoff floor raised an integral's to
    raised_tol = 0.0


def _gk15(gv, cuts, stats: Optional[QuadStats] = None):
    """Gauss-Kronrod 15(7) panels between consecutive cuts: returns the
    list of their (kronrod value, error est, largest |kronrod value|).

    ``gv`` maps an array of nodes to their values stacked on axis 0.  It
    takes every panel's nodes in one call.  Each panel's sums are a dot
    of its own rows (a joint dot moves last bits), the rest is formed for
    all panels at once, and values, estimates and counts are those of a
    call per panel.  If that call raises, the panels take a call each, in
    order, and the first one that fails raises.  The Kronrod-Gauss gap is
    the error estimate as-is: conservative on resolved panels, it costs
    an extra bisection level, never a silently optimistic result.  A
    non-finite value makes it non-finite, which raises QuadratureError
    naming the first such panel, after those before it are counted: a
    NaN estimate would otherwise pass every refinement test.  An
    integrand with no components counts no panel.
    """
    n = len(cuts) - 1
    half = np.array([0.5 * (b - a) for a, b in zip(cuts, cuts[1:])])[:, None]
    nodes = np.array([0.5 * (a + b) for a, b in zip(cuts, cuts[1:])])[
        :, None] + half * _KRONROD_NODES
    try:
        batch = np.asarray(gv(nodes.ravel()), dtype=float)
    except Exception:
        if n == 1:
            raise
        return [panel for a, b in zip(cuts, cuts[1:])
                for panel in _gk15(gv, (a, b), stats)]
    rows = batch.reshape(n, 15, -1)
    k, g7 = np.empty((n, rows.shape[2])), np.empty((n, rows.shape[2]))
    for i in range(n):
        np.dot(_KRONROD_ROW, rows[i], out=k[i:i + 1])
        np.dot(_GAUSS_ROW, rows[i, 1::2], out=g7[i:i + 1])
    k, g7 = k * half, g7 * half
    err = np.abs(k - g7).max(axis=1, initial=0.0).tolist()
    mag = np.abs(k).max(axis=1, initial=0.0).tolist()
    k = k.reshape((n,) + batch.shape[1:])
    good = next((i for i, e in enumerate(err) if not math.isfinite(e)), n)
    if stats is not None and rows[0].size:
        stats.quad_panels += good
        stats.quad_nodes += good * rows[0].size
    if good < n:
        raise QuadratureError(f"non-finite integrand on the panel "
                              f"[{cuts[good]}, {cuts[good + 1]}]",
                              k[good], err[good])
    return list(zip(k, err, mag))


def _initial_cuts(lo: float, hi: float, breakpoints: Sequence[float]):
    inner = sorted(b for b in set(map(float, breakpoints)) if lo < b < hi)
    return [lo, *inner, hi]


def _values(y):
    """The node evaluator of a pointwise integrand: y at each node, one
    call each, stacked on axis 0."""
    return lambda xs: np.stack([np.asarray(y(x), dtype=float) for x in xs])


def integrate(
    g: Callable[[float], object],
    interval: Interval,
    breakpoints: Sequence[float] = (),
    tol: float = DEFAULT_TOL,
    max_segments: int = 4096,
):
    """Adaptive quadrature of g over a finite interval.

    The interval is first split at the declared breakpoints, then the
    segment with the worst error estimate is bisected until the summed
    estimate drops below ``tol`` (absolute).  Raises QuadratureError with
    the best estimate when the segment budget is exhausted.  g is called
    at one node at a time, each panel's nodes in one call of the node
    evaluator, which a bisection's two halves share.
    """
    return _integrate_nodes(_values(g), interval, breakpoints, tol,
                            max_segments)


def _integrate_nodes(gv, interval: Interval, breakpoints=(),
                     tol: float = DEFAULT_TOL, max_segments: int = 4096,
                     stats: Optional[QuadStats] = None):
    """``integrate`` of gv, which stacks the values at an array of nodes.

    Array values integrate a family of integrals on shared panels: a
    panel's error estimate is the largest over the family, so the summed
    estimate of each member stays below ``tol``.  ``stats``, if given,
    counts the panels and integrand values.  gv takes each panel's nodes
    in one call, which the initial panels share, and so do the two
    halves of each bisection (see _gk15): the split sequence, values,
    counters and errors are those of one call per panel.  It accepts at
    max(tol, _ROUNDOFF * the summed magnitudes of the panels).
    """
    if not interval.is_finite():
        raise DomainViolationError("quadrature requested over an unbounded interval")
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        v = np.asarray(gv(np.array([lo])), dtype=float)[0] * 0.0
        return float(v) if np.ndim(v) == 0 else v
    cuts = _initial_cuts(lo, hi, breakpoints)
    heap = []           # (-err, id, a, b), worst segment on top
    seg_values = {}     # id -> (value, err, magnitude)
    counter = 0
    total_err = magnitude = 0.0
    while True:
        for a, b, panel in zip(cuts, cuts[1:], _gk15(gv, cuts, stats)):
            heapq.heappush(heap, (-panel[1], counter, a, b))
            seg_values[counter] = panel
            counter += 1
            total_err += panel[1]
            magnitude += panel[2]
        floor = _ROUNDOFF * magnitude
        if not total_err > max(tol, floor):
            if floor > tol and stats is not None:
                stats.raised_tol = max(stats.raised_tol, floor)
            break
        if len(heap) >= max_segments:
            raise QuadratureError(
                f"quadrature did not converge: error bound {total_err:.3e} "
                f"> tol {tol:.3e} with {len(heap)} segments",
                _segment_total(seg_values), total_err,
            )
        _, idx, a, b = heapq.heappop(heap)
        _, err, mag = seg_values.pop(idx)
        total_err, magnitude = total_err - err, magnitude - mag
        cuts = (a, 0.5 * (a + b), b)
    total = _segment_total(seg_values)
    if np.ndim(total) == 0:
        return float(total)
    return total


def _segment_total(seg_values):
    return functools.reduce(operator.add, (v[0] for v in seg_values.values()))


def _oriented(quad, g, s, t, *args, **kwargs):
    """quad(g, interval, *args, **kwargs) over the interval between s and
    t, negated when t < s."""
    val = quad(g, Interval(min(s, t), max(s, t)), *args, **kwargs)
    return val if s <= t else -val


def l1_norm_in_u(
    G: OperatorField,
    t,
    J: Interval,
    tol: float = DEFAULT_TOL,
    stats: Optional[QuadStats] = None,
):
    """int_J ||G(t, u)|| du, the L1-in-u operator norm at time t.

    An array of times gives the array of their norms, integrated together
    on shared panels, each within ``tol``; a scalar t is row 0 of the
    one-time array.  ``stats`` counts the panels as in _integrate_nodes.
    """
    if not J.is_finite():
        raise DomainViolationError("L1 norm requested over an unbounded interval")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    kind = G.space.norm_kind
    if G.u_independent:
        norms = J.length() * matrix_norm(G.eval(ts, J.midpoint()), kind)
    else:
        norms = _integrate_nodes(
            lambda us: matrix_norm(G.eval(ts, us[:, None]), kind),
            J, (), tol, stats=stats)
    return norms if np.ndim(t) else float(norms[0])


def total_variation_path(
    deriv: Callable[[np.ndarray], np.ndarray],
    interval: Interval,
    breakpoints: Sequence[float] = (),
    tol: float = DEFAULT_TOL,
    norm_kind: str = EUCLIDEAN,
    stats: Optional[QuadStats] = None,
) -> float:
    """Total variation of an operator path t -> G(t) on a finite interval:
    int ||G'|| by quadrature, the derivative taken over each panel's
    nodes in one call, shared by the two halves of a bisection
    (``stats`` counts the panels).  ``deriv``, the exact G', maps an
    array of times to the stack of the matrices there.  An unbounded
    variation gives QuadratureError, not a value: its panels run out, or
    close in on a point where G' is not finite.
    """
    if not interval.is_finite():
        raise DomainViolationError("variation requested over an unbounded interval")
    return _integrate_nodes(lambda ts: matrix_norm(deriv(ts), norm_kind),
                            interval, breakpoints, tol, stats=stats)


def refine_until_stable(levels, stable):
    """Walk a refinement from coarse to fine until it settles.

    ``levels`` yields (level, value) pairs, each from its own
    refinement, and ends where the caller's budget does;
    ``stable(previous, value)`` is the caller's stop test.  Returns
    (value, level, converged): the first value the test accepts and its
    level, or else the last value and level with converged False.
    """
    levels = iter(levels)
    level, prev = next(levels)
    for level, value in levels:
        if stable(prev, value):
            return value, level, True
        prev = value
    return prev, level, False


def tv_l1_upper_bound(
    G: OperatorField,
    I: Interval,
    J: Interval,
    tol: float = DEFAULT_TOL,
    stats: Optional[QuadStats] = None,
) -> float:
    """Upper bound for the variation of t -> G(t, .) in the L1(J) metric:
    the double integral of ||d/dt G(t, u)|| over I x J, by iterated
    adaptive quadrature, each panel's nodes in one call, shared by the
    two halves of a bisection.  Each outer panel takes its 15 inner
    integrals as one family on u-panels of its own, even where two outer
    panels share a call; ``stats`` counts the panels of both.
    A field that does not depend on u gives lambda(J) times the variation
    of t -> G(t, mid J), one integral.  d/dt G is ``G.d1_many``."""
    if not (I.is_finite() and J.is_finite()):
        raise DomainViolationError("double integral over an unbounded rectangle")
    kind = G.space.norm_kind
    if G.u_independent:
        return J.length() * total_variation_path(
            lambda ts: G.d1_many(ts, J.midpoint()), I, G.t_breakpoints,
            tol, kind, stats)
    # keep the inner integrals well below the outer tolerance so that the
    # outer error estimate is not noise-limited
    inner_tol = tol / (100.0 * max(I.length(), 1.0))

    def family(ts):
        return _integrate_nodes(
            lambda us: matrix_norm(G.d1_many(ts, us[:, None]), kind),
            J, (), inner_tol, stats=stats)

    def inner(ts):
        # the outer panels share a call, but each one's 15 times stay a
        # family of their own, on u-panels of their own
        return np.concatenate([family(ts[i:i + 15])
                               for i in range(0, len(ts), 15)])

    return _integrate_nodes(inner, I, G.t_breakpoints, tol, stats=stats)


def arc_length(gamma: ScalarPath, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Arc length of a piecewise-C1 path on [a, b] (total variation of the
    path; euclidean length when the path is vector-valued)."""

    def speed(ts):
        v = gamma.d_many(ts)
        return np.abs(v) if v.ndim == 1 else np.linalg.norm(v, axis=-1)

    return _integrate_nodes(speed, Interval(min(a, b), max(a, b)),
                            gamma.breakpoints, tol)


@dataclass(frozen=True)
class CovCheckResult:
    lhs: np.ndarray
    rhs: np.ndarray
    defect: float


def cov_check(
    y: Callable[[float], object],
    f: ScalarPath,
    s: float,
    t: float,
    tol: float = DEFAULT_TOL,
    stats: Optional[QuadStats] = None,
) -> CovCheckResult:
    """Numerical change-of-variables identity check.

    lhs = int_s^t f'(tau) y(f(tau)) dtau, rhs = int_{f(s)}^{f(t)} y(u) du;
    both by adaptive quadrature, with the defect measured max-abs.  Each
    panel of the lhs takes f and f' over its nodes in one call each.
    ``stats``, if given, counts the panels of both integrals.
    """
    def pulled_back(taus):
        return np.stack([np.asarray(y(u), dtype=float) * d for u, d in
                         zip(f.eval(taus).tolist(), f.d_many(taus).tolist())])

    lhs = _oriented(_integrate_nodes, pulled_back, s, t, f.breakpoints, tol,
                    stats=stats)
    rhs = _oriented(_integrate_nodes, _values(y), float(f(s)), float(f(t)),
                    (), tol, stats=stats)
    defect = float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))
    return CovCheckResult(lhs=np.asarray(lhs), rhs=np.asarray(rhs), defect=defect)
