"""Scalar and operator-valued 1-D calculus.

Adaptive Gauss-Kronrod quadrature (pre-split at declared breakpoints),
derivatives of piecewise-C1 data, total variation in both the derivative
and the partition-refinement sense, arc length, and the numerical
change-of-variables identity

    int_s^t f'(tau) y(f(tau)) dtau  =  int_{f(s)}^{f(t)} y(u) du.

Integrands may return floats or ndarrays; the quadrature accumulates
componentwise and measures segment errors in the max-abs sense.  The
engine evaluates all 15 nodes of a panel in one call: node by node for
``integrate``, in one array call for the u-integrals of fields with a
batched evaluator (``OperatorField.eval_u``).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainViolationError, QuadratureError, RefinementError
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


def _fd_step(t: float) -> float:
    return 1e-6 * max(1.0, abs(t))


@dataclass(frozen=True)
class ScalarPath:
    """A piecewise-C1 real (or vector-valued) function of one variable.

    ``deriv`` is optional; without it derivatives fall back to central
    differences with step 1e-6 * max(1, |t|).  At a declared breakpoint
    the derivative is defined to be 0 (the value there never matters for
    integrals, but point queries are reproducible this way).
    """

    eval: Callable[[float], float]
    deriv: Optional[Callable[[float], float]] = None
    breakpoints: tuple = ()
    domain: Interval = Interval(-math.inf, math.inf)

    def __post_init__(self):
        bps = tuple(sorted(float(b) for b in self.breakpoints))
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)

    def __call__(self, t: float):
        return self.eval(t)

    def d(self, t: float):
        bps = self.breakpoints
        if bps:
            # only the breakpoints on either side of t can be within the
            # 1e-14 relative snapping distance
            i = bisect.bisect_left(bps, t)
            for b in bps[max(i - 1, 0):i + 1]:
                if abs(t - b) <= 1e-14 * max(1.0, abs(b)):
                    return 0.0
        if self.deriv is not None:
            return self.deriv(t)
        h = _fd_step(t)
        return (self.eval(t + h) - self.eval(t - h)) / (2.0 * h)


@dataclass(frozen=True)
class OperatorField:
    """An operator-valued function of (t, u), continuous in u for each t.

    ``eval`` returns a bare (r, r) ndarray.  ``partial_t`` is the analytic
    t-derivative when available.  ``u_independent`` marks fields G(t, u)
    that do not actually depend on u, unlocking exact shortcuts for the
    L1-in-u norm and the variation computation.  ``eval_u(t, us)``, when
    given, stacks G(t, u) over an array of u in one call.
    """

    eval: Callable[[float, float], np.ndarray]
    space: VectorSpaceSpec
    partial_t: Optional[Callable[[float, float], np.ndarray]] = None
    t_breakpoints: tuple = ()
    u_independent: bool = False
    eval_u: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(
            self, "t_breakpoints", tuple(sorted(float(b) for b in self.t_breakpoints))
        )

    def d1(self, t: float, u: float) -> np.ndarray:
        """Partial derivative in t, analytic or central-difference."""
        if self.partial_t is not None:
            return np.asarray(self.partial_t(t, u), dtype=float)
        h = _fd_step(t)
        a = np.asarray(self.eval(t + h, u), dtype=float)
        b = np.asarray(self.eval(t - h, u), dtype=float)
        return (a - b) / (2.0 * h)

    def eval_many(self, t: float, us: np.ndarray) -> np.ndarray:
        """The (len(us), r, r) stack of G(t, u) over the u in us."""
        if self.eval_u is not None:
            return np.asarray(self.eval_u(t, us), dtype=float)
        return np.stack([np.asarray(self.eval(t, u), dtype=float) for u in us])

    def d1_many(self, t: float, us: np.ndarray) -> np.ndarray:
        """The (len(us), r, r) stack of d1(t, u) over the u in us."""
        if self.eval_u is None or self.partial_t is not None:
            return np.stack([self.d1(t, u) for u in us])
        h = _fd_step(t)
        return (self.eval_many(t + h, us) - self.eval_many(t - h, us)) / (2.0 * h)


def _gk15(gv, a: float, b: float):
    """One Gauss-Kronrod 15(7) panel: returns (kronrod value, error est).

    ``gv`` maps the array of 15 nodes to their values stacked on axis 0.
    The Kronrod-Gauss gap is used as-is for the error estimate; it is
    conservative on resolved panels, which only costs an extra bisection
    level, never a silently optimistic result.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    stacked = np.asarray(gv(c + h * _KRONROD_NODES), dtype=float)
    # np.tensordot(weights, stacked, axes=(0, 0)) bit for bit, minus its set-up
    shape = stacked.shape[1:]
    k = h * np.dot(_KRONROD_ROW, stacked.reshape(15, -1)).reshape(shape)
    g7 = h * np.dot(_GAUSS_ROW, stacked[1::2].reshape(7, -1)).reshape(shape)
    err = float(np.max(np.abs(k - g7)))
    return k, err


def _initial_cuts(lo: float, hi: float, breakpoints: Sequence[float]):
    cuts = [lo]
    for b in sorted(set(float(x) for x in breakpoints)):
        if lo < b < hi:
            cuts.append(b)
    cuts.append(hi)
    return cuts


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
    the best estimate when the segment budget is exhausted.
    """
    return _integrate_nodes(
        lambda xs: np.stack([np.asarray(g(x), dtype=float) for x in xs]),
        interval, breakpoints, tol, max_segments)


def _integrate_nodes(gv, interval: Interval, breakpoints=(),
                     tol: float = DEFAULT_TOL, max_segments: int = 4096):
    """``integrate`` of gv, which stacks the values at an array of nodes."""
    if not interval.is_finite():
        raise DomainViolationError("quadrature requested over an unbounded interval")
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        v = np.asarray(gv(np.array([lo])), dtype=float)[0] * 0.0
        return float(v) if np.ndim(v) == 0 else v
    cuts = _initial_cuts(lo, hi, breakpoints)
    heap = []           # (-err, id, a, b), worst segment on top
    seg_values = {}     # id -> (value, err)
    counter = 0
    total_err = 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, err = _gk15(gv, a, b)
        heapq.heappush(heap, (-err, counter, a, b))
        seg_values[counter] = (val, err)
        counter += 1
        total_err += err
    while total_err > tol:
        if len(heap) >= max_segments:
            raise QuadratureError(
                f"quadrature did not converge: error bound {total_err:.3e} "
                f"> tol {tol:.3e} with {len(heap)} segments",
                _segment_total(seg_values), total_err,
            )
        _, idx, a, b = heapq.heappop(heap)
        total_err -= seg_values.pop(idx)[1]
        m = 0.5 * (a + b)
        for lo2, hi2 in ((a, m), (m, b)):
            val, err = _gk15(gv, lo2, hi2)
            heapq.heappush(heap, (-err, counter, lo2, hi2))
            seg_values[counter] = (val, err)
            counter += 1
            total_err += err
    total = _segment_total(seg_values)
    if np.ndim(total) == 0:
        return float(total)
    return total


def _segment_total(seg_values):
    it = iter(seg_values.values())
    total = next(it)[0]
    for val, _ in it:
        total = total + val
    return total


def signed_integrate(g, s: float, t: float, breakpoints=(), tol=DEFAULT_TOL,
                     max_segments: int = 4096):
    """int_s^t g, with orientation (negated when t < s)."""
    lo, hi = (s, t) if s <= t else (t, s)
    val = integrate(g, Interval(lo, hi), breakpoints, tol, max_segments)
    return val if s <= t else -val


def l1_norm_in_u(
    G: OperatorField,
    t: float,
    J: Interval,
    tol: float = DEFAULT_TOL,
) -> float:
    """int_J ||G(t, u)|| du, the L1-in-u operator norm at time t."""
    if not J.is_finite():
        raise DomainViolationError("L1 norm requested over an unbounded interval")
    kind = G.space.norm_kind
    if G.u_independent:
        return J.length() * matrix_norm(np.asarray(G.eval(t, J.midpoint()),
                                                   dtype=float), kind)
    return _integrate_nodes(lambda us: matrix_norm(G.eval_many(t, us), kind),
                            J, (), tol)


def total_variation_path(
    G: Callable[[float], np.ndarray],
    interval: Interval,
    breakpoints: Sequence[float] = (),
    tol: float = DEFAULT_TOL,
    deriv: Optional[Callable[[float], np.ndarray]] = None,
    norm_kind: str = EUCLIDEAN,
    rel_stop: float = 1e-4,
    max_doublings: int = 14,
) -> float:
    """Total variation of an operator path t -> G(t) on a finite interval.

    With ``deriv`` given the variation equals int ||G'|| and is computed
    by quadrature.  Otherwise partition sums over dyadically refined
    grids give a monotone nondecreasing lower estimate, accepted once the
    relative change between refinements drops below ``rel_stop``.
    """
    if not interval.is_finite():
        raise DomainViolationError("variation requested over an unbounded interval")
    if deriv is not None:
        return integrate(
            lambda t: matrix_norm(np.asarray(deriv(t), dtype=float), norm_kind),
            interval, breakpoints, tol,
        )
    pts = np.array(_initial_cuts(interval.lo, interval.hi, breakpoints))
    # a too-coarse start can alias oscillations into a spuriously stable
    # sum, so densify before the convergence test kicks in
    while len(pts) < 33:
        pts = _refine_dyadic(pts)
    prev = _partition_sum(G, pts, norm_kind)
    cur = prev
    for _ in range(max_doublings):
        pts = _refine_dyadic(pts)
        cur = _partition_sum(G, pts, norm_kind)
        if cur - prev <= rel_stop * max(cur, 1e-300):
            return cur
        prev = cur
    raise RefinementError(
        "partition-sum variation did not stabilize", prev, cur
    )


def _refine_dyadic(pts: np.ndarray) -> np.ndarray:
    mids = 0.5 * (pts[:-1] + pts[1:])
    out = np.empty(len(pts) + len(mids))
    out[0::2] = pts
    out[1::2] = mids
    return out


def _partition_sum(G, pts: np.ndarray, norm_kind: str) -> float:
    vals = [np.asarray(G(t), dtype=float) for t in pts]
    return float(sum(matrix_norm(b - a, norm_kind)
                     for a, b in zip(vals, vals[1:])))


def tv_l1_upper_bound(
    G: OperatorField,
    I: Interval,
    J: Interval,
    tol: float = DEFAULT_TOL,
) -> float:
    """Upper bound for the variation of t -> G(t, .) in the L1(J) metric:
    the double integral of ||d/dt G(t, u)|| over I x J, by iterated
    adaptive quadrature."""
    if not (I.is_finite() and J.is_finite()):
        raise DomainViolationError("double integral over an unbounded rectangle")
    kind = G.space.norm_kind
    if G.u_independent:
        inner = lambda t: J.length() * matrix_norm(G.d1(t, J.midpoint()), kind)
        return integrate(inner, I, G.t_breakpoints, tol)
    # keep the inner integrals well below the outer tolerance so that the
    # outer error estimate is not noise-limited
    inner_tol = tol / (100.0 * max(I.length(), 1.0))

    def inner(t):
        return _integrate_nodes(lambda us: matrix_norm(G.d1_many(t, us), kind),
                                J, (), inner_tol)

    return integrate(inner, I, G.t_breakpoints, tol)


def arc_length(gamma: ScalarPath, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Arc length of a piecewise-C1 path on [a, b] (total variation of the
    path; euclidean length when the path is vector-valued)."""

    def speed(t):
        v = gamma.d(t)
        arr = np.asarray(v, dtype=float)
        return abs(float(arr)) if arr.ndim == 0 else float(np.linalg.norm(arr))

    return integrate(speed, Interval(min(a, b), max(a, b)), gamma.breakpoints, tol)


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
) -> CovCheckResult:
    """Numerical change-of-variables identity check.

    lhs = int_s^t f'(tau) y(f(tau)) dtau, rhs = int_{f(s)}^{f(t)} y(u) du;
    both by adaptive quadrature, with the defect measured max-abs.
    """
    lhs = signed_integrate(
        lambda tau: np.asarray(y(f(tau)), dtype=float) * float(f.d(tau)),
        s, t, f.breakpoints, tol,
    )
    rhs = signed_integrate(lambda u: np.asarray(y(u), dtype=float),
                           float(f(s)), float(f(t)), (), tol)
    defect = float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))
    return CovCheckResult(lhs=np.asarray(lhs), rhs=np.asarray(rhs), defect=defect)
