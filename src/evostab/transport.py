"""Parallel transport on the trivial bundle over a planar rectangle M x J.

A connection is the pair of operator-valued fields (omega1, omega2); the
transport along a piecewise-C1 curve gamma = (gamma1, gamma2) is the
endpoint propagator of

    A(t) = -( omega1(gamma(t)) gamma1'(t) + omega2(gamma(t)) gamma2'(t) ).

The certified bound depends only on the length of the first component of
the curve: with sup bounds B1, B2, B12 for omega1, omega2, d/dx omega2 on
the rectangle and lam = lambda(J),

    gain     N    = exp(lam B2)
    cap      C(L) = N^2 exp(N^{3+2N} lam B12 L)
    bound    beta(L) = C(L) exp(C(L) B1 L)

beta grows doubly exponentially and saturates to +inf with an overflow
flag when it leaves the float range.

Transport does not depend on the parametrisation, so the transport back
along the reversed curve is the inverse propagator.  The sine-curve
scenario reads the forward and reverse transports to every endpoint off
one sweep (:class:`evostab.evolution.EvolutionOperator`), as X(b, a) and
X(a, b); :func:`reverse_curve` stays as the independent reverse-path
route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import Interval, ScalarPath, refine_until_stable
from .errors import DomainViolationError, IntegrationError
from .evolution import CoefficientPath, EvolutionOperator, StepStats, evolve
from .operators import VectorSpaceSpec, matrix_norm, vector_norm
from .stability import saturating_bound

__all__ = [
    "ConnectionForm", "Curve", "ConnectionBounds", "BetaParts",
    "SineCurveRow", "SineCurveReport", "curve_coefficient",
    "parallel_transport", "beta_bound", "beta_parts",
    "sample_connection_bounds", "sine_curve_scenario", "reverse_curve",
]


@dataclass(frozen=True)
class ConnectionForm:
    """Connection form (omega1, omega2) on the rectangle M x J.

    ``omega1(xs, us)`` and ``omega2(xs, us)`` take arrays of x and u that
    broadcast against each other and return the stack of the matrices
    over them, of shape broadcast(xs, us) + (r, r); ``d1_omega2``, the
    exact x-derivative of omega2, takes and returns the same.  A source
    that only gives one point at a time goes through
    :func:`evostab.calculus.pointwise`.
    """

    omega1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    omega2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m_interval: Interval
    j_interval: Interval
    space: VectorSpaceSpec
    d1_omega2: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def check_inside(self, xs: np.ndarray, us: np.ndarray) -> None:
        """Raise DomainViolationError unless every point (x, u) of the
        paired 1-D arrays lies in the rectangle, up to 1e-12 relative;
        the error names the first point in order that lies outside."""
        bad = [i for i in (self.m_interval.first_outside(xs, 1e-12),
                           self.j_interval.first_outside(us, 1e-12))
               if i is not None]
        if bad:
            i = min(bad)
            raise DomainViolationError(
                f"curve point ({float(xs[i])}, {float(us[i])}) outside the "
                "connection rectangle")


@dataclass(frozen=True)
class Curve:
    """A piecewise-C1 path t -> (gamma1(t), gamma2(t)) on [a, b]."""

    gamma1: ScalarPath
    gamma2: ScalarPath
    a: float
    b: float

    def __post_init__(self):
        if not self.a <= self.b:
            raise ValueError("curve needs a <= b")

    @property
    def breakpoints(self) -> tuple:
        return tuple(sorted(set(self.gamma1.breakpoints)
                            | set(self.gamma2.breakpoints)))


def reverse_curve(g: Curve) -> Curve:
    """The same trace run backwards: tau -> gamma(a + b - tau)."""
    a, b = g.a, g.b
    flipped = tuple(sorted(a + b - t for t in g.breakpoints))

    def flip(path):
        return ScalarPath(eval=lambda taus: path.eval(a + b - taus),
                          deriv=lambda taus: -path.d_many(a + b - taus),
                          breakpoints=flipped)

    return Curve(flip(g.gamma1), flip(g.gamma2), a, b)


def curve_coefficient(w: ConnectionForm, g: Curve) -> CoefficientPath:
    """Coefficient path of the transport equation along the curve.

    A stack of times takes both components and their derivatives over
    the array (``ScalarPath.eval`` and ``d_many``), one rectangle check, and
    omega1 and omega2 over the points in one call each.  A term whose
    derivative is 0 is left out of the sum rather than added as 0 times
    omega.
    """

    def eval_A(ts):
        xs, us = g.gamma1.eval(ts), g.gamma2.eval(ts)
        w.check_inside(xs, us)
        dx = g.gamma1.d_many(ts)[:, None, None]
        du = g.gamma2.d_many(ts)[:, None, None]
        t1 = w.omega1(xs, us) * dx
        t2 = w.omega2(xs, us) * du
        on1, on2 = dx != 0.0, du != 0.0
        if on1.all() and on2.all():
            return -(t1 + t2)
        return -np.where(on1, np.where(on2, t1 + t2, t1),
                         np.where(on2, t2, 0.0))

    return CoefficientPath(eval=eval_A, space=w.space,
                           breakpoints=g.breakpoints)


def parallel_transport(w: ConnectionForm, g: Curve, tol: float = 1e-10,
                       stats: Optional[StepStats] = None) -> np.ndarray:
    """Transport operator along the curve, from gamma(a) to gamma(b), as
    an (r, r) array.  ``stats``, if given, counts the integration."""
    return evolve(curve_coefficient(w, g), g.a, g.b, tol, stats)


@dataclass(frozen=True)
class ConnectionBounds:
    """Sup bounds of omega1, omega2, d/dx omega2 on the rectangle.

    Grid-sampled bounds carry a 5% safety inflation and record their
    resolution; user-supplied bounds are taken at face value.
    """

    B1: float
    B2: float
    B12: float
    lambda_J: float
    provenance: str = "user-supplied"

    def __post_init__(self):
        if min(self.B1, self.B2, self.B12) < 0.0 or self.lambda_J <= 0.0:
            raise ValueError("bounds must be nonnegative and lambda_J positive")


@dataclass(frozen=True)
class BetaParts:
    gain: float
    cap: float
    beta: float
    overflow: bool


def beta_parts(b: ConnectionBounds, L: float) -> BetaParts:
    """The three-stage composition of the transport bound at length L."""
    if L < 0.0:
        raise ValueError("length must be nonnegative")
    log_gain = b.lambda_J * b.B2
    gain = math.exp(log_gain) if log_gain < 709.0 else math.inf
    if not math.isfinite(gain):
        return BetaParts(gain, math.inf, math.inf, True)
    cap, log_cap, overflow = saturating_bound(gain, log_gain,
                                              b.lambda_J * b.B12 * L)
    if overflow:
        return BetaParts(gain, cap, math.inf, True)
    log_beta = log_cap + cap * b.B1 * L  # beta = C exp(C B1 L)
    beta = math.exp(log_beta) if log_beta < 709.0 else math.inf
    return BetaParts(gain, cap, beta, not math.isfinite(beta))


def beta_bound(b: ConnectionBounds, L: float) -> float:
    """Certified bound on ||P_gamma|| for curves whose first component has
    arc length at most L (+inf with the overflow flag in beta_parts when
    the composition leaves the float range)."""
    return beta_parts(b, L).beta


_FIELD_NAMES = ("omega1", "omega2", "d/dx omega2")
# a grid refinement that moves no sampled sup by more than this share
# ends the sampling; the sups are then inflated by _INFLATION
_BOUNDS_REL_STOP = 1e-2
_INFLATION = 1.05
# grid points per field call of the bounds sampling: a few MB of 2x2
# stacks at max_resolution 513, and the 17 and 33 levels in one call
_BOUNDS_BLOCK = 2 ** 15


def _raise_at_first_non_finite(fields, xs, us):
    """Raise DomainViolationError at the first sample of a block of grid
    rows with a non-finite entry, in row order: by x, then by field, then
    by u."""
    bad = ~np.stack([np.isfinite(f).all(axis=(-2, -1)) for f in fields])
    row = int(np.argmax(bad.any(axis=(0, 2))))
    i = int(np.argmax(bad[:, row].any(axis=1)))
    j = int(np.argmax(bad[i, row]))
    raise DomainViolationError(
        f"{_FIELD_NAMES[i]} is not finite at (x, u) = "
        f"({float(xs[row])}, {us[j]})")


def sample_connection_bounds(
    w: ConnectionForm,
    resolution: int = 17,
    max_resolution: int = 513,
) -> ConnectionBounds:
    """Grid-sample sup norms of omega1, omega2, d/dx omega2 over the
    rectangle, refining dyadically until all three stabilize to 1%, then
    inflate by 5%.  Each field takes a block of grid rows from one call,
    the x of the rows as a column against the row of u, up to
    ``_BOUNDS_BLOCK`` points per call; d/dx omega2 is the connection's
    exact ``d1_omega2``.  A sup of the exact per-matrix norms does not
    depend on the blocking.  A sample with a non-finite entry raises
    DomainViolationError naming the first such (x, u) in row order."""
    if not (w.m_interval.is_finite() and w.j_interval.is_finite()):
        raise DomainViolationError("bounds sampling needs a finite rectangle")
    kind = w.space.norm_kind

    def sups(n):
        xs = np.linspace(w.m_interval.lo, w.m_interval.hi, n)
        us = np.linspace(w.j_interval.lo, w.j_interval.hi, n)
        out = np.zeros(3)
        rows = max(1, _BOUNDS_BLOCK // n)
        for lo in range(0, n, rows):
            x = xs[lo:lo + rows, None]
            fields = (w.omega1(x, us), w.omega2(x, us), w.d1_omega2(x, us))
            if not all(np.isfinite(f).all() for f in fields):
                _raise_at_first_non_finite(fields, x[:, 0], us)
            for i, f in enumerate(fields):
                out[i] = max(out[i], matrix_norm(f, kind).max())
        return out

    def levels():
        n = max(int(resolution), 3)
        yield n, sups(n)
        while n < max_resolution:
            n = 2 * n - 1
            yield n, sups(n)

    sup, n, converged = refine_until_stable(
        levels(), lambda prev, cur: bool(np.all(
            cur - prev <= _BOUNDS_REL_STOP * np.maximum(np.abs(cur),
                                                        1e-300))))
    tag = f"grid-sampled({n}x{n}{'' if converged else ', unconverged'})"
    return ConnectionBounds(
        B1=_INFLATION * float(sup[0]),
        B2=_INFLATION * float(sup[1]),
        B12=_INFLATION * float(sup[2]),
        lambda_J=w.j_interval.length(),
        provenance=tag,
    )


@dataclass(frozen=True)
class SineCurveRow:
    b_requested: float
    b_used: float
    norm_P: float
    beta_b: float
    ratio: float
    norm_P_op: float
    norm_P_rev: float
    inverse_defect: float
    passed: bool
    error: Optional[str] = None


@dataclass(frozen=True)
class SineCurveReport:
    rows: tuple
    bound: float
    bounds: ConnectionBounds
    passed: bool
    stats: StepStats


def _sine_paths(a: float, b: float):
    g1 = ScalarPath(eval=lambda ts: ts, deriv=np.ones_like)
    g2 = ScalarPath(eval=lambda ts: np.sin(1.0 / ts),
                    deriv=lambda ts: -np.cos(1.0 / ts) / (ts * ts))
    return Curve(g1, g2, a, b)


def sine_curve_scenario(
    w: ConnectionForm,
    a: float,
    b_list: Sequence[float],
    v,
    tol: float = 1e-9,
    b_floor: float = -1e-4,
    bounds: Optional[ConnectionBounds] = None,
) -> SineCurveReport:
    """Transport along gamma(t) = (t, sin(1/t)) from a < 0 up to each b,
    verifying the two-sided bound 1/C <= ||P(v)|| / ||v|| <= C with
    C = beta(-a).

    Each b is clamped to the cost floor ``b_floor`` (which must lie above
    a); the lower bound is certified through the reverse path, whose
    transport norm must obey the same C.  Since parallel transport does
    not depend on the parametrisation, the reverse transport P_rev(b) is
    X(a, b), the inverse propagator: one sweep from a across the sorted
    clamped b's (:class:`EvolutionOperator`) yields P(b) = X(b, a) and
    P_rev(b) at each of them.  P_rev is carried by the inverse
    exponentials of P's own steps, so ``inverse_defect`` = ||P_rev P - I||
    sits at roundoff and does not measure truncation error.

    ``v`` is a finite vector of the connection's dimension (else
    ValueError).  Rows keep the order of ``b_list``.  An integration
    failure ends the sweep: the rows it reached keep their values, and
    the rest report the failure.  ``stats`` counts the sweep's work.
    """
    v = np.array(v, dtype=float)
    if v.shape != (w.space.dim,) or not np.isfinite(v).all():
        raise ValueError(f"v must be a finite vector of length "
                         f"{w.space.dim}, got {v!r}")
    if not a < 0.0:
        raise ValueError("a must be negative")
    if not b_floor > a:
        raise ValueError(f"b_floor = {b_floor} not above a = {a}")
    for b_req in b_list:
        if not (a < b_req < 0.0):
            raise ValueError(f"b = {b_req} not in ({a}, 0)")
    if not (w.m_interval.contains(a) and w.j_interval.contains(-1.0)
            and w.j_interval.contains(1.0)):
        raise DomainViolationError(
            "connection rectangle must contain [a, 0) x [-1, 1]"
        )
    if bounds is None:
        bounds = sample_connection_bounds(w)
    cap = beta_bound(bounds, -a)
    slack = cap * (1.0 + 1e-6)
    kind = w.space.norm_kind
    v_norm = vector_norm(v, kind)
    b_used = [min(b_req, b_floor) for b_req in b_list]
    ev = EvolutionOperator(curve_coefficient(w, _sine_paths(a, max(b_used))),
                           [a] + b_used, tol)
    rows = []
    for b_req, b in zip(b_list, b_used):
        beta_b = beta_bound(bounds, b - a)
        try:
            p_op = ev.query(b, a)
            p_rev = ev.query(a, b)
        except IntegrationError as exc:
            rows.append(SineCurveRow(
                b_requested=b_req, b_used=b, norm_P=math.nan,
                beta_b=beta_b, ratio=math.nan, norm_P_op=math.nan,
                norm_P_rev=math.nan, inverse_defect=math.nan,
                passed=False, error=str(exc),
            ))
            continue
        pv = p_op @ v
        norm_pv = vector_norm(pv, kind)
        ratio = norm_pv / v_norm if v_norm > 0 else 1.0
        n_op = matrix_norm(p_op, kind)
        n_rev = matrix_norm(p_rev, kind)
        defect = matrix_norm(p_rev @ p_op - np.eye(w.space.dim), kind)
        ok = (n_op <= slack and n_rev <= slack
              and ratio <= slack
              and ratio * slack >= 1.0)
        rows.append(SineCurveRow(
            b_requested=b_req, b_used=b, norm_P=norm_pv,
            beta_b=beta_b, ratio=ratio, norm_P_op=n_op, norm_P_rev=n_rev,
            inverse_defect=defect, passed=ok,
        ))
    return SineCurveReport(
        rows=tuple(rows), bound=cap, bounds=bounds,
        passed=all(r.passed for r in rows), stats=ev.step_stats,
    )
