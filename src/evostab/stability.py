"""Separable systems A(t) = f'(t) G(t, f(t)) and their uniform-stability
certificates.

The certificate of a system is built from two numbers that depend only on
the operator field G, the value interval J, and the sampled time window
(never on the scalar path f):

    gain       N = exp( sup_t  int_J ||G(t, u)|| du )
    variation  V = total variation of t -> G(t, .) in the L1(J) metric

and bounds every propagator of every admissible f by

    ||X(t, s)^{+-1}||  <=  C = N^2 exp(N^{3+2N} V).

C grows doubly exponentially in the gain; when it exceeds the float range
it saturates to +inf and the certificate carries an ``overflow`` flag
(the domination checks remain valid, just uninformative).

Also here: the piecewise-frozen approximation of a separable system, the
substitution identity check (the propagator of f'(t) B(f(t)) equals the
propagator of B composed with f at the endpoints), and certificate
verification against directly integrated propagators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import (
    Interval,
    OperatorField,
    Partition,
    QuadStats,
    ScalarPath,
    l1_norm_in_u,
    refine_until_stable,
    tv_l1_upper_bound,
)
from .errors import DomainViolationError, QuadratureError
from .evolution import CoefficientPath, EvolutionOperator, StepStats, evolve
from .operators import VectorSpaceSpec, matrix_norm

__all__ = [
    "SeparableSystem", "BoundCertificate", "VerifyRow",
    "VerificationReport", "assemble_A", "certify", "frozen_system",
    "substitution_check", "verify_certificate",
]

DEFAULT_CERT_TOL = 1e-8
# ln of the largest float: a gain N with a larger ln N overflows to +inf
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class SeparableSystem:
    """The tuple (I, J, G, f) defining A(t) = f'(t) G(t, f(t))."""

    G: OperatorField
    f: ScalarPath
    I: Interval
    J: Interval
    space: VectorSpaceSpec

    def __post_init__(self):
        if not self.J.is_finite():
            raise ValueError("the value interval J must be finite")


def _checked_f_value(sys_J: Interval, f_val: float, t: float) -> float:
    if not sys_J.contains(f_val, tol=1e-12 * max(1.0, abs(f_val))):
        raise DomainViolationError(
            f"f({t}) = {f_val} lies outside J = [{sys_J.lo}, {sys_J.hi}]"
        )
    return f_val


def _pulled_back(sys: SeparableSystem, ts: np.ndarray,
                 g_times: np.ndarray) -> np.ndarray:
    """The stack of f'(t) G(s, f(t)) over the times t of ts, with s the
    matching time of g_times: f, f' and G over the arrays in one call
    each, after one check of the values against J."""
    G, f, J = sys.G, sys.f, sys.J
    us = f.eval(ts)
    i = J.first_outside(us, 1e-12)
    if i is not None:
        _checked_f_value(J, float(us[i]), float(ts[i]))
    return f.d_many(ts)[:, None, None] * G.eval(g_times, us)


def assemble_A(sys: SeparableSystem) -> CoefficientPath:
    """The coefficient path t -> f'(t) G(t, f(t)), over a stack of times
    as :func:`_pulled_back` takes it."""
    bps = tuple(sorted(set(sys.f.breakpoints) | set(sys.G.t_breakpoints)))
    return CoefficientPath(eval=lambda ts: _pulled_back(sys, ts, ts),
                           space=sys.space, breakpoints=bps)


def frozen_system(sys: SeparableSystem, partition: Partition) -> CoefficientPath:
    """The piecewise-frozen coefficient: on [a_i, a_{i+1}) the field is
    held at G(a_i, .); the final point a_n takes the last segment's value.
    A stack of times takes f and f' as :func:`assemble_A` does."""
    pts = partition.points
    if partition.n < 1:
        raise ValueError("partition needs at least two points")
    window = Interval(pts[0], pts[-1])
    frozen_at = np.asarray(pts)

    def eval_frozen(ts):
        i = window.first_outside(ts, 0.0)
        if i is not None:
            raise DomainViolationError(
                f"t = {float(ts[i])} outside the frozen window "
                f"[{pts[0]}, {pts[-1]}]")
        seg = np.searchsorted(frozen_at, ts, side="right") - 1
        return _pulled_back(sys, ts, frozen_at[np.clip(seg, 0, len(pts) - 2)])

    bps = tuple(sorted(set(sys.f.breakpoints) | set(sys.G.t_breakpoints)
                       | set(pts[1:-1])))
    return CoefficientPath(eval=eval_frozen, space=sys.space,
                           breakpoints=bps)


def saturating_bound(gain: float, log_gain: float, variation: float):
    """C = gain^2 exp(gain^{3+2 gain} variation), saturated to +inf, from
    the gain and its log (each caller passes the log it has, so neither
    goes through exp or log again): ln C = 2 ln gain + gain^{3+2 gain}
    variation.

    Returns (bound, log_bound, overflow).
    """
    if variation == 0.0:
        log_c = 2.0 * log_gain
    else:
        p = (3.0 + 2.0 * gain) * log_gain  # log of gain^{3+2 gain}
        if p >= 709.0:
            return math.inf, math.inf, True
        log_c = 2.0 * log_gain + math.exp(p) * variation
    if log_c >= 709.0:
        return math.inf, log_c, True
    return math.exp(log_c), log_c, False


@dataclass(frozen=True)
class BoundCertificate:
    """The numbers (gain, variation) of a stability certificate, the
    bound C they give, and the sampling metadata that produced them.

    ``bound``, ``log_bound`` and ``overflow`` are not arguments: they are
    computed from ``gain`` and ``variation`` (:func:`saturating_bound`).
    ``log_gain`` is ln N, computed from a finite ``gain``; a gain that
    overflowed to +inf must come with its ln N, past the float range, as
    :func:`certify` gives it (the sup of the L1 norm).
    Certificates computed from grid samples are labeled estimates: the
    true sup may exceed the sampled one.  ``variation_mode`` says how V
    was integrated: "double-integral" or, for a field that does not
    depend on u, "derivative" (see :func:`certify`).  ``cost`` counts the
    quadrature panels that produced the numbers.
    """

    gain: float
    variation: float
    window: Interval
    sup_grid: int
    tolerances: dict = field(default_factory=dict)
    sup_converged: bool = True
    variation_mode: str = "double-integral"
    provenance: str = "grid-sampled"
    cost: QuadStats = field(default_factory=QuadStats)
    log_gain: Optional[float] = None
    bound: float = field(init=False)
    log_bound: float = field(init=False)
    overflow: bool = field(init=False)

    def __post_init__(self):
        if self.gain < 1.0:
            raise ValueError("certificate gain must be >= 1")
        if self.variation < 0.0:
            raise ValueError("certificate variation must be >= 0")
        if math.isfinite(self.gain):
            log_gain = math.log(self.gain)
        elif (self.log_gain is not None
              and _LOG_MAX_FLOAT <= self.log_gain < math.inf):
            log_gain = self.log_gain
        else:
            raise ValueError("an infinite certificate gain needs its finite "
                             "log_gain, past the float range")
        object.__setattr__(self, "log_gain", log_gain)
        bound, log_bound, overflow = saturating_bound(
            self.gain, log_gain, self.variation)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "log_bound", log_bound)
        object.__setattr__(self, "overflow", overflow)

    @property
    def log_log_bound(self) -> float:
        """ln(N^{3+2N} V), the log of the exponent in C: finite and
        comparable where C itself overflows to +inf, unless N does; -inf
        where V = 0."""
        if self.variation == 0.0:
            return -math.inf
        return ((3.0 + 2.0 * self.gain) * self.log_gain
                + math.log(self.variation))


def _dyadic_sup(values_at, lo, hi, seed_points):
    """Sup of a function by sampling on dyadically refined grids, until a
    refinement moves it by at most 1e-3 relative or the grid reaches 4097
    points.

    ``values_at`` maps an array of points to the array of the values
    there.  Returns (sup, n_points, converged).  Each refinement level
    evaluates its fresh midpoints in one call.
    """
    def levels():
        pts = np.array(sorted(set([lo, hi] + [p for p in seed_points
                                              if lo < p < hi])))
        while len(pts) < 17:
            pts = np.sort(np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:])]))
        best = float(np.max(values_at(pts)))
        yield len(pts), best
        while len(pts) < 4097:
            mids = 0.5 * (pts[:-1] + pts[1:])
            # np.maximum keeps a NaN that the built-in max would drop
            best = float(np.maximum(best, np.max(values_at(mids))))
            pts = np.sort(np.concatenate([pts, mids]))
            yield len(pts), best

    return refine_until_stable(
        levels(),
        lambda prev, cur: cur - prev <= 1e-3 * max(abs(cur), 1e-300))


def certify(
    sys: SeparableSystem,
    window: Interval,
    tol: float = DEFAULT_CERT_TOL,
) -> BoundCertificate:
    """Stability certificate of a separable system over a compact window.

    The gain comes from a dyadically refined sampled sup of the L1-in-u
    norm; the variation from the double-integral upper bound
    (``variation_mode`` "double-integral"), or from lambda(J) times the
    integral of ||d/dt G(t, mid J)|| when the field does not depend on u
    ("derivative").  Both take d/dt G from ``G.d1_many``, the field's
    exact ``partial_t``.  An expression field is u-independent when no
    entry has a u in it.  Only G, J and the window enter: the
    certificate is uniform in f.
    """
    if not window.is_finite():
        raise ValueError("certification window must be finite")
    if not (sys.I.contains(window.lo) and sys.I.contains(window.hi)):
        raise ValueError("window must lie inside the system's time interval")
    G, J = sys.G, sys.J
    l1_tol = min(1e-8, tol)
    cost = QuadStats()
    sup_val, n_grid, conv = _dyadic_sup(
        lambda ts: l1_norm_in_u(G, ts, J, l1_tol, cost),
        window.lo, window.hi, list(G.t_breakpoints),
    )
    variation = tv_l1_upper_bound(G, window, J, tol, cost)
    variation_mode = "derivative" if G.u_independent else "double-integral"
    # the shortcut of a u-independent field's L1 norm (a product) runs no
    # quadrature panel to catch a non-finite value
    if not (math.isfinite(sup_val) and math.isfinite(variation)):
        raise QuadratureError(
            f"non-finite certificate on the window [{window.lo}, "
            f"{window.hi}]: sup of the L1 norm {sup_val}, variation "
            f"{variation}", variation, math.inf)
    try:
        gain = math.exp(sup_val)
    except OverflowError:  # N is +inf, and the certificate keeps ln N
        gain = math.inf

    tolerances = {"certify": tol, "l1": l1_tol}
    if cost.raised_tol:  # an integral met its roundoff floor, not its tol
        tolerances["roundoff_floor"] = cost.raised_tol
    return BoundCertificate(
        gain=gain, variation=variation, window=window, sup_grid=n_grid,
        tolerances=tolerances,
        sup_converged=conv, variation_mode=variation_mode, cost=cost,
        log_gain=sup_val,
    )


def substitution_check(
    B: Callable[[np.ndarray], np.ndarray],
    f: ScalarPath,
    s: float,
    t: float,
    space: VectorSpaceSpec,
    tol: float = 1e-10,
    stats: Optional[StepStats] = None,
) -> float:
    """Defect of the substitution identity.

    ``B`` maps an array of values u to the stack of B(u) over them, as a
    ``CoefficientPath.eval`` does.  Route one integrates the pulled-back
    system A = f'(t) B(f(t)) from s to t, taking f, f' and B over each
    window's nodes in one call each; route two integrates B itself between
    f(s) and f(t).  For exact arithmetic both give the same operator; the
    returned defect is the operator-norm difference.  ``stats``, if
    given, counts both routes.
    """
    A = CoefficientPath(
        eval=lambda taus: f.d_many(taus)[:, None, None] * B(f.eval(taus)),
        space=space, breakpoints=f.breakpoints,
    )
    x_direct = evolve(A, s, t, tol, stats)
    B_path = CoefficientPath(eval=B, space=space)
    y_pulled = evolve(B_path, float(f(s)), float(f(t)), tol, stats)
    return matrix_norm(x_direct - y_pulled, space.norm_kind)


@dataclass(frozen=True)
class VerifyRow:
    s: float
    t: float
    norm_X: float
    norm_Xinv: float
    ratio: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple
    max_observed: float
    max_ratio: float
    passed: bool
    bound: float
    aborted: Optional[str] = None
    stats: StepStats = field(default_factory=StepStats)


def verify_certificate(
    sys: SeparableSystem,
    cert: BoundCertificate,
    sample_pairs: Sequence,
    tol: float = 1e-10,
    coefficient: Optional[CoefficientPath] = None,
) -> VerificationReport:
    """Check ||X(t,s)^{+-1}|| <= bound at the given (s, t) pairs.

    All propagators come from one sweep of the certificate window that
    stops at the pairs' endpoints (:class:`EvolutionOperator`), whose
    integrator counts are returned as ``stats``; its steps do not depend
    on the pairs, so neither does any row.  All rows' X(t, s), X(s, t)
    and norms come from two stacked products (``query_stack``) and two
    norm calls, with the bits of a query and a norm per pair.
    ``coefficient`` overrides the assembled system coefficient so frozen
    approximants can be verified against the same certificate.
    A pair passes when max(||X||, ||X^-1||) <= bound * (1 + 1e-6); an
    integration failure aborts at the first pair whose endpoint the sweep
    did not reach, keeping the rows before it.
    """
    pairs = [(float(s), float(t)) for s, t in sample_pairs]
    for s, t in pairs:
        if not (cert.window.contains(s, 1e-12) and cert.window.contains(t, 1e-12)):
            raise ValueError(f"pair ({s}, {t}) outside the certificate window")
        if s > t:
            raise ValueError(f"pair ({s}, {t}) must have s <= t")
    A = coefficient if coefficient is not None else assemble_A(sys)
    ends = (cert.window.lo, cert.window.hi) if cert.window.is_finite() else ()
    ev = EvolutionOperator(A, [*ends, *(tau for pair in pairs for tau in pair)],
                           tol=tol)
    ts, ss = [t for _, t in pairs], [s for s, _ in pairs]
    x, x_inv = ev.query_stack(ts, ss), ev.query_stack(ss, ts)
    kind = sys.space.norm_kind
    slack = cert.bound * (1.0 + 1e-6)
    rows = []
    max_obs = 0.0
    aborted = None if len(x) == len(pairs) else (
        f"integration failure at pair {pairs[len(x)]}: {ev.failure}")
    for (s, t), n_x, n_inv in zip(pairs, matrix_norm(x, kind).tolist(),
                                  matrix_norm(x_inv, kind).tolist()):
        worst = max(n_x, n_inv)
        max_obs = max(max_obs, worst)
        ratio = worst / cert.bound if math.isfinite(cert.bound) else 0.0
        rows.append(VerifyRow(s=s, t=t, norm_X=n_x, norm_Xinv=n_inv,
                              ratio=ratio, passed=worst <= slack))
    max_ratio = (max_obs / cert.bound) if math.isfinite(cert.bound) else 0.0
    passed = aborted is None and all(r.passed for r in rows)
    return VerificationReport(
        rows=tuple(rows), max_observed=max_obs, max_ratio=max_ratio,
        passed=passed, bound=cert.bound, aborted=aborted,
        stats=ev.step_stats,
    )
