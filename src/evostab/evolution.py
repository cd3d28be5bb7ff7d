"""Evolution operators X(t, s) of x' = A(t) x, by numerical integration.

The stepping core is an embedded Dormand-Prince 5(4) pair with standard
PI-free step control, each stage state and the error estimate one
tableau-row product over the stage slopes.  Every equation integrated
here is linear with a coefficient that does not depend on the state, so
all stage coefficients of a step are known once its size is: the stepper
takes A itself, fetches A at the step's stage times in one call of
``CoefficientPath.eval`` and forms each stage slope as A_i @ y_i.  One
sweep crosses monotone stops and returns the state at each, carrying
the step size and slope from stop to stop; it restarts at declared
breakpoints of the coefficient so a step never straddles a jump.
Backward propagation (t < s) steps with negative h rather than inverting
a forward result.

:class:`EvolutionOperator` answers many queries from one integration: it
sweeps a fundamental solution Phi across a set of declared times, and
every X(t, s) between them is Phi(t) Phi(s)^{-1}.  :func:`sweep_vector`
sweeps vectors and :func:`param_evolution` frozen-parameter columns;
:func:`sweep_two_sided` sweeps a propagator together with its inverse.

A coefficient that gives a (k, r, r) stack per time sweeps k systems
that share their stops as one state, (k, r, r) for propagators or
(k, r, 1) for vectors, under one step controller; its error norm is the
max over all members, and each stage slope covers the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import Interval, _integrate_nodes
from .errors import IntegrationError
from .operators import Operator, Vector, VectorSpaceSpec, invert_matrix, matrix_norm

DEFAULT_ODE_TOL = 1e-10

# Dormand-Prince 5(4) tableau.  Row i of _DP_A (zero-padded) forms stage
# i's state from the stages before it; _DP_B5 gives the 5th-order
# solution and _DP_E its difference from the embedded 4th-order one.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0,
     0.0),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
])
_DP_B5 = _DP_A[6]
_DP_E = _DP_B5 - np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                           -92097 / 339200, 187 / 2100, 1 / 40))
# Stages 1..6 sit at five distinct nodes: c5 = c6 = 1 give the same float
# t + h, so stage 6 reuses stage 5's coefficient.
_STAGE_NODES = np.array(_DP_C[1:6])
_STAGE_COEF = (None, 0, 1, 2, 3, 4, 4)


@dataclass
class StepStats:
    """Accumulated integrator diagnostics."""

    steps: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    segments: int = 0

    def merge(self, other: "StepStats") -> None:
        self.steps += other.steps
        self.rejected += other.rejected
        self.rhs_evals += other.rhs_evals
        self.segments += other.segments


@dataclass(frozen=True)
class CoefficientPath:
    """t -> A(t), the coefficient of a linear evolution equation.

    ``eval(ts)`` maps a 1-D array of times to the stack of A over them on
    a new leading axis: (len(ts), r, r), or (len(ts), k, r, r) for k
    coefficients swept together.  A must be bounded on compact subsets of
    ``domain`` and piecewise continuous between breakpoints.  A source
    that only gives A one time at a time goes through :func:`stacked`.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    space: VectorSpaceSpec
    breakpoints: tuple = ()
    domain: Interval = Interval(-math.inf, math.inf)

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple(sorted(float(b) for b in self.breakpoints))
        )

    def __call__(self, t: float) -> np.ndarray:
        """A(t): row 0 of the one-time stack."""
        return np.asarray(self.eval(np.array([float(t)])), dtype=float)[0]


def stacked(fn: Callable[[float], np.ndarray]):
    """The ``CoefficientPath.eval`` of a pointwise t -> A(t): fn at each
    time of the array, one call each, stacked on a new leading axis."""
    def eval_each(ts):
        return np.array([np.asarray(fn(t), dtype=float)
                         for t in np.asarray(ts, dtype=float).tolist()])
    return eval_each


def _rk_segment(A, t0, t1, y, rtol, atol, stats, max_steps, h0=None,
                f0=None):
    """Adaptive DP5(4) for y' = A(t) y from t0 to t1 on a breakpoint-free
    segment of the coefficient path ``A``.

    ``y`` is any ndarray shape that A(t) @ y keeps; the error norm is max
    over components of |err| / (atol + rtol * |y|).  Each attempted step
    takes its stage coefficients from one ``A.eval`` call over the five
    distinct stage times.  ``h0`` and the slope ``f0`` = A(t0) y carry
    over from the segment before, if any.  Returns y(t1), the step to
    start the next segment with (the controller's proposal before it was
    clipped to land on t1) and the slope at t1, or None where that is not
    at hand.  ``stats.rhs_evals`` counts stage slopes, 6 per attempted
    step.
    """
    if t1 == t0:
        return y, h0, f0
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    t = t0
    shape = y.shape
    K = np.empty((7, y.size))           # stage slopes, one row each
    Kv = K.reshape((7,) + shape)
    # overflowing or non-finite stages only ever reach the error estimate,
    # which then rejects the step: numpy need not warn about them
    with np.errstate(all="ignore"):
        if f0 is None:
            f0 = A(t0) @ y
            stats.rhs_evals += 1
        Kv[0] = f0
        if span <= 1e-13 * max(1.0, abs(t0), abs(t1)):
            # degenerate segment (a few ulps, e.g. grid points that almost
            # coincide with a breakpoint): one explicit step is exact to
            # O(span^2) ~ 1e-26 and avoids a spurious underflow
            stats.steps += 1
            stats.segments += 1
            return y + (t1 - t0) * Kv[0], h0, None
        if h0 is None:
            # initial step from the scaled state/slope ratio (Hairer's
            # d0/d1): a wrong guess only costs one rejection
            scale = atol + rtol * np.abs(y)
            d0 = float(np.max(np.abs(y) / scale))
            d1 = float(np.max(np.abs(Kv[0]) / scale))
            h = 0.1 * span if d1 == 0.0 else 0.01 * max(d0, 1.0) / d1
            h = min(max(h, 1e-8 * span), 0.1 * span, span)
        else:
            h = abs(h0)
        stats.segments += 1
        taken = 0
        while True:
            remaining = abs(t1 - t)
            if remaining <= 0.0:
                break
            hs = min(h, remaining)
            hd = direction * hs
            ha = hd * _DP_A
            coef = np.asarray(A.eval(t + _STAGE_NODES * hd), dtype=float)
            for i in range(1, 7):
                Kv[i] = coef[_STAGE_COEF[i]] @ (
                    y + (ha[i, :i] @ K[:i]).reshape(shape))
            stats.rhs_evals += 6
            y5 = y + ((hd * _DP_B5) @ K).reshape(shape)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err_vec = ((hd * _DP_E) @ K).reshape(shape)
            err = float(np.max(np.abs(err_vec) / scale))
            if not math.isfinite(err):
                err = math.inf
            taken += 1
            if taken > max_steps:
                raise IntegrationError(f"step budget exhausted near t = {t}", t)
            if err <= 1.0:
                y = y5
                K[0] = K[6]  # first-same-as-last pair
                stats.steps += 1
                if hs == remaining:
                    t = t1
                    if hs < h:
                        break  # clipped to land: h is still the proposal
                else:
                    t = t + hd
                h = hs * (5.0 if err == 0.0
                          else min(5.0, max(0.2, 0.9 * err ** -0.2)))
            else:
                stats.rejected += 1
                h = hs * (max(0.1, 0.9 * err ** -0.2) if math.isfinite(err)
                          else 0.1)
                # K[0] still holds A(t) y: the step was rejected, the
                # state did not move.  Underflow is only meaningful here,
                # where the controller is shrinking.
                if h < 1e-14 * max(1.0, abs(t)):
                    raise IntegrationError(
                        f"step size underflow at t = {t} "
                        "(stiffness or singularity)", t
                    )
    return y, h, Kv[0]


def _sweep(A, stops, y0, rtol, atol, stats, max_steps):
    """Integrate y' = A(t) y once across the monotone ``stops``, yielding
    the state at each of them (``y0`` first).

    Hops between stops are split at the interior ones of
    ``A.breakpoints``.  The step size and the slope carry from one stop to
    the next; only a segment that starts at a breakpoint restarts from the
    initial-step estimate, so no step straddles a jump or reuses a slope
    from across it.
    """
    stats = stats if stats is not None else StepStats()
    breakpoints = A.breakpoints
    y, h, f = y0, None, None
    yield y
    for a, b in zip(stops, stops[1:]):
        inner = [c for c in breakpoints if min(a, b) < c < max(a, b)]
        cuts = [a] + (inner if a < b else inner[::-1]) + [b]
        for t0, t1 in zip(cuts, cuts[1:]):
            if t0 in breakpoints:
                h = f = None
            y, h, f = _rk_segment(A, t0, t1, y, rtol, atol, stats,
                                  max_steps, h, f)
        yield y


def evolve(
    A: CoefficientPath,
    s: float,
    t: float,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
    max_steps: int = 2_000_000,
) -> Operator:
    """Propagator X(t, s) of x' = A(t) x, as an operator.

    Integrates the matrix equation Y' = A Y with Y(s) = id; for t < s the
    integrator steps backward in time.
    """
    y = list(_sweep(A, (s, t), np.eye(A.space.dim), tol, tol, stats,
                    max_steps))[-1]
    return Operator(y, A.space)


def sweep_vector(
    A: CoefficientPath,
    stops: Sequence[float],
    v,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
    max_steps: int = 2_000_000,
) -> list:
    """X(tau, stops[0]) v at every tau of the monotone ``stops``, as
    ndarrays, from one integration of the vector equation across them."""
    return list(_sweep(A, stops, np.array(v, dtype=float), tol, tol, stats,
                       max_steps))


def sweep_two_sided(
    A: CoefficientPath,
    stops: Sequence[float],
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
):
    """Yield (X(tau, tau0), X(tau0, tau)) at every tau of the monotone
    ``stops``, tau0 = stops[0], from one integration across them; ``A``
    returns bare (r, r) matrices.

    Y = X(tau0, tau) solves the adjoint equation Y' = -Y A(tau), so its
    transpose solves the linear equation (Y^T)' = -A^T Y^T.  The sweep is
    the plain linear one of the state [X; Y^T] under blockdiag(A, -A^T),
    held as a 2-member stack: each step fetches A at its stage times once
    for both halves, and one step controller covers both.  Y X = I holds
    up to truncation error only.  A failure raises at the first stop it
    keeps from being reached, after the pairs before it have been yielded.
    """
    def both(ts):  # blockdiag(a, -a^T) per time, as a 2-member stack
        a = np.asarray(A.eval(ts), dtype=float)
        out = np.empty(a.shape[:-2] + (2,) + a.shape[-2:])
        out[..., 0, :, :] = a
        np.negative(np.swapaxes(a, -1, -2), out=out[..., 1, :, :])
        return out

    pair = CoefficientPath(eval=both, space=A.space,
                           breakpoints=A.breakpoints, domain=A.domain)
    eye = np.eye(A.space.dim)
    for s in _sweep(pair, stops, np.stack((eye, eye)), tol, tol, stats,
                    2_000_000):
        yield s[0], s[1].T.copy()


def propagate_vector(
    A: CoefficientPath,
    s: float,
    t: float,
    v: Vector,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
    max_steps: int = 2_000_000,
) -> Vector:
    """X(t, s) v by direct integration of the vector equation
    (the full propagator matrix is never formed)."""
    y = sweep_vector(A, (s, t), v.entries, tol, stats, max_steps)[-1]
    return Vector(y, A.space)


def variation_of_parameters(
    A: CoefficientPath,
    g: Callable[[float], np.ndarray],
    s: float,
    t: float,
    x_s: Vector,
    tol: float = DEFAULT_ODE_TOL,
    g_breakpoints: Sequence[float] = (),
) -> Vector:
    """Solution at t of the inhomogeneous equation x' = A(t) x + g(t) with
    x(s) = x_s, integrated directly as the linear equation of (x, 1) under
    the augmented coefficient [[A, g], [0, 0]]."""
    n = A.space.dim
    g_stack = stacked(g)

    def augmented(ts):
        out = np.zeros((len(ts), n + 1, n + 1))
        out[:, :n, :n] = A.eval(ts)
        out[:, :n, n] = g_stack(ts)
        return out

    bps = tuple(set(A.breakpoints) | set(float(b) for b in g_breakpoints))
    aug = CoefficientPath(eval=augmented,
                          space=VectorSpaceSpec(n + 1, A.space.norm_kind),
                          breakpoints=bps, domain=A.domain)
    y0 = np.append(np.array(x_s.entries, dtype=float), 1.0)
    y = list(_sweep(aug, (s, t), y0, tol, tol, None, 2_000_000))[-1]
    return Vector(y[:n], A.space)


@dataclass(frozen=True)
class ComparisonInput:
    """Data for the two-system comparison estimate.

    The hypothesis ||X1(t,s)^sign|| <= gain * exp(-rate (t-s)) for s <= t
    is asserted by the caller, not proven here; it is recorded so reports
    can echo it.
    """

    A1: CoefficientPath
    A2: CoefficientPath
    gain: float
    rate: float
    sign: int

    def __post_init__(self):
        if self.gain < 1.0:
            raise ValueError("gain must be >= 1")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class ComparisonBounds:
    growth_bound: float
    difference_bound: float
    coupling_integral: float


def comparison_bounds(
    c: ComparisonInput, s: float, t: float, tol: float = 1e-10
) -> ComparisonBounds:
    """Bounds on ||X2(t,s)^sign|| and ||X2^sign - X1^sign|| in terms of the
    envelope of X1 and the L1 distance of the coefficients:

        growth     = gain e^{-rate (t-s)} e^{gain * int ||A2 - A1||}
        difference = gain e^{-rate (t-s)} (e^{gain * int ||A2 - A1||} - 1)
    """
    if s > t:
        raise ValueError("comparison bounds require s <= t")
    kind = c.A1.space.norm_kind
    bps = tuple(sorted(set(c.A1.breakpoints) | set(c.A2.breakpoints)))
    integral = float(_integrate_nodes(
        lambda ts: matrix_norm(np.asarray(c.A2.eval(ts), dtype=float)
                               - np.asarray(c.A1.eval(ts), dtype=float),
                               kind),
        Interval(s, t), bps, tol,
    ))
    envelope = c.gain * math.exp(-c.rate * (t - s))
    arg = c.gain * integral
    blow = math.exp(arg) if arg < 709.0 else math.inf
    growth = envelope * blow
    difference = envelope * (blow - 1.0) if math.isfinite(blow) else math.inf
    return ComparisonBounds(growth, difference, integral)


class EvolutionOperator:
    """Two-parameter propagator X(t, s) = Phi(t) Phi(s)^{-1} from one sweep.

    The matrix equation is integrated once, forward from the earliest of
    ``times`` to the latest, stopping at each of them; Phi(tau) =
    X(tau, min(times)) is kept at every stop.  A query then costs one
    small solve and one product, and integrates nothing.  Both arguments
    of a query must be among ``times``, except that query(s, s) is the
    identity exactly for any s.

    An integration failure ends the sweep where it happened: the stops
    reached before it can still be queried, and a query that needs a
    later one raises the failure.  ``step_stats`` counts the sweep's work.
    """

    def __init__(
        self,
        source: CoefficientPath,
        times: Sequence[float],
        tol: float = DEFAULT_ODE_TOL,
    ):
        self.source = source
        self.step_stats = StepStats()
        self._failure: Optional[IntegrationError] = None
        stops = sorted(set(float(t) for t in times))
        self._phi = dict.fromkeys(stops)
        sweep = _sweep(source, stops, np.eye(source.space.dim), tol, tol,
                       self.step_stats, 2_000_000)
        try:
            for tau, phi in zip(stops, sweep):
                self._phi[tau] = phi
        except IntegrationError as exc:
            self._failure = exc

    def _phi_at(self, tau: float) -> np.ndarray:
        if tau not in self._phi:
            raise ValueError(f"t = {tau} is not one of the sweep's times")
        phi = self._phi[tau]
        if phi is None:
            raise self._failure
        return phi

    def query(self, t: float, s: float) -> Operator:
        """X(t, s).  query(s, s) is the identity exactly."""
        if t == s:
            return Operator.identity(self.source.space)
        x = self._phi_at(t) @ invert_matrix(self._phi_at(s))
        return Operator(x, self.source.space)


@dataclass(frozen=True)
class ParamEvolutionResult:
    """Propagators of D2 X = A(x, .) X, X(x, v0) = id on a grid.

    ``propagators[i][j]`` is X(x_grid[i], v_targets[j]).  ``continuity``
    is the max operator-norm discrepancy between neighboring grid columns,
    reported as a grid-level proxy for continuity in the parameter.
    """

    x_grid: tuple
    v0: float
    v_targets: tuple
    propagators: list
    continuity: float


def param_evolution(
    A: Callable[[float, float], np.ndarray],
    x_grid: Sequence[float],
    v0: float,
    v_targets: Sequence[float],
    space: VectorSpaceSpec,
    tol: float = DEFAULT_ODE_TOL,
    v_breakpoints: Sequence[float] = (),
    stats: Optional[StepStats] = None,
) -> ParamEvolutionResult:
    """Solve the parameter-dependent family: for each frozen x, evolve in
    v from v0 to every target.

    All columns share their stops, so they are integrated as one stacked
    (nx, r, r) state: one sweep per direction from v0, stopping at that
    side's targets in order, under one step controller whose error norm
    is the max over every column.  Each evaluation of the stack covers
    every x."""
    x_grid = tuple(float(x) for x in x_grid)
    v_targets = tuple(float(v) for v in v_targets)
    stack = CoefficientPath(
        eval=stacked(lambda v: [A(x, v) for x in x_grid]),
        space=space, breakpoints=v_breakpoints,
    )
    eye = np.tile(np.eye(space.dim), (len(x_grid), 1, 1))
    at = {}
    for side in (sorted(v for v in v_targets if v >= v0),
                 sorted((v for v in v_targets if v < v0), reverse=True)):
        stops = [v0] + side
        at.update(zip(stops, _sweep(stack, stops, eye, tol, tol, stats,
                                    2_000_000)))
    props = np.stack([at[v] for v in v_targets], axis=1)  # (nx, nt, r, r)
    diffs = (props[1:] - props[:-1]).reshape((-1,) + eye.shape[1:])
    continuity = float(np.max(matrix_norm(diffs, space.norm_kind),
                              initial=0.0))
    return ParamEvolutionResult(
        x_grid=x_grid,
        v0=float(v0),
        v_targets=v_targets,
        propagators=[list(col) for col in props],
        continuity=continuity,
    )
