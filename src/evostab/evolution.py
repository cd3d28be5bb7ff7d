"""Evolution operators X(t, s) of x' = A(t) x, by numerical integration.

Every equation integrated here is linear with a coefficient that does
not depend on the state, so the stepper is a Magnus method: a step is
y <- exp(Omega) y, where Omega is the 6th-order exponent of Blanes, Casas
& Ros (BIT 40, 2000) built from A at three Gauss-Legendre nodes and two
commutators.  Error control is Richardson step doubling: each attempted
step takes A at the nine nodes of the whole step and of its two halves
from one call of ``CoefficientPath.eval``, forms the three exponents as
one batched array computation and exponentiates them in one call
(:func:`expm`: closed form for r <= 2, scipy beyond).  The two half steps
give the accepted state, unextrapolated, so exp(-Omega) stays the exact
inverse of a step; a skew A gives an orthogonal propagator and det X
follows exp(int tr A) to within the Gauss quadrature of tr A.  The
tolerance acts per step, not as a global bound.

One sweep crosses monotone stops and returns the state at each, carrying
the step size from stop to stop; it restarts at declared breakpoints of
the coefficient so a step never straddles a jump.  The nodes are
interior, so an undeclared jump can be stepped over by up to 6% of a
step.  Backward propagation (t < s) steps with negative h rather than
inverting a forward result.

:class:`EvolutionOperator` answers many queries from one integration: it
sweeps a fundamental solution Phi across a set of declared times and
carries Phi^{-1} along by the inverse exponentials, and every X(t, s)
between them is Phi(t) Phi(s)^{-1}, forward and backward alike.  It is
the one two-sided sweep: the certificate checks and the sine-curve
transports both read their propagators and inverses off it.
:func:`sweep_vector` sweeps vectors and :func:`param_evolution` the
propagators of frozen-parameter columns from both sides of a level.

A coefficient that gives a (k, r, r) stack per time sweeps k systems
that share their stops as one state, (k, r, r) for propagators or
(k, r, 1) for vectors, under one step controller; its error norm is the
max over all members, and each exponential covers the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntegrationError
from .operators import Operator, VectorSpaceSpec

DEFAULT_ODE_TOL = 1e-10

# The three Gauss-Legendre nodes on [0, 1], and the nine times of a step
# of size h in units of h: those of the full step, then those of its two
# halves.  _SPANS is the length of each of the three sub-steps.
_GAUSS = np.array((0.5 - math.sqrt(15.0) / 10.0, 0.5,
                   0.5 + math.sqrt(15.0) / 10.0))
_NODES = np.concatenate((_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS))
_SPANS = np.array((1.0, 0.5, 0.5))
# a segment's first step is cut until h ||A|| <= _FIRST_REACH on its nodes
_FIRST_REACH = 1.0
# the accepted state is not extrapolated, so its error is the estimate
# itself: the controller aims at _SAFETY^7, about 8% of the tolerance
_SAFETY = 0.7
# attempted steps allowed in one segment before IntegrationError
_MAX_STEPS = 2_000_000


@dataclass
class StepStats:
    """Accumulated integrator diagnostics.

    ``rhs_evals`` counts coefficient values, the A matrices evaluated: 9
    per attempted step.  It keeps its name, which the reports' ``cost``
    carries.
    """

    steps: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    segments: int = 0


@dataclass(frozen=True)
class CoefficientPath:
    """t -> A(t), the coefficient of a linear evolution equation.

    ``eval(ts)`` maps a 1-D array of times to the stack of A over them on
    a new leading axis: (len(ts), r, r), or (len(ts), k, r, r) for k
    coefficients swept together.  A must be bounded on compact sets of
    times and piecewise continuous between breakpoints.  A source that
    only gives A one time at a time goes through
    :func:`evostab.calculus.stacked`.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    space: VectorSpaceSpec
    breakpoints: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple(sorted(float(b) for b in self.breakpoints))
        )

    def __call__(self, t: float) -> np.ndarray:
        """A(t): row 0 of the one-time stack."""
        return np.asarray(self.eval(np.array([float(t)])), dtype=float)[0]


def expm(m: np.ndarray) -> np.ndarray:
    """exp of every (r, r) matrix of the stack ``m`` (any leading shape).

    r = 1 is the scalar exponential and r = 2 the closed form of
    :func:`_expm2`; larger r goes to ``scipy.linalg.expm``, imported only
    here so that loading evostab does not load it.
    """
    r = m.shape[-1]
    if r == 1:
        return np.exp(m)
    if r == 2:
        return _expm2(m)
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(m)


def _expm2(m: np.ndarray) -> np.ndarray:
    """exp of a stack of 2x2 matrices in closed form.

    With tau the trace and N = M - tau/2 I, N^2 = q I for the discriminant
    q = ((a - d)/2)^2 + bc, so exp(M) = e^{tau/2} [c(q) I + s(q) N] with
    c = cosh sqrt(q), s = sinh sqrt(q) / sqrt(q) for q > 0, cos and sin of
    sqrt(-q) for q < 0, and their Taylor series for |q| < 1e-2.
    """
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    half = 0.5 * (a + d)
    p = 0.5 * (a - d)
    q = p * p + b * c
    small = np.abs(q) < 1e-2
    root = np.sqrt(np.where(small, 1.0, np.abs(q)))
    grows = q > 0.0
    ch = np.where(grows, np.cosh(root), np.cos(root))
    sh = np.where(grows, np.sinh(root), np.sin(root)) / root
    # the series to q^4 leave < 3e-17 for |q| < 1e-2
    ch = np.where(small, 1.0 + q * (1 / 2 + q * (1 / 24 + q * (
        1 / 720 + q / 40320))), ch)
    sh = np.where(small, 1.0 + q * (1 / 6 + q * (1 / 120 + q * (
        1 / 5040 + q / 362880))), sh)
    scale = np.exp(half)
    ch = scale * ch
    sh = scale * sh
    out = np.empty(m.shape)
    out[..., 0, 0] = ch + sh * p
    out[..., 0, 1] = sh * b
    out[..., 1, 0] = sh * c
    out[..., 1, 1] = ch - sh * p
    return out


def _commutator(x, y):
    return x @ y - y @ x


def _magnus_exponents(coef: np.ndarray, h: float) -> np.ndarray:
    """The 6th-order Magnus exponents of a step h and of its two halves,
    as a (3, ...) stack, from A at the step's nine ``_NODES`` (``coef``,
    a (9, ...) stack).

    Each is Blanes, Casas & Ros' commutator form on three Gauss-Legendre
    values A1, A2, A3 of a sub-step of length k:

        a1 = k A2,  a2 = (sqrt(15) k / 3)(A3 - A1),
        a3 = (10 k / 3)(A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -(1/60) [a1, 2 a3 + C1],
        Omega = a1 + a3 / 12 + (1/240) [-20 a1 - a3 + C1, a2 + C2].
    """
    g = coef.reshape((3, 3) + coef.shape[1:])
    a1, a2, a3 = g[:, 0], g[:, 1], g[:, 2]
    k = (h * _SPANS).reshape((3,) + (1,) * (a1.ndim - 1))
    al1 = k * a2
    al2 = (math.sqrt(15.0) / 3.0) * k * (a3 - a1)
    al3 = (10.0 / 3.0) * k * (a3 - 2.0 * a2 + a1)
    omega = al1 + al3 / 12.0
    if coef.shape[-1] == 1:
        return omega  # 1x1 matrices commute
    c1 = _commutator(al1, al2)
    c2 = (-1.0 / 60.0) * _commutator(al1, 2.0 * al3 + c1)
    return omega + _commutator(-20.0 * al1 - al3 + c1, al2 + c2) / 240.0


def _magnus_segment(A, t0, t1, y, tol, stats, h0=None, inv=None):
    """Adaptive 6th-order Magnus stepping of y' = A(t) y from t0 to t1 on
    a breakpoint-free segment of the coefficient path ``A``.

    A step of size h is y <- exp(Omega_2) exp(Omega_1) y, two half steps;
    the whole step exp(Omega) y is its Richardson partner, and
    |exp(Omega) y - y_new| / 63 its error estimate.  The error norm is the
    max over components of |err| / (tol + tol * max(|y|, |y_new|)), and
    the step factor _SAFETY err^(-1/7) is clamped to [0.2, 4].  A of all
    three exponents comes from one ``A.eval`` call over the nine nodes,
    and the three exponentials from one :func:`expm` call.  ``y`` is any
    ndarray shape that A(t) @ y keeps.  ``inv``, when given, is carried
    along as inv @ exp(-Omega_1) @ exp(-Omega_2): the inverse of the
    propagator applied to y, to roundoff.

    ``h0`` carries over from the segment before; without it, the first
    step starts at the whole segment and is cut until h ||A|| <=
    _FIRST_REACH at its nodes, so that one long step that aliases an
    oscillating A is never accepted.  Returns y(t1), inv(t1) and the step
    to start the next segment with (the controller's proposal before it
    was clipped to land on t1).  ``stats.rhs_evals`` counts coefficient
    values, 9 per attempted step.
    """
    if t1 == t0:
        return y, inv, h0
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    # degenerate segment (a few ulps, e.g. grid points that almost coincide
    # with a breakpoint): its one step is exact to O(span^7) and is taken
    # without error control, which could only underflow there
    degenerate = span <= 1e-13 * max(1.0, abs(t0), abs(t1))
    first = h0 is None and not degenerate
    h = span if h0 is None else abs(h0)
    t = t0
    stats.segments += 1
    taken = 0
    # overflowing or non-finite exponents only ever reach the error
    # estimate, which then rejects the step: numpy need not warn about them
    with np.errstate(all="ignore"):
        while True:
            remaining = abs(t1 - t)
            if remaining <= 0.0:
                break
            hs = min(h, remaining)
            hd = direction * hs
            coef = np.asarray(A.eval(t + _NODES * hd), dtype=float)
            stats.rhs_evals += 9
            taken += 1
            if taken > _MAX_STEPS:
                raise IntegrationError(f"step budget exhausted near t = {t}", t)
            if first:
                size = float(np.max(np.sum(np.abs(coef), axis=-1)))
                if hs * size > _FIRST_REACH and math.isfinite(size):
                    stats.rejected += 1
                    h = _FIRST_REACH / size
                    _check_underflow(h, t)
                    continue
            omega = _magnus_exponents(coef, hd)
            if inv is not None:
                omega = np.concatenate((omega, -omega[1:]))
            e = expm(omega)
            y_new = e[2] @ (e[1] @ y)
            scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.max(np.abs(e[0] @ y - y_new) / scale)) / 63.0
            if not math.isfinite(err):
                err = math.inf
            factor = 4.0 if err == 0.0 else min(
                4.0, max(0.2, _SAFETY * err ** (-1.0 / 7.0)))
            if err <= 1.0 or degenerate:
                y = y_new
                if inv is not None:
                    inv = inv @ e[3] @ e[4]
                first = False
                stats.steps += 1
                if degenerate:
                    return y, inv, h0
                if hs == remaining:
                    t = t1
                    if hs < h:
                        break  # clipped to land: h is still the proposal
                else:
                    t = t + hd
                h = hs * factor
            else:
                stats.rejected += 1
                h = hs * factor
                _check_underflow(h, t)
    return y, inv, h


def _check_underflow(h, t):
    # only meaningful after a rejection, where the controller is shrinking
    if h < 1e-14 * max(1.0, abs(t)):
        raise IntegrationError(
            f"step size underflow at t = {t} (stiffness or singularity)", t)


def _sweep(A, stops, y0, tol, stats, inverse=False):
    """Integrate y' = A(t) y once across the monotone ``stops``, yielding
    (y, inv) at each of them (``y0`` first).  ``inv`` is None, or with
    ``inverse`` the inverse of the propagator from stops[0], carried from
    the identity by the same exponentials as y.

    Hops between stops are split at the interior ones of
    ``A.breakpoints``.  The step size carries from one stop to the next;
    only a segment that starts at a breakpoint restarts with a bounded
    first step, so no step straddles a jump.
    """
    stats = stats if stats is not None else StepStats()
    breakpoints = A.breakpoints
    y, h = y0, None
    inv = np.eye(A.space.dim) if inverse else None
    yield y, inv
    for a, b in zip(stops, stops[1:]):
        inner = [c for c in breakpoints if min(a, b) < c < max(a, b)]
        cuts = [a] + (inner if a < b else inner[::-1]) + [b]
        for t0, t1 in zip(cuts, cuts[1:]):
            if t0 in breakpoints:
                h = None
            y, inv, h = _magnus_segment(A, t0, t1, y, tol, stats, h, inv)
        yield y, inv


def evolve(
    A: CoefficientPath,
    s: float,
    t: float,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
) -> Operator:
    """Propagator X(t, s) of x' = A(t) x, as an operator.

    Integrates the matrix equation Y' = A Y with Y(s) = id; for t < s the
    integrator steps backward in time.
    """
    y = list(_sweep(A, (s, t), np.eye(A.space.dim), tol, stats))[-1][0]
    return Operator(y, A.space)


def sweep_vector(
    A: CoefficientPath,
    stops: Sequence[float],
    v,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
) -> list:
    """X(tau, stops[0]) v at every tau of the monotone ``stops``, as
    ndarrays, from one integration of the vector equation across them."""
    return [y for y, _ in _sweep(A, stops, np.array(v, dtype=float), tol,
                                 stats)]


class EvolutionOperator:
    """Two-parameter propagator X(t, s) = Phi(t) Phi(s)^{-1} from one sweep.

    The matrix equation is integrated once, forward from the earliest of
    ``times`` to the latest, stopping at each of them; Phi(tau) =
    X(tau, min(times)) and its inverse are kept at every stop.  Each
    accepted step Phi <- exp(Omega_2) exp(Omega_1) Phi takes the inverse
    along as Y <- Y exp(-Omega_1) exp(-Omega_2), from the step's own
    exponents, so Y Phi = I holds to roundoff.  A query then costs one
    product, and integrates and inverts nothing.  Both arguments
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
        self._phi = dict.fromkeys(stops)  # tau -> (Phi(tau), Phi(tau)^-1)
        sweep = _sweep(source, stops, np.eye(source.space.dim), tol,
                       self.step_stats, inverse=True)
        try:
            for tau, pair in zip(stops, sweep):
                self._phi[tau] = pair
        except IntegrationError as exc:
            self._failure = exc

    def _phi_at(self, tau: float) -> tuple:
        if tau not in self._phi:
            raise ValueError(f"t = {tau} is not one of the sweep's times")
        pair = self._phi[tau]
        if pair is None:
            raise self._failure
        return pair

    def query(self, t: float, s: float) -> Operator:
        """X(t, s).  query(s, s) is the identity exactly."""
        if t == s:
            return Operator.identity(self.source.space)
        x = self._phi_at(t)[0] @ self._phi_at(s)[1]
        return Operator(x, self.source.space)


@dataclass(frozen=True)
class ParamEvolutionResult:
    """Propagators of D2 X = A(x, .) X, X(x, v0) = id on a grid.

    ``propagators[i, j]`` is X(x_grid[i], v_targets[j]), of shape
    (len(x_grid), len(v_targets), r, r).
    """

    x_grid: tuple
    v0: float
    v_targets: tuple
    propagators: np.ndarray


def param_evolution(
    A: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_grid: Sequence[float],
    v0: float,
    v_targets: Sequence[float],
    space: VectorSpaceSpec,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
) -> ParamEvolutionResult:
    """Solve the parameter-dependent family: for each frozen x, evolve in
    v from v0 to every target.

    ``A(xs, vs)`` takes arrays of x and v that broadcast against each
    other and returns the stack of the matrices over them, as the fields
    of a connection form do.  All columns share their stops, so they are
    integrated as one stacked (nx, r, r) state: one sweep per direction
    from v0, stopping at that side's targets in order, under one step
    controller whose error norm is the max over every column.  Each step
    takes A over every x at all its nodes from one call."""
    x_grid = tuple(float(x) for x in x_grid)
    v_targets = tuple(float(v) for v in v_targets)
    xs = np.array(x_grid)
    stack = CoefficientPath(eval=lambda vs: A(xs, vs[:, None]), space=space)
    eye = np.tile(np.eye(space.dim), (len(x_grid), 1, 1))
    at = {}
    for side in (sorted(v for v in v_targets if v >= v0),
                 sorted((v for v in v_targets if v < v0), reverse=True)):
        stops = [v0] + side
        at.update(zip(stops, (y for y, _ in _sweep(stack, stops, eye, tol,
                                                   stats))))
    return ParamEvolutionResult(
        x_grid=x_grid,
        v0=float(v0),
        v_targets=v_targets,
        propagators=np.stack([at[v] for v in v_targets], axis=1),
    )
