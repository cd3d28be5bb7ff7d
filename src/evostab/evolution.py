"""Evolution operators X(t, s) of x' = A(t) x, by numerical integration.

Every equation integrated here is linear with a coefficient that does
not depend on the state, so the stepper is a Magnus method: a step is
y <- exp(Omega) y, where Omega is the 6th-order exponent of Blanes, Casas
& Ros (BIT 40, 2000) built from A at three Gauss-Legendre nodes and two
commutators.  Error control is Richardson step doubling: a step takes A
at the nine nodes of the whole step and of its two halves, and its
error is the whole step's distance from the two half steps, over 63.
The two half steps give the accepted state, unextrapolated, so
exp(-Omega) stays the exact inverse of a step; a skew A gives an
orthogonal propagator and det X follows exp(int tr A) to within the
Gauss quadrature of tr A.  Exponentials of a stack are one :func:`expm`
call (closed form for r <= 2, scipy beyond).  The tolerance acts per
step, not as a global bound.  Steps restart at declared breakpoints of
the coefficient so that no step straddles a jump; the nodes are
interior, so an undeclared jump can be stepped over by up to 6% of a
step.

One driver runs that step, :func:`_window_sweep`.  It sweeps a
fundamental solution Phi across the hull of a set of stops and yields
Phi y0 for a start state y0 at the stops, a stack per window; the sweep
of Phi itself, and only that one, carries Phi^{-1} along by the inverse
exponentials.  A state that stops being finite ends the sweep at the
window where that happened.  A step is judged on its own matrices, not
on the state, and a window of equal steps takes one ``A.eval`` call and
one :func:`expm` call.  A segment's windows hold ``_WINDOW`` = 16 steps
at first; after a window whose steps were all accepted with a step
factor of at most ``_WINDOW_HOLD`` = 1.25 the next holds twice as many,
up to ``_WINDOW_MAX`` = 64, and a rejection brings it back to 16.  The
step sequence depends only on (A, span, tol), and each stop is a side
step off it that no other stop moves.  :class:`EvolutionOperator` sweeps
the identity, and every X(t, s) between its times is Phi(t) Phi(s)^{-1}:
the sine-curve transports read it, and the certificate checks read all
their X(t, s) and X(s, t) as two stacked products.
:func:`sweep_vector` and :func:`param_evolution` sweep vectors and
stacks, the extension's fibers and corridors among them, into one stack
over the stops; descending stops sweep t -> -A(-t).
A (k, r, r) stack of A per time sweeps k systems that share their stops
as one (k, r, c) state, and a step's error is the max over all of them.
:func:`evolve` is the sweep of the identity over the two stops (s, t),
so X(s, t) for t < s is an integration of its own, not the inverse of
X(t, s).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntegrationError, InvalidOperatorError
from .operators import Operator, VectorSpaceSpec

DEFAULT_ODE_TOL = 1e-10

# the three Gauss-Legendre nodes on [0, 1]
_GAUSS = np.array((0.5 - math.sqrt(15.0) / 10.0, 0.5,
                   0.5 + math.sqrt(15.0) / 10.0))
# a segment's first step is cut until h ||A|| <= _FIRST_REACH on its nodes;
# a windowed sweep forgives a step that rounding stretched by _FIRST_SLACK
_FIRST_REACH = 1.0
_FIRST_SLACK = 1.0 + 2.0 ** -20
# the accepted state is not extrapolated, so its error is the estimate
# itself: the controller aims at _SAFETY^7, about 8% of the tolerance
_SAFETY = 0.7
# attempted steps allowed in one segment before IntegrationError
_MAX_STEPS = 2_000_000
# equal steps in a segment's first window of the stop-blind sweep
# (_window_sweep), and in the window after a rejection: one coefficient
# call and one expm call each
_WINDOW = 16
# a window's step may grow up to 8-fold: its accepted steps all vouch for
# the error model.  A segment's remainder within a window's length of
# steps of 9/8 the proposal is one window of stretched steps, not a window
# and a short one
_WINDOW_GROWTH = 8.0
_WINDOW_STRETCH = 1.125
# a window whose steps were all accepted with a step factor of at most
# _WINDOW_HOLD makes the next one twice as long, up to _WINDOW_MAX steps
_WINDOW_HOLD = 1.25
_WINDOW_MAX = 64


@dataclass
class StepStats:
    """Accumulated integrator diagnostics.

    ``steps`` counts accepted steps and ``rejected`` the other attempted
    ones: in a window of :func:`_window_sweep`, the first rejected step
    and every step after it (a first-step cut rejects a whole window).
    ``rhs_evals`` counts coefficient values, the A matrices evaluated: 9
    per attempted step, and 3 per side step; one value of a (k, r, r)
    stack counts once.  It keeps its name, which the reports' ``cost``
    carries.  ``segments`` counts the breakpoint-free pieces of each
    sweep's hull, and ``windows`` the windows attempted, first-step cuts
    included: one ``A.eval`` call each.
    """

    steps: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    segments: int = 0
    windows: int = 0


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
    sqrt(-q) for q < 0, and their Taylor series for |q| < 1e-2.  A regime
    that no member of the stack is in is not computed: no sqrt and no
    trig or hyperbolic function when every |q| < 1e-2, no series when
    none is, and only cosh and sinh (cos and sin) when every q > 0 (none
    is).  Each member goes through the same ufuncs whatever else its
    stack holds, so its bits do not depend on the stack.
    """
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    half = 0.5 * (a + d)
    p = 0.5 * (a - d)
    q = p * p + b * c
    small = np.abs(q) < 1e-2
    all_small = bool(small.all())
    if not all_small:
        root = np.sqrt(np.where(small, 1.0, np.abs(q)))
        grows = q > 0.0
        if grows.all():
            ch, sh = np.cosh(root), np.sinh(root)
        elif grows.any():
            ch = np.where(grows, np.cosh(root), np.cos(root))
            sh = np.where(grows, np.sinh(root), np.sin(root))
        else:  # no q > 0, NaN included
            ch, sh = np.cos(root), np.sin(root)
        sh = sh / root
    if all_small or small.any():
        # the series to q^4 leave < 3e-17 for |q| < 1e-2
        ch_small = 1.0 + q * (1 / 2 + q * (1 / 24 + q * (
            1 / 720 + q / 40320)))
        sh_small = 1.0 + q * (1 / 6 + q * (1 / 120 + q * (
            1 / 5040 + q / 362880)))
        if all_small:
            ch, sh = ch_small, sh_small
        else:
            ch = np.where(small, ch_small, ch)
            sh = np.where(small, sh_small, sh)
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


def _bcr_exponent(a1, a2, a3, k):
    """Blanes, Casas & Ros' 6th-order exponent of a sub-step of length k
    from A1, A2, A3, the values of A at its three Gauss-Legendre nodes
    (stacks that broadcast against k):

        a1 = k A2,  a2 = (sqrt(15) k / 3)(A3 - A1),
        a3 = (10 k / 3)(A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -(1/60) [a1, 2 a3 + C1],
        Omega = a1 + a3 / 12 + (1/240) [-20 a1 - a3 + C1, a2 + C2].
    """
    al1 = k * a2
    al2 = (math.sqrt(15.0) / 3.0) * k * (a3 - a1)
    al3 = (10.0 / 3.0) * k * (a3 - 2.0 * a2 + a1)
    omega = al1 + al3 / 12.0
    if a1.shape[-1] == 1:
        return omega  # 1x1 matrices commute
    c1 = _commutator(al1, al2)
    c2 = (-1.0 / 60.0) * _commutator(al1, 2.0 * al3 + c1)
    return omega + _commutator(-20.0 * al1 - al3 + c1, al2 + c2) / 240.0


def _check_underflow(h, t):
    # only meaningful after a rejection, where the controller is shrinking
    if h < 1e-14 * max(1.0, abs(t)):
        raise IntegrationError(
            f"step size underflow at t = {t} (stiffness or singularity)", t)


def _scan_last(a, mirrored=False):
    """a[k-1] ... a[1] a[0] for the (k, ...) stack of matrices a (mirrored:
    a[0] a[1] ... a[k-1]), bracketed as the last element of the doubling
    scan in :func:`_window_sweep`, so with its bits: a right-aligned tree
    of pairwise products."""
    while len(a) > 1:
        odd = len(a) % 2
        hi, lo = a[odd + 1::2], a[odd::2]
        pairs = lo @ hi if mirrored else hi @ lo
        a = np.concatenate((a[:1], pairs)) if odd else pairs
    return a[0]


def _window_sweep(A, stops, y0, tol, stats):
    """Integrate Phi' = A(t) Phi, Phi(stops[0]) = I, across the hull of
    the monotone ``stops`` and yield (Phi y0, Phi^{-1}) at them, a pair of
    stacks for those equal to stops[0] and then one per window.  ``y0`` is
    a (r, c) or (k, r, c) state for the (r, r) or (k, r, r) stacks of A,
    and then the second of each pair is None; y0 = None sweeps the
    propagator Phi itself, and only that sweep carries Phi^{-1} along, by
    the inverse exponentials.  Descending stops sweep the reflected
    coefficient t -> -A(-t) over the negated stops: that sweep has its own
    step sequence, and its failures are located in the caller's t.

    The hull is split at the interior breakpoints of ``A``, and every
    segment starts afresh with the first-step cut.  A segment is crossed
    by windows of equal steps, each made of a whole step exp(Omega) and
    its two halves exp(Omega_2) exp(Omega_1).  A step is judged on its
    own matrices: its error is the largest entry of
    |exp(Omega) - exp(Omega_2) exp(Omega_1)| / 63 against tol (1 + |.|),
    over every member of a stack, so acceptance does not depend on the
    state.  The steps before a window's first rejected one are accepted.
    The next window starts where they end, so its step size comes from
    the errors of the last quarter of the steps up to the rejected one,
    not from those of its first steps, which may sit on a singular point
    of A; it grows by at most ``_WINDOW_GROWTH``.  After a rejection it
    also heeds the worst finite error of the rejected step and of the
    steps after it, which were taken at the same size: the first
    rejected step need not be the worst of them.  A second rejection of
    a first step at the same point gauges the error's order from the
    two, so that the step shrinks at once past such a point rather than
    by the factor 0.2 per window.  A window's length follows the same
    verdicts: a segment's windows hold ``_WINDOW`` steps while its first
    step is being cut and after any rejection, and a window whose steps
    were all accepted with a factor of at most ``_WINDOW_HOLD`` makes
    the next twice as long, up to ``_WINDOW_MAX`` steps.  The step
    sequence thus depends on (A, hull, tol) alone.  A segment's last
    window may stretch its steps by up to ``_WINDOW_STRETCH`` (while the
    first step is still being cut, by no more than the cut forgives),
    and a window whose last boundary would round past the segment's end
    ends on it exactly.

    A stop inside an accepted step is reached by a side step: the
    exponent over [step start, stop] from A at its three Gauss nodes,
    applied to the state at the step start.  Side steps never feed back
    into the stepping, so the stops do not move the steps.  A window's
    one ``A.eval`` call takes the three Gauss nodes of each of its
    sub-steps (three per step) and of the side step to each stop it
    covers, and its one :func:`expm` call the exponents of all of them
    (and minus those of the half and side steps, for Phi^{-1}).  A side
    step past the window's first rejected step is discarded and taken
    again with a later window.  A stop whose state or Phi^{-1} is not
    finite (a side step into a NaN of A) ends the sweep, and so does a
    window whose carried state or Phi^{-1} is not finite at its end (an
    overflow): the failure, raised after the stops before it, is located
    at the last of its boundaries where they were still finite.

    The states at a window's accepted boundaries are running products of
    its steps, formed by doubling.  When the accepted steps reach no
    stop, only the end state (and Phi^{-1}) is formed, by the pairwise
    product tree of :func:`_scan_last`, which has the bits of the
    doubling scan's last element; an end that is not finite takes the
    full path, which locates the failure.

    numpy takes only a window's stacks: the Gauss nodes, the ``A.eval``
    call, the exponents and their :func:`expm`, the step products and
    each step's error reduction.  Its scalar control runs on Python
    floats, whose IEEE operations round as numpy's do: the boundaries
    (t + hs i, or min(t + hs i, end)), lengths and halves are lists, the
    stops are found by bisection and not at all in a window that holds
    none, and the error verdict and step-size factor run on the list of
    the steps' errors, where a NaN error rejects its step and counts as
    an infinite worst error.  Stops that are not finite are refused with
    ValueError, as are stops that are not monotone.
    """
    stats = stats if stats is not None else StepStats()
    stops = np.asarray(stops, dtype=float).tolist()
    if not all(map(math.isfinite, stops)):
        raise ValueError("the stops of a sweep must be finite")
    sign = -1.0 if stops[-1] < stops[0] else 1.0
    caller_t = lambda t: sign * t + 0.0  # the caller's t, and never -0.0
    evaluate, breakpoints = A.eval, A.breakpoints
    if sign < 0.0:
        evaluate = lambda ts, ev=evaluate: -np.asarray(ev(-ts), dtype=float)
        breakpoints = sorted(-c for c in breakpoints)
        stops = [-x for x in stops]
    if sorted(stops) != stops:
        raise ValueError("the stops of a sweep must be monotone")
    inv = np.eye(A.space.dim) if y0 is None else None
    phi = inv if y0 is None else y0
    lo, hi = stops[0], stops[-1]
    j = bisect_right(stops, lo)
    yield np.array((phi,) * j), None if inv is None else np.array((inv,) * j)
    inner = [c for c in breakpoints if lo < c < hi]
    cuts = [lo] + inner + [hi] if hi > lo else []
    # overflowing or non-finite exponents only ever reach the error
    # estimates, which then reject: numpy need not warn about them
    with np.errstate(all="ignore"):
        for t0, t1 in zip(cuts, cuts[1:]):
            stats.segments += 1
            t, h, first, taken, last_reject = t0, t1 - t0, True, 0, None
            width = _WINDOW
            while t < t1:
                remaining = t1 - t
                # a span within 2^-40 of n steps is n stretched steps, not
                # n steps and a sliver
                n = max(1, math.ceil(remaining / h * (1.0 - 2.0 ** -40)))
                # a stretch past the cut's slack would be cut back to h,
                # and the same window would repeat until _MAX_STEPS
                stretch = _FIRST_SLACK if first else _WINDOW_STRETCH
                if remaining <= width * h * stretch:
                    n = min(n, width)
                    hs = remaining / n
                    b = [t + hs * i for i in range(n)] + [t1]
                else:
                    n, hs = width, h
                    b = [min(t + hs * i, t1) for i in range(n + 1)]
                taken += n
                if taken > _MAX_STEPS:
                    raise IntegrationError(f"step budget exhausted near t = "
                                           f"{caller_t(t)}", caller_t(t))
                lengths = [y - x for x, y in zip(b, b[1:])]
                half = [0.5 * x for x in lengths]
                # the stops in the window, each from the boundary at or
                # before it (at); the side steps are those off a boundary
                end, at, side = j, [], []
                if j < len(stops) and stops[j] <= b[-1]:
                    end = bisect_right(stops, b[-1], j)
                    at = [bisect_right(b, x) - 1 for x in stops[j:end]]
                    side = [i for i, x in enumerate(stops[j:end])
                            if x > b[at[i]]]
                m = len(side)
                starts = np.array(b[:-1] + b[:-1] + [
                    x + y for x, y in zip(b, half)] + [
                    b[at[i]] for i in side])
                spans = np.array(lengths + half + half + [
                    stops[j + i] - b[at[i]] for i in side])
                nodes = starts + np.multiply.outer(_GAUSS, spans)
                coef = np.asarray(evaluate(nodes.ravel()), dtype=float)
                stats.rhs_evals += nodes.size
                stats.windows += 1
                coef = coef.reshape(nodes.shape + coef.shape[1:])
                if first:
                    size = float(np.abs(coef[:, 0:3 * n:n]).sum(axis=-1).max())
                    # the sizing above may stretch a cut step by rounding;
                    # a cut that shrank it by no more would recur forever
                    if (lengths[0] * size > _FIRST_REACH * _FIRST_SLACK
                            and math.isfinite(size)):
                        stats.rejected += n
                        h = _FIRST_REACH / size
                        _check_underflow(h, caller_t(t))
                        continue
                omega = _bcr_exponent(coef[0], coef[1], coef[2], spans.reshape(
                    spans.shape + (1,) * (coef.ndim - 2)))
                e = expm(omega if inv is None
                         else np.concatenate((omega, -omega[n:])))
                e0, e1, e2 = e[:n], e[n:2 * n], e[2 * n:3 * n]
                prod = e2 @ e1
                scale = tol + tol * np.maximum(np.abs(e0), np.abs(prod))
                err = ((np.abs(e0 - prod) / scale).reshape(n, -1).max(
                    axis=1) / 63.0).tolist()
                k = 0
                while k < n and err[k] <= 1.0:  # NaN rejects too
                    k += 1
                judged = err[:k + 1]
                worst = max(judged[-max(1, len(judged) // 4):])
                later = [x for x in err[k:] if math.isfinite(x)]
                if later:
                    worst = max(worst, *later)
                # a NaN can only be the rejected step's, the last judged
                if not math.isfinite(worst) or math.isnan(judged[-1]):
                    worst = math.inf
                factor = _WINDOW_GROWTH if worst == 0.0 else min(
                    _WINDOW_GROWTH, max(0.2, _SAFETY * worst ** (-1.0 / 7.0)))
                if k == 0 and last_reject is not None and 1.0 < worst < \
                        last_reject[1] and last_reject[0] == t:
                    # err ~ h^p with p from the two rejections, in [1, 7]
                    p = min(7.0, max(1.0, math.log(last_reject[1] / worst)
                                     / math.log(last_reject[2] / hs)))
                    factor = min(factor, (_SAFETY ** 7 / worst) ** (1.0 / p))
                last_reject = (t, worst, hs) if k == 0 else None
                stats.steps += k
                stats.rejected += n - k
                if inv is not None:
                    i1, i2 = e[3 * n + m:4 * n + m], e[4 * n + m:5 * n + m]
                # accepted steps that reach no stop need only the state
                # (and Phi^-1) at b[k]: the last products of the scan below
                quiet = j == end or stops[j] > b[k]
                if quiet and k:
                    end_phi = _scan_last(prod[:k]) @ phi
                    end_inv = None if inv is None else inv @ _scan_last(
                        i1[:k] @ i2[:k], mirrored=True)
                    # an end that is not finite is located below
                    quiet = np.isfinite(end_phi).all() and (
                        end_inv is None or np.isfinite(end_inv).all())
                    if quiet:
                        phi, inv = end_phi, end_inv
                reached = 0
                if not quiet:
                    # the state (and Phi^-1) at the accepted boundaries
                    # b[0..k], from running products of the steps by
                    # doubling
                    ahead, s = prod[:k], 1
                    if inv is not None:
                        back = i1[:k] @ i2[:k]
                    while s < k:
                        ahead = np.concatenate((ahead[:s],
                                                ahead[s:] @ ahead[:-s]))
                        if inv is not None:
                            back = np.concatenate((back[:s],
                                                   back[:-s] @ back[s:]))
                        s *= 2
                    phis = np.concatenate(((phi,), ahead @ phi))
                    phi = phis[k]
                    # then at the stops in the accepted steps (the side
                    # steps among them first); a non-finite one ends the
                    # sweep
                    reached = bisect_right(stops, b[k], j, end) - j
                    at = at[:reached]
                    count = bisect_right(side, reached - 1)
                    xs = phis[at]
                    xs[side[:count]] = e[3 * n:3 * n + count] @ xs[
                        side[:count]]
                    axes = tuple(range(1, phis.ndim))
                    finite = np.isfinite(xs).all(axis=axes)
                    ys = None
                    if inv is not None:
                        invs = np.concatenate(((inv,), inv @ back))
                        inv = invs[k]
                        ys = invs[at]
                        ys[side[:count]] = ys[side[:count]] @ e[
                            5 * n + m:5 * n + m + count]
                        finite &= np.isfinite(ys).all(axis=axes)
                    finite = finite.tolist()
                    # a state that overflowed ends the sweep at the last
                    # boundary where it was finite, before the stops past
                    # it
                    broken = k + 1
                    if not np.isfinite(phi if inv is None
                                       else (phi, inv)).all():
                        ok = np.isfinite(phis).all(axis=axes)
                        if inv is not None:
                            ok &= np.isfinite(invs).all(axis=axes)
                        broken = int(np.argmin(ok))
                    # the stops before the first non-finite one, then fail
                    good = next((i for i in range(reached) if at[i] >= broken
                                 or not finite[i]), reached)
                    yield xs[:good], None if ys is None else ys[:good]
                    if good < reached and at[good] < broken:
                        start = caller_t(b[at[good]])
                        raise IntegrationError(
                            f"non-finite propagator at the stop "
                            f"{caller_t(stops[j + good])}, reached from "
                            f"t = {start}", start)
                    if broken <= k:
                        start = caller_t(b[broken - 1])
                        raise IntegrationError(
                            f"non-finite propagator past t = {start}, in "
                            f"the step to {caller_t(b[broken])}", start)
                j += reached
                t = b[k]
                h = hs * factor
                if k < n:
                    width = _WINDOW
                    _check_underflow(h, caller_t(t))
                elif factor <= _WINDOW_HOLD and not first:
                    width = min(2 * width, _WINDOW_MAX)
                first = first and k == 0


def evolve(
    A: CoefficientPath,
    s: float,
    t: float,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
) -> Operator:
    """Propagator X(t, s) of x' = A(t) x, as an operator: the last state
    of the windowed sweep of Y' = A Y, Y(s) = id, over the stops (s, t)
    (:func:`sweep_vector`).  For t < s that is the sweep of the reflected
    coefficient, not the inverse of X(s, t).
    """
    x = sweep_vector(A, (s, t), np.eye(A.space.dim), tol, stats)[-1]
    return Operator(x, A.space)


def sweep_vector(
    A: CoefficientPath,
    stops: Sequence[float],
    v,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
) -> np.ndarray:
    """X(tau, stops[0]) v at every tau of the monotone ``stops``, as one
    stack, from one windowed sweep across them (:func:`_window_sweep`).
    ``v`` is a vector, a matrix, or for a (k, r, r) stack of A a (k, r, c)
    stack of states."""
    y = np.array(v, dtype=float)
    if y.ndim == 1:
        return sweep_vector(A, stops, y[:, None], tol, stats)[..., 0]
    return np.concatenate([x for x, _ in _window_sweep(A, stops, y, tol,
                                                       stats)])


class EvolutionOperator:
    """Two-parameter propagator X(t, s) = Phi(t) Phi(s)^{-1} from one sweep.

    The matrix equation is integrated once, forward across the hull of
    ``times`` (:func:`_window_sweep`); Phi(tau) = X(tau, min(times)) and
    its inverse are kept at every one of them, as two (S, r, r) stacks
    with an index by time.  Each accepted step
    Phi <- exp(Omega_2) exp(Omega_1) Phi takes the inverse along as
    Y <- Y exp(-Omega_1) exp(-Omega_2), from the step's own exponents, so
    Y Phi = I holds to roundoff.  The steps depend on (source, hull, tol)
    only, and each of ``times`` is reached by a side step off them: a
    query's bits do not depend on which other times were declared.  A
    query then costs one product, and :meth:`query_stack` one for many.
    Both arguments of a query must be among ``times``, except that
    query(s, s) is the identity exactly for any s.

    An integration failure ends the sweep where it happened: the stops
    reached before it can still be queried, and a query that needs a
    later one raises it, ``failure``; ``step_stats`` counts the sweep's work.
    """

    def __init__(
        self,
        source: CoefficientPath,
        times: Sequence[float],
        tol: float = DEFAULT_ODE_TOL,
    ):
        self.source = source
        self.step_stats = StepStats()
        self.failure: Optional[IntegrationError] = None
        stops = sorted(set(float(t) for t in times))
        self._index = {tau: i for i, tau in enumerate(stops)}
        swept = []  # a pair of (Phi, Phi^-1) stacks per window
        try:
            swept.extend(_window_sweep(source, stops, None, tol,
                                       self.step_stats))
        except IntegrationError as exc:
            self.failure = exc
        self._phi, self._inv = (np.concatenate(x) for x in zip(*swept))

    def _phi_at(self, tau: float) -> tuple:
        if tau not in self._index:
            raise ValueError(f"t = {tau} is not one of the sweep's times")
        if (i := self._index[tau]) >= len(self._phi):
            raise self.failure
        return self._phi[i], self._inv[i]

    def query(self, t: float, s: float) -> Operator:
        """X(t, s).  query(s, s) is the identity exactly."""
        if t == s:
            return Operator.identity(self.source.space)
        x = self._phi_at(t)[0] @ self._phi_at(s)[1]
        return Operator(x, self.source.space)

    def query_stack(self, ts: Sequence[float],
                    ss: Sequence[float]) -> np.ndarray:
        """X(t_i, s_i) for the paired declared times ``ts`` and ``ss``, up
        to the first pair that needs a stop the sweep did not reach, as one
        stack with the bits and the InvalidOperatorError of :meth:`query`.
        t_i == s_i reads the first stop, whose Phi and Phi^{-1} are I."""
        at = [(0, 0) if t == s else (self._index[t], self._index[s])
              for t, s in zip(ts, ss)]
        n = next((k for k, ij in enumerate(at) if max(ij) >= len(self._phi)),
                 len(at))
        it, js = [i for i, _ in at[:n]], [j for _, j in at[:n]]
        x = self._phi[it] @ self._inv[js]
        if not np.isfinite(x).all():
            raise InvalidOperatorError("operator has non-finite entries")
        return x


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
    integrated as one stacked (nx, r, r) state: one windowed sweep
    (:func:`sweep_vector`) per direction from v0 across that side's
    targets, whose step errors are the max over every column.  Each
    window takes A over every x at all its nodes from one call, and the
    targets are side steps, so a target's propagators do not depend on
    the other targets."""
    x_grid = tuple(float(x) for x in x_grid)
    v_targets = tuple(float(v) for v in v_targets)
    xs = np.array(x_grid)
    stack = CoefficientPath(eval=lambda vs: A(xs, vs[:, None]), space=space)
    eye = np.tile(np.eye(space.dim), (len(x_grid), 1, 1))
    sides = (sorted(v for v in v_targets if v >= v0),
             sorted((v for v in v_targets if v < v0), reverse=True))
    swept = np.concatenate([sweep_vector(stack, [v0] + side, eye, tol,
                                         stats)[1:] for side in sides])
    slot = {v: i for i, v in enumerate(sides[0] + sides[1])}
    return ParamEvolutionResult(
        x_grid=x_grid,
        v0=float(v0),
        v_targets=v_targets,
        propagators=np.ascontiguousarray(
            swept[[slot[v] for v in v_targets]].swapaxes(0, 1)),
    )
