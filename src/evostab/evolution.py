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

One driver runs that step, :func:`_window_sweep`, across the hull of a
set of stops, in three parts.  :class:`_StepControl` plans windows of 16
to 64 equal steps and judges them on Python floats, blind to the stops,
so the steps depend only on (A, hull, tol); :func:`_window_kernel` makes
a window's one ``A.eval`` call and one :func:`expm` call; and
:class:`_Applier` carries the state over the accepted steps, reaches each
stop by a side step that no other stop moves, and hands over the states
at a window's stops as one stack.  A state that is not finite step by
step ends the sweep there.  :class:`EvolutionOperator` sweeps the
identity with Phi^{-1}, so every X(t, s) between its times is
Phi(t) Phi(s)^{-1}.  :func:`sweep_vector` sweeps vectors and stacks; a
(k, r, r) stack of A sweeps k systems as one (k, r, c) state, with the
max of their step errors.  Every propagator is returned as the array the
sweep made.  Descending stops sweep t -> -A(-t): :func:`evolve`, the
identity swept over (s, t), integrates X(s, t) for t < s on its own, not
as X(t, s)^{-1}.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import matmul
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntegrationError, InvalidOperatorError
from .operators import VectorSpaceSpec

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
# equal steps in a segment's first window and after a rejection, and up
# to _WINDOW_MAX after windows all accepted with step factors <= _WINDOW_HOLD
_WINDOW, _WINDOW_HOLD, _WINDOW_MAX = 16, 1.25, 64
# a window's step may grow up to 8-fold, as its accepted steps all vouch for
# the error model; a segment's remainder within a window of steps 9/8 the
# proposal is one window of stretched steps, not a window and a short one
_WINDOW_GROWTH, _WINDOW_STRETCH = 8.0, 1.125
# the smallest normal float: below it a state has lost its bits
_TINY = np.finfo(float).tiny


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


def _scan_last(a, mirrored=False):
    """a[k-1] ... a[1] a[0] for the (k, ...) stack of matrices a (mirrored:
    a[0] a[1] ... a[k-1]), bracketed as the last element of the doubling
    scan of :class:`_Applier`, so with its bits: a right-aligned tree of
    pairwise products."""
    while len(a) > 1:
        odd = len(a) % 2
        hi, lo = a[odd + 1::2], a[odd::2]
        pairs = lo @ hi if mirrored else hi @ lo
        a = np.concatenate((a[:1], pairs)) if odd else pairs
    return a[0]


class _StepControl:
    """Step control of a breakpoint-free segment [t, end], on Python
    floats (which round as numpy's do).  It sees no stop, state or
    Phi^{-1}, so the steps depend on (A, hull, tol) alone.

    The steps before a window's first rejected one (error > 1, or NaN)
    are accepted; the next window starts where they end.  Its step grows
    by at most ``_WINDOW_GROWTH``, from the errors of the last quarter of
    the steps up to the rejected one (its first steps may sit on a
    singular point of A) and of the finite ones after it, at the same
    size; a NaN is an infinite error.  A second rejection of a first step
    at the same point gauges the error's order from the two, so the step
    shrinks at once rather than by 0.2 per window.  Windows hold
    ``_WINDOW`` steps during the first-step cut and after a rejection;
    one whose steps were all accepted with a factor of at most
    ``_WINDOW_HOLD`` makes the next twice as long, up to ``_WINDOW_MAX``.
    The boundaries are t + hs i, or min(t + hs i, end); a last window may
    stretch its steps by ``_WINDOW_STRETCH`` (during the cut, by no more
    than the cut forgives), and ends on ``end`` exactly.  ``where`` gives
    the caller's t, where failures are located.
    """

    def __init__(self, t, end, where, stats):
        self.t, self.end, self.where, self.stats = t, end, where, stats
        self.h, self.width, self.first = end - t, _WINDOW, True
        self.taken, self.last_reject = 0, None

    def plan(self):
        """The next window's boundaries, or None at the segment's end."""
        t, end, h = self.t, self.end, self.h
        if t >= end:
            return None
        remaining = end - t
        # a span within 2^-40 of n steps is n stretched steps, not n steps
        # and a sliver
        n = max(1, math.ceil(remaining / h * (1.0 - 2.0 ** -40)))
        # a stretch past the cut's slack would be cut back to h, and the
        # same window would repeat until _MAX_STEPS
        stretch = _FIRST_SLACK if self.first else _WINDOW_STRETCH
        if remaining <= self.width * h * stretch:
            n = min(n, self.width)
            self.hs = remaining / n
            self.b = [t + self.hs * i for i in range(n)] + [end]
        else:
            n, self.hs = self.width, h
            self.b = [min(t + h * i, end) for i in range(n + 1)]
        self.taken += n
        if self.taken > _MAX_STEPS:
            raise IntegrationError(f"step budget exhausted near t = "
                                   f"{self.where(t)}", self.where(t))
        return self.b

    def cut(self, size):
        """Whether the cut to h ||A|| <= ``_FIRST_REACH`` rejects the
        window, for ``size`` the largest row sum of |A| on its first step."""
        # the sizing may stretch a cut step by rounding; a cut that shrank
        # it by no more would recur forever
        if (self.b[1] - self.b[0]) * size <= _FIRST_REACH * _FIRST_SLACK \
                or not math.isfinite(size):
            return False
        self.stats.rejected += len(self.b) - 1
        self.h = _FIRST_REACH / size
        self._check_underflow()
        return True

    def judge(self, err):
        """The count of accepted steps, from the window's step errors."""
        n, hs, t = len(err), self.hs, self.t
        # the first step whose error is not <= 1 (NaN too) is rejected
        k = next((i for i, x in enumerate(err) if not x <= 1.0), n)
        judged = err[:k + 1]
        worst = max(judged[-max(1, len(judged) // 4):])
        worst = max([worst] + [x for x in err[k:] if math.isfinite(x)])
        # a NaN can only be the rejected step's, the last judged
        if not math.isfinite(worst) or math.isnan(judged[-1]):
            worst = math.inf
        factor = _WINDOW_GROWTH if worst == 0.0 else min(
            _WINDOW_GROWTH, max(0.2, _SAFETY * worst ** (-1.0 / 7.0)))
        last = self.last_reject
        if k == 0 and last is not None and 1.0 < worst < last[1] and \
                last[0] == t:
            # err ~ h^p with p from the two rejections, in [1, 7]
            p = min(7.0, max(1.0, math.log(last[1] / worst)
                             / math.log(last[2] / hs)))
            factor = min(factor, (_SAFETY ** 7 / worst) ** (1.0 / p))
        self.last_reject = (t, worst, hs) if k == 0 else None
        self.stats.steps += k
        self.stats.rejected += n - k
        self.t, self.h = self.b[k], hs * factor
        if k < n:
            self.width = _WINDOW
            self._check_underflow()
        elif factor <= _WINDOW_HOLD and not self.first:
            self.width = min(2 * self.width, _WINDOW_MAX)
        self.first = self.first and k == 0
        return k

    def _check_underflow(self):
        # only meaningful after a rejection, where the controller is shrinking
        t = self.where(self.t)
        if self.h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t = {t} "
                                   "(stiffness or singularity)", t)


def _window_kernel(evaluate, b, sides, tol, inverse, stats, cut=None):
    """The Magnus arithmetic of the steps between the boundaries ``b``,
    each a whole step exp(Omega) and its halves exp(Omega_2) exp(Omega_1),
    and of the side steps ``sides`` (their starts and spans): one
    ``evaluate`` call at all their Gauss nodes, and one :func:`expm` call
    of their exponents and, for Phi^{-1} (``inverse``), of minus those of
    the half and side steps.  ``cut(size)`` may reject the window before
    any exponent is formed; None is then returned.  Otherwise: the step
    errors, each the largest entry of |exp(Omega) - exp(Omega_2)
    exp(Omega_1)| / 63 against tol (1 + |.|) over a stack's members, so
    independent of the state; the products of the halves, and of their
    inverses; the side steps' exponentials, and their inverses.
    """
    n, m = len(b) - 1, len(sides[0])
    lengths = [y - x for x, y in zip(b, b[1:])]
    half = [0.5 * x for x in lengths]
    starts = np.array(b[:-1] + b[:-1] + [x + y for x, y in zip(b, half)]
                      + sides[0])
    spans = np.array(lengths + half + half + sides[1])
    nodes = starts + np.multiply.outer(_GAUSS, spans)
    coef = np.asarray(evaluate(nodes.ravel()), dtype=float)
    stats.rhs_evals += nodes.size
    stats.windows += 1
    coef = coef.reshape(nodes.shape + coef.shape[1:])
    if cut is not None and cut(
            float(np.abs(coef[:, 0:3 * n:n]).sum(axis=-1).max())):
        return None
    omega = _bcr_exponent(coef[0], coef[1], coef[2], spans.reshape(
        spans.shape + (1,) * (coef.ndim - 2)))
    e = expm(np.concatenate((omega, -omega[n:])) if inverse else omega)
    e0, prod = e[:n], e[2 * n:3 * n] @ e[n:2 * n]
    scale = tol + tol * np.maximum(np.abs(e0), np.abs(prod))
    err = ((np.abs(e0 - prod) / scale).reshape(n, -1).max(axis=1)
           / 63.0).tolist()
    i = 3 * n + m  # where the inverse exponentials start
    back = e[i:i + n] @ e[i + n:i + 2 * n] if inverse else None
    return err, prod, back, e[3 * n:i], e[i + 2 * n:]


class _Applier:
    """A sweep's state (Phi y0, or Phi with Phi^{-1}) and next stop,
    carried over the accepted steps; the states at a window's stops are
    handed over as one stack.  A stop inside a step is a side step from
    the step's start, found by bisection (not at all in a window without
    stops); it never feeds back into the stepping, and one past the first
    rejected step is taken again later.  The states at the boundaries
    are running products by doubling, or only the end by
    :func:`_scan_last` where no stop is reached.  Those products run from
    the window's start and can overflow or underflow where the state does
    not, so a non-finite state or Phi^{-1}, or a state normal at the
    window's start and all zero or subnormal at a boundary, is formed
    again step by step.  One still not finite (an overflow, a side step
    into a NaN of A) ends the sweep after the stops before it, at the
    last boundary where all was finite.
    """

    def __init__(self, stops, y0, dim, where):
        self.stops, self.where = stops, where
        self.inv = np.eye(dim) if y0 is None else None
        self.phi = self.inv if y0 is None else y0
        self.j = bisect_right(stops, stops[0])

    def place(self, b):
        """The starts and spans of the side steps to the window's stops."""
        stops, j = self.stops, self.j
        # the stops in the window, each from the boundary at or before it
        # (at); the side steps are those off a boundary
        self.end, self.at, self.side = j, [], []
        if j < len(stops) and stops[j] <= b[-1]:
            self.end = bisect_right(stops, b[-1], j)
            self.at = [bisect_right(b, x) - 1 for x in stops[j:self.end]]
            self.side = [i for i, x in enumerate(stops[j:self.end])
                         if x > b[self.at[i]]]
        return ([b[self.at[i]] for i in self.side],
                [stops[j + i] - b[self.at[i]] for i in self.side])

    def apply(self, b, k, prod, back, into, out):
        """Carry the state over the window's first k steps (the kernel's
        output); yield the stacks at the stops they reach."""
        if not k:
            return
        stops, j, inv = self.stops, self.j, self.inv
        prod, back = prod[:k], None if inv is None else back[:k]
        reached = bisect_right(stops, b[k], j, self.end) - j
        if not reached:
            ends = (_scan_last(prod) @ self.phi, None if inv is None
                    else inv @ _scan_last(back, mirrored=True))
            if self._sound(*ends):
                self.phi, self.inv = ends
                return
        at = self.at[:reached]
        side = self.side[:bisect_right(self.side, reached - 1)]
        for stepwise in ((False, True) if reached else (True,)):
            phis, invs = self._boundaries(prod, back, stepwise)
            xs, ys = phis[at], None if inv is None else invs[at]
            if side:
                xs[side] = into[:len(side)] @ xs[side]
                if inv is not None:
                    ys[side] = ys[side] @ out[:len(side)]
            if self._sound(phis, xs, ys, invs, lost=not stepwise):
                yield xs, ys
                self.j += reached
                self.phi, self.inv = phis[-1], inv if inv is None else invs[-1]
                return
        # not finite step by step either: the stops before the first
        # non-finite state, then the failure
        axes = tuple(range(1, phis.ndim))
        rows = lambda x, y: np.isfinite(x).all(axis=axes) & (
            y is None or np.isfinite(y).all(axis=axes))
        broken = int(np.argmin(np.append(rows(phis, invs), False)))
        good = next((i for i, f in enumerate(rows(xs, ys).tolist())
                     if at[i] >= broken or not f), reached)
        yield xs[:good], None if ys is None else ys[:good]
        if good < reached and at[good] < broken:
            start = self.where(b[at[good]])
            raise IntegrationError(f"non-finite propagator at the stop "
                                   f"{self.where(stops[j + good])}, reached "
                                   f"from t = {start}", start)
        start = self.where(b[broken - 1])
        raise IntegrationError(f"non-finite propagator past t = {start}, in "
                               f"the step to {self.where(b[broken])}", start)

    def _sound(self, phis, *rest, lost=True):
        """Whether the states phis and the stacks ``rest`` are finite and,
        with ``lost``, no state normal at the window's start is all zero or
        subnormal at a boundary phis.  (Phi^{-1}'s products cannot
        underflow where Phi's do not overflow.)  One abs of phis decides:
        its max the finiteness (a NaN fails it), in most windows its min
        the normality."""
        a = np.abs(phis)
        if not (a.max() < math.inf and all(
                np.isfinite(x).all() for x in rest if x is not None)):
            return False
        if not lost or a.min() >= _TINY:
            return True
        normal = lambda x: (x >= _TINY).any(axis=(-2, -1))
        return not (normal(np.abs(self.phi)) & ~normal(a)).any()

    def _boundaries(self, prod, back, stepwise):
        """The state after each of the steps ``prod``, and Phi^{-1} after
        their inverses ``back``: by doubling, or step by step."""
        phi, inv = self.phi, self.inv
        if stepwise:
            return np.array([*accumulate(prod, lambda x, p: p @ x,
                                         initial=phi)]), None if inv is None \
                else np.array([*accumulate(back, matmul, initial=inv)])
        ahead, s = prod, 1
        while s < len(prod):
            ahead = np.concatenate((ahead[:s], ahead[s:] @ ahead[:-s]))
            if inv is not None:
                back = np.concatenate((back[:s], back[:-s] @ back[s:]))
            s *= 2
        return np.concatenate(((phi,), ahead @ phi)), None if inv is None \
            else np.concatenate(((inv,), inv @ back))


def _window_sweep(A, stops, y0, tol, stats):
    """Integrate Phi' = A(t) Phi, Phi(stops[0]) = I, across the hull of
    the monotone, finite ``stops`` (else ValueError) and yield
    (Phi y0, Phi^{-1}) at them, a pair of stacks for those equal to
    stops[0] and then one per window.  ``y0`` is a (r, c) or (k, r, c)
    state for the (r, r) or (k, r, r) stacks of A, and the second of each
    pair is then None; y0 = None sweeps Phi itself with Phi^{-1}.
    Descending stops sweep t -> -A(-t) over the negated stops, with their
    own steps and failures located in the caller's t.  Each
    breakpoint-free segment has its own :class:`_StepControl`; each
    window it plans is one :func:`_window_kernel` call, with the side
    steps that the :class:`_Applier` places, which then carries the state.
    """
    stats = stats if stats is not None else StepStats()
    stops = np.asarray(stops, dtype=float).tolist()
    if not all(map(math.isfinite, stops)):
        raise ValueError("the stops of a sweep must be finite")
    sign = -1.0 if stops[-1] < stops[0] else 1.0
    where = lambda t: sign * t + 0.0  # the caller's t, and never -0.0
    evaluate, breakpoints = A.eval, A.breakpoints
    if sign < 0.0:
        evaluate = lambda ts, ev=evaluate: -np.asarray(ev(-ts), dtype=float)
        breakpoints = sorted(-c for c in breakpoints)
        stops = [-x for x in stops]
    if sorted(stops) != stops:
        raise ValueError("the stops of a sweep must be monotone")
    state = _Applier(stops, y0, A.space.dim, where)
    yield np.array((state.phi,) * state.j), None if y0 is not None else \
        np.array((state.inv,) * state.j)
    lo, hi = stops[0], stops[-1]
    cuts = [lo, *(c for c in breakpoints if lo < c < hi), hi] if hi > lo \
        else []
    with np.errstate(all="ignore"):  # the errors reject what overflows
        for t0, t1 in zip(cuts, cuts[1:]):
            stats.segments += 1
            control = _StepControl(t0, t1, where, stats)
            while (b := control.plan()) is not None:
                window = _window_kernel(
                    evaluate, b, state.place(b), tol, y0 is None, stats,
                    control.cut if control.first else None)
                if window is not None:
                    err, *steps = window
                    yield from state.apply(b, control.judge(err), *steps)


def evolve(
    A: CoefficientPath,
    s: float,
    t: float,
    tol: float = DEFAULT_ODE_TOL,
    stats: Optional[StepStats] = None,
) -> np.ndarray:
    """Propagator X(t, s) of x' = A(t) x, an (r, r) array: the last state
    of the windowed sweep of Y' = A Y, Y(s) = id, over the stops (s, t)
    (:func:`sweep_vector`).  For t < s that is the sweep of the reflected
    coefficient, not the inverse of X(s, t).
    """
    return sweep_vector(A, (s, t), np.eye(A.space.dim), tol, stats)[-1]


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
    ``times`` (:func:`_window_sweep`), and Phi(tau) = X(tau, min(times))
    and its inverse Y are kept at each as two (S, r, r) stacks.  Each step
    Phi <- exp(Omega_2) exp(Omega_1) Phi takes Y <- Y exp(-Omega_1)
    exp(-Omega_2) along, so Y Phi = I to roundoff.  The steps depend on
    (source, hull, tol) only and the times are side steps off them, so no
    query's bits depend on the other times.  A query is one product, and
    :meth:`query_stack` one for many.  Both arguments must be among
    ``times`` (else ValueError), except that query(s, s) is I for any s.
    An integration failure ends the sweep: the stops reached before it
    can still be queried, and a later one raises it, ``failure``;
    ``step_stats`` counts the sweep's work.
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

    def _slot(self, tau: float) -> int:
        if tau not in self._index:
            raise ValueError(f"t = {tau} is not one of the sweep's times")
        return self._index[tau]

    def query(self, t: float, s: float) -> np.ndarray:
        """X(t, s), the one pair of :meth:`query_stack`, or ``failure``
        where its stop was not reached; query(s, s) is I exactly."""
        x = self.query_stack((t,), (s,))
        if not len(x):
            raise self.failure
        return x[0]

    def query_stack(self, ts: Sequence[float],
                    ss: Sequence[float]) -> np.ndarray:
        """X(t_i, s_i) for the paired declared times ``ts`` and ``ss``, up
        to the first pair that needs a stop the sweep did not reach, as one
        stack; InvalidOperatorError where one is not finite.  t_i == s_i
        reads the first stop, whose Phi and Phi^{-1} are I."""
        at = [(0, 0) if t == s else (self._slot(t), self._slot(s))
              for t, s in zip(ts, ss)]
        n = next((k for k, ij in enumerate(at) if max(ij) >= len(self._phi)),
                 len(at))
        it, js = [i for i, _ in at[:n]], [j for _, j in at[:n]]
        x = self._phi[it] @ self._inv[js]
        if not np.isfinite(x).all():
            raise InvalidOperatorError("operator has non-finite entries")
        return x

