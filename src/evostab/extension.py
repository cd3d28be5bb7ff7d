"""Extension of parallel sections across the closure of a function graph.

Setting: a connection (omega1, omega2) on the rectangle M x J, a
continuous f on {x > a} whose values stay strictly inside (v0, v1), and a
parallel section sigma defined off the closed graph.  Two candidate
extensions are built by sweeping the fiber ODE in the second variable,

    xi_j(x, v) = Y_j(x, v) sigma(x, v_j),    D2 Y_j = -omega2 Y_j,
    Y_j(x, v_j) = id,                        j = 0 (from below), 1 (above),

and the extension is accepted when xi_0 and xi_1 agree on the grid.  The
numerical sigma is constructed by transporting a seed vector along grid
paths that route around the graph (below via the v0 corridor, above via
the v1 corridor); this is well defined exactly when transport inside the
complement is path-independent, which the builder verifies by loop
transports and fine-stencil residual probes unless asked to only report.

Every fiber and corridor sweep is one windowed sweep across its stops
(:func:`evostab.evolution.sweep_vector`).  Fiber sweeps that share their
stops are one stacked state: the Y_j of every grid column at once, and
the sigma columns (and probe stencils) that reach the same v's from the
same corridor level.  A step's error is the max over all members, so
each column is stepped at least as strictly as alone, and a window of
steps takes omega2 over the whole stack from one call of the field.

Also here: the graph-approximation utility that replaces a continuous
graph by a polynomial one agreeing at a chosen point and staying inside a
tube, realized with Bernstein polynomials on a dyadic degree ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import Interval
from .errors import ApproximationError, ConstructionError
from .evolution import (CoefficientPath, StepStats, param_evolution,
                        sweep_vector)
from .operators import vector_norm
from .transport import ConnectionForm

__all__ = [
    "ExtensionProblem", "SigmaField", "ExtensionResult", "ResidualGrid",
    "BernsteinApprox", "build_sigma", "extend_section", "parallel_residual",
    "near_graph_mask", "polynomial_graph_approx", "section_at",
]


@dataclass(frozen=True)
class ExtensionProblem:
    """Data of one extension scenario.

    ``f`` is defined for x > a with values strictly between v0 and v1;
    ``sigma_seed`` is the value of the parallel section at ``p_ref``,
    a reference point with x-coordinate left of a.
    """

    omega: ConnectionForm
    f: Callable[[float], float]
    a: float
    v0: float
    v1: float
    sigma_seed: np.ndarray
    p_ref: tuple

    def __post_init__(self):
        J = self.omega.j_interval
        if not (J.lo < self.v0 < self.v1 < J.hi):
            raise ValueError("need J.lo < v0 < v1 < J.hi")
        if not self.omega.m_interval.contains(self.a):
            raise ValueError("a must lie inside M")
        x_ref, v_ref = self.p_ref
        if not x_ref < self.a:
            raise ValueError("reference point must have x < a")
        self.omega.check_inside(np.array([x_ref], dtype=float),
                                np.array([v_ref], dtype=float))
        seed = np.asarray(self.sigma_seed, dtype=float)
        if seed.shape != (self.omega.space.dim,):
            raise ValueError("seed vector has the wrong dimension")
        object.__setattr__(self, "sigma_seed", seed)

    def check_f_range(self, xs: Sequence[float]) -> None:
        for x in xs:
            if x <= self.a:
                continue
            val = float(self.f(x))
            if not (self.v0 < val < self.v1):
                raise ValueError(
                    f"f({x}) = {val} escapes the strip ({self.v0}, {self.v1})"
                )


def _fiber_sweep(w: ConnectionForm, xs, stops, start, tol, stats):
    """Section values, solutions of D2 Y = -omega2 Y, at every v of the
    monotone ``stops``, from one stacked sweep up or down the fibers over
    the k x's of ``xs``; ``start`` is their (k, r) stack at stops[0]."""
    xs = np.asarray(xs, dtype=float)
    A = CoefficientPath(eval=lambda vs: -w.omega2(xs, vs[:, None]),
                        space=w.space)
    start = np.asarray(start, dtype=float)
    return sweep_vector(A, stops, start[..., None], tol, stats)[..., 0]


def _vertical_sweep(p, xs, stops, vecs, tol, stats) -> np.ndarray:
    """:func:`_fiber_sweep` that refuses to cross the graph of f: every
    column is checked over the whole span before any is swept."""
    v_from, v_to = stops[0], stops[-1]
    for x in xs:
        if x > p.a and v_from != v_to:
            fx = float(p.f(x))
            if min(v_from, v_to) <= fx <= max(v_from, v_to):
                raise ConstructionError(
                    f"vertical path at x = {x} from v = {v_from} to {v_to} "
                    f"crosses the graph (f(x) = {fx})"
                )
    return _fiber_sweep(p.omega, xs, stops, vecs, tol, stats)


def _horizontal_sweep(p, v, stops, vec, tol, stats) -> np.ndarray:
    """Section values at every x of the monotone ``stops``, as a stack,
    from one transport along the horizontal at level v."""
    A = CoefficientPath(eval=lambda xs: -p.omega.omega1(xs, v),
                        space=p.omega.space)
    return sweep_vector(A, stops, vec, tol, stats)


def _move_vertical(p: ExtensionProblem, x: float, v_from: float, v_to: float,
                   vec: np.ndarray, tol: float,
                   stats: Optional[StepStats] = None) -> np.ndarray:
    """Transport along the vertical segment at x, refusing to cross the
    graph of f."""
    return _vertical_sweep(p, (x,), (v_from, v_to), (vec,), tol, stats)[-1][0]


@dataclass(frozen=True)
class SigmaField:
    """The constructed parallel section on a grid off the graph."""

    x_grid: tuple
    v_grid: tuple
    values: np.ndarray          # (nx, nv, r)
    row_v0: np.ndarray          # (nx, r), section at (x, v0)
    row_v1: np.ndarray          # (nx, r), section at (x, v1)
    verified: bool
    loop_defect: float
    probe_residual: float


def build_sigma(
    p: ExtensionProblem,
    x_grid: Sequence[float],
    v_grid: Sequence[float],
    tol: float = 1e-10,
    report_only: bool = False,
    stats: Optional[StepStats] = None,
) -> SigmaField:
    """Construct the parallel section by transporting the seed along axis
    paths that avoid the graph.

    Grid points with x > a reach values below the graph via the v0
    corridor and values above it via the v1 corridor; x < a columns are
    filled from the v0 corridor alone.  A grid point exactly on the graph
    (or at x = a, where the graph closure can fill a vertical segment)
    violates the construction's precondition.

    Loop transports and fine-stencil residual probes then check that
    transport off the graph is path-independent; failures raise
    ConstructionError unless ``report_only`` marks the output unverified
    instead.  ``stats``, if given, counts every integration.
    """
    xs = tuple(float(x) for x in x_grid)
    vs = tuple(float(v) for v in v_grid)
    if any(x == p.a for x in xs):
        raise ConstructionError(
            "grid contains x = a, where the graph closure can fill the fiber"
        )
    p.check_f_range(xs)
    for x in xs:
        if x > p.a:
            fx = float(p.f(x))
            if any(v == fx for v in vs):
                raise ConstructionError(
                    f"grid point ({x}, {fx}) lies on the graph"
                )
    r = p.omega.space.dim
    x_ref, v_ref = p.p_ref
    nx, nv = len(xs), len(vs)
    values = np.full((nx, nv, r), np.nan)

    # seed moved to the two corridor levels at x_ref (x_ref < a: free fiber)
    at_v0 = _move_vertical(p, x_ref, v_ref, p.v0, p.sigma_seed, tol, stats)
    at_v1 = _move_vertical(p, x_ref, v_ref, p.v1, p.sigma_seed, tol, stats)

    row_v0 = _sweep_corridor(p, p.v0, at_v0, xs, x_ref, tol, stats)
    row_v1 = _sweep_corridor(p, p.v1, at_v1, xs, x_ref, tol, stats)

    ascending = sorted(range(nv), key=lambda i: vs[i])
    below, above = {}, {}
    for ix, x in enumerate(xs):
        fx = float(p.f(x)) if x > p.a else math.inf
        below[ix] = [iv for iv in ascending if vs[iv] < fx]
        if x > p.a:
            above[ix] = [iv for iv in ascending if vs[iv] > fx]
    _fill_columns(p, xs, vs, values, p.v0, row_v0, below, tol, stats)
    _fill_columns(p, xs, vs, values, p.v1, row_v1, above, tol, stats)

    loop_defect = _loop_defect(p, tol, stats)
    probe_residual = _probe_residual(p, xs, {p.v0: at_v0, p.v1: at_v1},
                                     tol, stats)
    verified = loop_defect <= 1e-7 and probe_residual <= 1e-6
    if not verified and not report_only:
        raise ConstructionError(
            "transport off the graph is not path-independent "
            f"(loop defect {loop_defect:.3e}, probe residual "
            f"{probe_residual:.3e}); a parallel section cannot be "
            "constructed -- rerun with report_only=True to inspect"
        )
    return SigmaField(
        x_grid=xs, v_grid=vs, values=values, row_v0=row_v0, row_v1=row_v1,
        verified=verified, loop_defect=loop_defect,
        probe_residual=probe_residual,
    )


def _fill_columns(p, xs, vs, values, level, level_vecs, allowed, tol,
                  stats):
    """Sweep up and down the columns from a corridor level, writing
    ``values[ix, iv]`` for the ascending v-indices ``allowed[ix]`` of each
    column ix.  Columns whose stops agree (same level, same v's) form one
    group, swept as one stacked state from their ``level_vecs`` rows."""
    groups = {}
    for ix, ivs in allowed.items():
        for side in ([iv for iv in ivs if vs[iv] >= level],
                     [iv for iv in ivs[::-1] if vs[iv] < level]):
            if side:
                groups.setdefault(tuple(side), []).append(ix)
    for side, ixs in groups.items():
        stops = [level] + [vs[iv] for iv in side]
        states = _vertical_sweep(p, [xs[ix] for ix in ixs], stops,
                                 level_vecs[ixs], tol, stats)
        values[np.array(ixs)[:, None], side] = states[1:].swapaxes(0, 1)


def _sweep_corridor(p, level, start_vec, xs, x_ref, tol, stats):
    """Transport along the horizontal corridor at the given level, one
    sweep each way from x_ref, keeping the section at every grid x."""
    out = np.empty((len(xs), p.omega.space.dim))
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    right = [i for i in order if xs[i] >= x_ref]
    left = [i for i in order if xs[i] < x_ref][::-1]
    for side in (right, left):
        stops = [x_ref] + [xs[i] for i in side]
        states = _horizontal_sweep(p, level, stops, start_vec, tol, stats)
        out[side] = states[1:]
    return out


def _sigma_at(p: ExtensionProblem, x: float, v: float, tol: float,
              stats: Optional[StepStats] = None) -> np.ndarray:
    """Section value at an arbitrary off-graph point, by fresh routing."""
    x_ref, v_ref = p.p_ref
    level = p.v1 if x > p.a and v > float(p.f(x)) else p.v0
    vec = _move_vertical(p, x_ref, v_ref, level, p.sigma_seed, tol, stats)
    vec = _horizontal_sweep(p, level, (x_ref, x), vec, tol, stats)[-1]
    return _move_vertical(p, x, level, v, vec, tol, stats)


def _loop_defect(p: ExtensionProblem, tol: float,
                 stats: Optional[StepStats]) -> float:
    """Max seed defect of rectangular loop transports inside the
    complement of the graph (none of them crosses the strip (v0, v1)
    that holds it)."""
    M, J = p.omega.m_interval, p.omega.j_interval
    x_ref = p.p_ref[0]
    pad_j = 0.05 * J.length()
    rects = [
        # left of a: tall rectangle through both corridors
        (M.lo + 0.1 * (p.a - M.lo), x_ref, J.lo + pad_j, J.hi - pad_j),
        # right of a: below the strip, and above it
        (x_ref, M.hi - 0.05 * (M.hi - x_ref), J.lo + pad_j, p.v0),
        (x_ref, M.hi - 0.05 * (M.hi - x_ref), p.v1, J.hi - pad_j),
    ]
    worst = 0.0
    kind = p.omega.space.norm_kind
    for x1, x2, va, vb in rects:
        if not (x1 < x2 and va < vb):
            continue
        vec = p.sigma_seed.copy()
        vec = _horizontal_sweep(p, va, (x1, x2), vec, tol, stats)[-1]
        vec = _move_vertical(p, x2, va, vb, vec, tol, stats)
        vec = _horizontal_sweep(p, vb, (x2, x1), vec, tol, stats)[-1]
        vec = _move_vertical(p, x1, vb, va, vec, tol, stats)
        worst = max(worst, vector_norm(vec - p.sigma_seed, kind)
                    / max(vector_norm(p.sigma_seed, kind), 1e-300))
    return worst


def _probe_residual(p: ExtensionProblem, xs, at_level: dict, tol: float,
                    stats: Optional[StepStats]) -> float:
    """Max covariant-derivative residual of the constructed section over a
    few fine 3x3 stencils (central differences; the spacing balances
    truncation against transport noise).

    Each stencil is routed as the grid is: from the seed's value at its
    corridor level (``at_level``, keyed by level) along the corridor to
    the stencil's three x's, then up or down their fibers in one stacked
    sweep."""
    h = 4e-4
    M, J = p.omega.m_interval, p.omega.j_interval
    candidates = []
    x_lo = [x for x in xs if x < p.a - 2 * h]
    x_hi = [x for x in xs if x > p.a + 2 * h]
    if x_lo:
        candidates.append((x_lo[len(x_lo) // 2], 0.5 * (p.v0 + p.v1)))
    if x_hi:
        x_mid = x_hi[len(x_hi) // 2]
        candidates.append((x_mid, 0.5 * (J.lo + p.v0)))
        candidates.append((x_mid, 0.5 * (p.v1 + J.hi)))
    worst = 0.0
    for xc, vc in candidates:
        if not (M.contains(xc - h) and M.contains(xc + h)
                and J.contains(vc - h) and J.contains(vc + h)):
            continue
        gx = (xc - h, xc, xc + h)
        gv = (vc - h, vc, vc + h)
        level = p.v1 if xc > p.a and vc > float(p.f(xc)) else p.v0
        row = _sweep_corridor(p, level, at_level[level], gx, p.p_ref[0], tol,
                              stats)
        grid = np.empty((3, 3, p.omega.space.dim))
        _fill_columns(p, gx, gv, grid, level, row,
                      dict.fromkeys(range(3), [0, 1, 2]), tol, stats)
        for direction in (1, 2):
            res = parallel_residual(p.omega, grid, gx, gv, direction)
            worst = max(worst, float(res.values[1, 1]))
    return worst


@dataclass(frozen=True)
class ResidualGrid:
    values: np.ndarray
    spacing: float
    direction: int
    warning: Optional[str] = None


def parallel_residual(
    w: ConnectionForm,
    xi: np.ndarray,
    x_grid: Sequence[float],
    v_grid: Sequence[float],
    direction: int,
) -> ResidualGrid:
    """Norm of D_i xi + omega_i xi per grid point, D_i by differences
    (central in the interior, one-sided at the edges).

    Accuracy is limited by the grid spacing; a spacing above 0.1 attaches
    a warning instead of failing.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    xs = np.asarray(x_grid, dtype=float)
    vs = np.asarray(v_grid, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if xi.shape[:2] != (len(xs), len(vs)):
        raise ValueError("xi grid shape does not match the coordinate grids")
    axis = 0 if direction == 1 else 1
    coords = xs if direction == 1 else vs
    d = np.gradient(xi, coords, axis=axis,
                    edge_order=2 if len(coords) > 2 else 1)
    omega = w.omega1 if direction == 1 else w.omega2
    om = omega(xs[:, None], vs[None, :])
    out = vector_norm(d + (om @ xi[..., None])[..., 0], w.space.norm_kind)
    spacing = float(np.max(np.diff(coords))) if len(coords) > 1 else math.inf
    warning = None
    if spacing > 0.1:
        warning = (f"grid spacing {spacing:.3g} along direction {direction} "
                   "is coarse; residuals are dominated by truncation error")
    return ResidualGrid(values=out, spacing=spacing, direction=direction,
                        warning=warning)


@dataclass(frozen=True)
class ExtensionResult:
    """Output of the two-sided extension sweep: both candidate
    extensions on the sigma grid, their gap, and the verdict.  Residuals
    of xi0 and xi1 are left to the caller (:func:`parallel_residual`),
    which knows where the grid's x-differences are meaningful."""

    x_grid: tuple
    v_grid: tuple
    xi0: np.ndarray            # (nx, nv, r)
    xi1: np.ndarray
    gap: np.ndarray            # (nx, nv) norms of xi1 - xi0
    max_gap: float
    accepted: bool
    worst_point: tuple


def extend_section(
    p: ExtensionProblem,
    sigma: SigmaField,
    tol: float = 1e-10,
    stats: Optional[StepStats] = None,
) -> ExtensionResult:
    """Build both candidate extensions from the section's boundary rows
    and compare them.

    xi_j = Y_j sigma(., v_j), where the propagators Y_j of every grid
    column come from :func:`evostab.evolution.param_evolution` of
    -omega2 from level v_j, one stacked sweep up and one down.  The
    extension is accepted when max ||xi1 - xi0|| <= 100 * tol.  A larger
    gap is returned as data (worst point included), never silently
    accepted.
    """
    xs, vs = sigma.x_grid, sigma.v_grid
    space = p.omega.space

    def extension_from(level, row):
        Y = param_evolution(lambda x, v: -p.omega.omega2(x, v), xs, level,
                            vs, space, tol, stats=stats).propagators
        return (Y @ row[:, None, :, None])[..., 0]

    xi0 = extension_from(p.v0, sigma.row_v0)
    xi1 = extension_from(p.v1, sigma.row_v1)
    gap = vector_norm(xi1 - xi0, space.norm_kind)
    wix, wiv = divmod(int(np.argmax(gap)), len(vs))
    max_gap = float(gap[wix, wiv])
    return ExtensionResult(
        x_grid=xs, v_grid=vs, xi0=xi0, xi1=xi1, gap=gap, max_gap=max_gap,
        accepted=max_gap <= 100.0 * tol,
        worst_point=(xs[wix], vs[wiv]),
    )


def section_at(
    p: ExtensionProblem,
    sigma: SigmaField,
    x: float,
    v: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """The accepted extension evaluated at an arbitrary (x, v), including
    points on the graph: the boundary value at (x, v0) is swept up the
    fiber.  x must be one of the sigma grid's x values."""
    xs = sigma.x_grid
    matches = [i for i, xv in enumerate(xs)
               if abs(xv - x) <= 1e-9 * max(1.0, abs(x))]
    if not matches:
        raise ValueError(f"x = {x} is not a sigma grid column")
    ix = matches[0]
    return _fiber_sweep(p.omega, (xs[ix],), (p.v0, v), sigma.row_v0[ix:ix + 1],
                        tol, None)[-1][0]


# near_graph_mask marks the points this many v-spacings from the graph
_MASK_SPACINGS = 2.0


def near_graph_mask(
    f: Callable[[float], float],
    a: float,
    x_grid: Sequence[float],
    v_grid: Sequence[float],
) -> np.ndarray:
    """Boolean grid marking points within two grid spacings of the graph
    (x > a only); finite differences straddling the graph are
    meaningless there."""
    xs = np.asarray(x_grid, dtype=float)
    vs = np.asarray(v_grid, dtype=float)
    dv = float(np.max(np.diff(vs))) if len(vs) > 1 else 0.0
    out = np.zeros((len(xs), len(vs)), dtype=bool)
    for i, x in enumerate(xs):
        if x <= a:
            continue
        fx = float(f(x))
        out[i] = np.abs(vs - fx) < _MASK_SPACINGS * dv
    return out


# ---------------------------------------------------------------------------
# Bernstein graph approximation


_DEGREE_LADDER = (0,) + tuple(2 ** k for k in range(15))
# the uniform grid on which an approximation's sup error is measured
_SUP_GRID = 10001


def _bernstein_eval(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c_k C(n,k) x^k (1-x)^{n-k} at points in [0, 1].

    Weights are formed in the log domain; for large degrees only the
    +-10-sigma window of the binomial mass is summed (the tail mass is
    far below double precision).
    """
    c = np.asarray(coeffs, dtype=float)
    n = len(c) - 1
    xs = np.asarray(xs, dtype=float)
    out = np.empty(len(xs))
    if n == 0:
        out[:] = c[0]
        return out
    log_binom = _log_binom_row(n)
    interior = (xs > 0.0) & (xs < 1.0)
    out[xs <= 0.0] = c[0]
    out[xs >= 1.0] = c[n]
    xi = xs[interior]
    if len(xi):
        order = np.argsort(xi)
        vals = np.empty(len(xi))
        chunk = 128
        half = int(10.0 * math.sqrt(0.25 * n)) + 20
        for start in range(0, len(xi), chunk):
            idx = order[start:start + chunk]
            xc = xi[idx]
            k_lo = max(0, int(n * xc[0]) - half)
            k_hi = min(n, int(n * xc[-1]) + half)
            ks = np.arange(k_lo, k_hi + 1)
            logw = (log_binom[ks][None, :]
                    + ks[None, :] * np.log(xc)[:, None]
                    + (n - ks)[None, :] * np.log1p(-xc)[:, None])
            vals[idx] = np.exp(logw) @ c[ks]
        out[interior] = vals
    return out


def _log_binom_row(n: int) -> np.ndarray:
    """ln C(n, k) for k = 0..n via log-gamma."""
    lf = np.array([math.lgamma(k) for k in range(1, n + 2)])  # ln k!
    ks = np.arange(n + 1)
    return lf[n] - lf[ks] - lf[n - ks]


@dataclass(frozen=True)
class BernsteinApprox:
    """A polynomial g with g(anchor) = f(anchor) and sup |g - f| < tube.

    ``coeffs`` are the coefficients of g in the Bernstein basis of the
    stated degree on [lo, hi] (power-basis coefficients of high-degree
    Bernstein polynomials are numerically meaningless, the basis itself
    is the stable representation).
    """

    degree: int
    coeffs: np.ndarray
    lo: float
    hi: float
    anchor: float
    offset: float
    sup_error: float

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        xs = (ts - self.lo) / (self.hi - self.lo) if self.hi > self.lo \
            else np.zeros_like(ts)
        vals = _bernstein_eval(self.coeffs, np.atleast_1d(xs))
        return float(vals[0]) if np.ndim(t) == 0 else vals


def polynomial_graph_approx(
    f: Callable[[float], float],
    interval: Interval,
    b: float,
    tube: float,
    degree_cap: int = 2 ** 14,
) -> BernsteinApprox:
    """Least dyadic-degree Bernstein approximation p of f with
    sup |p - f| < tube/2, shifted so that g = p + (f(b) - p(b)) matches f
    at b; then sup |g - f| < tube.

    The sup is checked on a dense uniform grid of 10001 points.  Degrees run through
    0, 1, 2, 4, ..., ``degree_cap``; exhausting the ladder raises
    ApproximationError carrying the best error achieved.
    """
    if tube <= 0.0:
        raise ValueError("tube must be positive")
    if not interval.is_finite():
        raise ValueError("approximation interval must be finite")
    lo, hi = interval.lo, interval.hi
    if not (lo <= b <= hi):
        raise ValueError("anchor b must lie in the interval")
    span = hi - lo
    xs_dense = np.linspace(0.0, 1.0, _SUP_GRID)
    f_dense = np.array([float(f(lo + span * x)) for x in xs_dense])
    fb = float(f(b))
    xb = (b - lo) / span if span > 0 else 0.0
    best_err = math.inf
    for n in _DEGREE_LADDER:
        if n > degree_cap:
            break
        nodes = np.linspace(0.0, 1.0, n + 1) if n > 0 else np.array([0.0])
        samples = np.array([float(f(lo + span * x)) for x in nodes])
        approx_dense = _bernstein_eval(samples, xs_dense)
        err = float(np.max(np.abs(approx_dense - f_dense)))
        best_err = min(best_err, err)
        if err < 0.5 * tube:
            pb = float(_bernstein_eval(samples, np.array([xb]))[0])
            offset = fb - pb
            return BernsteinApprox(
                degree=n, coeffs=samples + offset, lo=lo, hi=hi,
                anchor=b, offset=offset, sup_error=err,
            )
    raise ApproximationError(
        f"no dyadic degree <= {degree_cap} reaches sup error < {tube / 2}",
        best_err,
    )
