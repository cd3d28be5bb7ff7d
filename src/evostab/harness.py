"""Scenario configuration, dispatch, and report emission.

A scenario is one JSON document: a kind (evolve, certify, verify,
substitution, transport, sine-curve, extend, cov-check) plus kind-specific
parameters.  Matrix entries and scalar paths may be expression strings in
the variables t and u; systems and connections may instead name built-ins.

Reports are written as ``rows.csv`` (fixed per-kind headers: see
``COLUMNS``) and ``summary.json``.  Runs are deterministic given the seed:
the same configuration and seed produce byte-identical CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import __version__
from .calculus import Interval, QuadStats, arc_length, cov_check
from .errors import ConfigError, ExpressionError
from .evolution import CoefficientPath, StepStats, evolve
from .expressions import expression_matrix, expression_path, parse_entry
from .library import (
    BUILTIN_CONNECTIONS,
    BUILTIN_EXTENSIONS,
    BUILTIN_FIELDS,
    BUILTIN_PATHS,
    builtin_system,
    constant_matrix,
    expression_connection,
    expression_system,
    make_connection,
    make_extension_problem,
    make_system,
)
from .operators import NORM_KINDS, VectorSpaceSpec, matrix_norm
from .stability import (
    BoundCertificate,
    assemble_A,
    certify,
    substitution_check,
    verify_certificate,
)
from .transport import (
    Curve,
    beta_bound,
    parallel_transport,
    sample_connection_bounds,
    sine_curve_scenario,
)
from .extension import (
    build_sigma,
    extend_section,
    near_graph_mask,
    parallel_residual,
)

KINDS = ("evolve", "certify", "verify", "substitution", "transport",
         "sine-curve", "extend", "cov-check")

COLUMNS = {
    "evolve": ("s", "t", "norm_X", "norm_Xinv", "inv_defect", "pass"),
    "certify": ("N", "V", "C", "window_lo", "window_hi", "converged",
                "overflow"),
    "verify": ("s", "t", "norm_X", "norm_Xinv", "C", "ratio"),
    "substitution": ("s", "t", "defect", "pass"),
    "cov-check": ("s", "t", "defect", "pass"),
    "transport": ("curve", "L1", "norm_P", "beta", "pass"),
    "sine-curve": ("b", "norm_P", "beta", "pass"),
    "extend": ("x", "v", "gap", "residual0", "residual1"),
}

DEFAULT_TOLS = {
    "evolve": 1e-10, "certify": 1e-8, "verify": 1e-10,
    "substitution": 1e-10, "transport": 1e-9, "sine-curve": 1e-8,
    "extend": 1e-10, "cov-check": 1e-10,
}

BUILTIN_SCENARIOS = {
    "intro-cos": ("verify", {
        "system": {"builtin": "intro-cos", "norm": "euclidean"},
        "window": [0.0, 20.0], "num_pairs": 100,
    }),
    "example39": ("verify", {
        "system": {"builtin": "example39", "norm": "euclidean"},
        "window": [0.0, 100.0], "num_pairs": 1000,
    }),
    "sine-curve": ("sine-curve", {
        "connection": {"builtin": "gauge-twist"},
        "a": -1.0, "b_list": [-1e-1, -1e-2, -1e-3, -1e-4],
        "v": [1.0, 0.5],
    }),
    "extension-gauge": ("extend", {
        "problem": {"builtin": "extension-gauge"},
        "grid": {"nx_left": 6, "nx_right": 10, "nv": 13, "x_floor": 1e-3},
    }),
}


@dataclass
class Report:
    kind: str
    scenario: dict
    columns: tuple
    rows: list
    row_pass: list
    summary: dict
    provenance: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("pass", False))


# ---------------------------------------------------------------------------
# config tables


_REQUIRED = object()


@dataclass(frozen=True)
class _Object:
    """The key table of one config object: a row (key, default, type) per
    key, rules over the typed values, the builder of the object, and
    ``alt`` = (key, table), the table of an object that has that key."""
    rows: tuple
    rules: tuple = ()
    build: Callable = lambda c: c
    alt: tuple = ()


def _read(table, cfg, bag, label=""):
    """The typed value of the config object cfg under table, or None if
    it has a problem; each problem goes into bag, named by its key path.

    A key no row names is a problem.  An absent key is a problem if its
    default is _REQUIRED, reads as None if its default is None, and else
    takes its default.  A type is a table, [table] for a non-empty list
    of such objects, or (read, *checks): the first (predicate, message)
    check that fails on the raw value v names the key's problem, and if
    none fails, read(v) is the typed value or raises ExpressionError.
    Once every key has read cleanly, the rules take the typed values (as
    attributes) and cfg in turn, and the first that returns a problem
    names it; a rule may rely on the ones before it."""
    if table.alt and isinstance(cfg, dict) and table.alt[0] in cfg:
        table = table.alt[1]
    if not isinstance(cfg, dict):
        bag.append(f"{label[:-1] or 'config'}: expected an object")
        return None
    keys = [key for key, _, _ in table.rows]
    start = len(bag)
    bag.extend(f"{label}{key}: unknown key (have {keys})"
               for key in cfg if key not in keys)
    typed = {}
    for key, default, kind in table.rows:
        name, typed[key] = label + key, None
        if key not in cfg and (default is None or default is _REQUIRED):
            if default is _REQUIRED:
                bag.append(f"{name}: missing")
            continue
        v = cfg.get(key, default)
        if isinstance(kind, _Object):
            typed[key] = _read(kind, v, bag, name + ".")
        elif isinstance(kind, list):
            if not (isinstance(v, list) and v):
                bag.append(f"{name}: expected a non-empty list")
                continue
            typed[key] = [_read(kind[0], x, bag, f"{name}[{i}].")
                          for i, x in enumerate(v)]
        else:
            read, *checks = kind
            bad = next((msg for ok, msg in checks if not ok(v)), None)
            if bad is not None:
                bag.append(f"{name}: " + bad.format(v=v))
                continue
            try:
                typed[key] = read(v)
            except ExpressionError as exc:
                bag.append(f"{name}: {exc}")
    if len(bag) > start:
        return None
    c = SimpleNamespace(**typed)
    problem = next((p for p in (rule(c, cfg) for rule in table.rules) if p),
                   None)
    if problem:
        bag.append(label + problem)
        return None
    return table.build(c)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v) -> bool:
    return _is_number(v) and math.isfinite(v)


def _list_of(item_ok):
    """Whether a value is a non-empty list of items that pass item_ok."""
    return lambda v: bool(isinstance(v, list) and v and all(map(item_ok, v)))


def _square(entry_ok):
    """Whether a value is a non-empty square list of lists of entries
    that pass entry_ok."""
    row_ok = _list_of(entry_ok)
    return lambda v: _list_of(lambda r: row_ok(r) and len(r) == len(v))(v)


def _named(names, what=""):
    """The type of a built-in name."""
    return (str, (lambda v: isinstance(v, str) and v in names,
                  f"unknown {what}{{v!r}} (have {sorted(names)})"))


_ORDERED = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
            and all(map(_is_number, v)) and v[0] < v[1],
            "expected [lo, hi] with lo < hi, got {v!r}")
_INTERVAL = (lambda v: Interval(float(v[0]), float(v[1])), _ORDERED)
_BOUNDED = _INTERVAL + ((lambda v: all(map(math.isfinite, v)),
                         "expected finite bounds, got {v!r}"),)
_POSITIVE = (float, (lambda v: _is_number(v) and 0 < v < math.inf,
                     "expected a finite number > 0, got {v!r}"))
# the largest grid count and num_pairs a config may ask for; larger
# ones are refused before anything is allocated
_MAX_GRID_COUNT = 1000
_MAX_PAIRS = 100_000
_COUNT = (int, (lambda v: _is_number(v) and v >= 2
                and (isinstance(v, int) or v.is_integer()),
                "expected a whole number >= 2, got {v!r}"),
          (lambda v: v <= _MAX_GRID_COUNT,
           f"expected at most {_MAX_GRID_COUNT}, got {{v!r}}"))
_EXPRESSION = (parse_entry,)
_MATRIX = (expression_matrix, (_square(lambda s: True), "expected a square "
                          "list-of-lists of expression strings"))
_BREAKPOINTS = (lambda v: tuple(map(float, v)),
                (lambda v: isinstance(v, list) and all(map(_finite, v)),
                 "expected a list of numbers"),
                (lambda v: len(set(v)) == len(v),
                 "expected distinct breakpoints, got {v!r}"))
_NORM = ("norm", "euclidean", (str, (lambda v: v in NORM_KINDS,
         f"must be one of {NORM_KINDS}, got {{v!r}}")))


_SYSTEM = _Object((
    ("G", _REQUIRED, _MATRIX),
    ("G_breakpoints", [], _BREAKPOINTS),
    ("f", _REQUIRED, _EXPRESSION),
    ("f_breakpoints", [], _BREAKPOINTS),
    ("I", [-math.inf, math.inf], _INTERVAL),
    ("J", _REQUIRED, _BOUNDED),
    _NORM,
), build=lambda c: expression_system(
    c.G, expression_path(c.f, c.f_breakpoints), c.I, c.J, c.norm,
    c.G_breakpoints), alt=("builtin", _Object((
    ("builtin", _REQUIRED, _named(BUILTIN_FIELDS, "field ")),
    ("f", "sin", _named(BUILTIN_PATHS, "scalar path ")),
    ("matrix", None, (constant_matrix, (_square(_finite),
     "expected a square matrix of finite numbers, got {v!r}"))),
    _NORM,
), rules=(lambda c, cfg: c.matrix is not None and c.builtin != "constant"
          and "matrix: only the constant field takes a matrix",),
    build=lambda c: make_system(c.builtin, c.norm, c.f) if c.matrix is None
    else builtin_system(c.matrix, c.norm, c.f))))

_CONNECTION = _Object((
    ("omega1", _REQUIRED, _MATRIX),
    ("omega2", _REQUIRED, _MATRIX),
    ("M", _REQUIRED, _BOUNDED),
    ("J", _REQUIRED, _BOUNDED),
    _NORM,
), rules=(lambda c, cfg: c.omega1.dim != c.omega2.dim
          and "omega2: dimension differs from omega1's",),
    build=lambda c: expression_connection(c.omega1, c.omega2, c.M, c.J,
                                          c.norm),
    alt=("builtin", _Object((
        ("builtin", _REQUIRED, _named(BUILTIN_CONNECTIONS)),
        ("M", None, _BOUNDED),
        ("J", None, _BOUNDED),
        _NORM,
    ), build=lambda c: make_connection(c.builtin, c.M, c.J, c.norm))))

_CURVE = _Object((
    ("gamma1", _REQUIRED, _EXPRESSION),
    ("gamma1_breakpoints", [], _BREAKPOINTS),
    ("gamma2", _REQUIRED, _EXPRESSION),
    ("gamma2_breakpoints", [], _BREAKPOINTS),
    ("domain", _REQUIRED, _BOUNDED),
), build=lambda c: Curve(expression_path(c.gamma1, c.gamma1_breakpoints),
                         expression_path(c.gamma2, c.gamma2_breakpoints),
                         c.domain.lo, c.domain.hi))

_PROBLEM = _Object((
    ("builtin", _REQUIRED, _named(BUILTIN_EXTENSIONS)),
    _NORM,
), build=lambda c: make_extension_problem(c.builtin, c.norm))

_GRID = _Object((
    ("nx_left", 6, _COUNT),
    ("nx_right", 10, _COUNT),
    ("nv", 13, _COUNT),
    ("x_floor", 1e-3, _POSITIVE),
))

# pairs (s, t), given or num_pairs drawn from the window
_PAIRS = (
    ("window", None, _BOUNDED),
    ("pairs", None, (lambda v: [(float(s), float(t)) for s, t in v],
                     (_list_of(lambda p: isinstance(p, (list, tuple))
                               and len(p) == 2 and all(map(_finite, p))),
                      "expected a non-empty list of [s, t]"))),
    ("num_pairs", None, (int, (
        lambda v: _is_number(v) and isinstance(v, int) and v >= 1,
        "expected a positive integer (or give pairs)"), (
        lambda v: v <= _MAX_PAIRS,
        f"expected at most {_MAX_PAIRS}, got {{v!r}}"))),
)


def _pairs_or_draws(c, cfg):
    if c.pairs is None and c.num_pairs is None:
        return "num_pairs: expected a positive integer (or give pairs)"
    if c.pairs is None and c.window is None:
        return "window: missing (needed to draw num_pairs)"


def _window_in_I(c, cfg):
    I = c.system.I
    if not (I.contains(c.window.lo) and I.contains(c.window.hi)):
        return (f"window: {cfg['window']!r} does not lie inside the "
                f"system's time interval I = [{I.lo}, {I.hi}]")


def _pairs_in_window(c, cfg):
    outside = [p for p in c.pairs or ()
               if not all(c.window.contains(x, 1e-12) for x in p)]
    if outside:
        return (f"pairs: pair {outside[0]} outside the window "
                f"{cfg['window']!r}")


def _x_floor_in_M(c, cfg):
    M, a = c.problem.omega.m_interval, c.problem.a
    top = M.hi - 0.05 * M.length() - a
    if not c.grid.x_floor < top:
        return (f"grid.x_floor: expected a number below {top} "
                f"(M.hi - 0.05 |M| - a), got {c.grid.x_floor!r}")


def _sine_curve_domain(c, cfg):
    M, J = c.connection.m_interval, c.connection.j_interval
    top = min(max(c.b_list), c.b_floor)  # the last x the curve reaches
    if not (M.contains(c.a) and M.contains(top)):
        return (f"connection.M: [{M.lo}, {M.hi}] must contain the curve's "
                f"x-range [{c.a}, {top}]")
    if not (J.contains(-1.0) and J.contains(1.0)):
        return (f"connection.J: [{J.lo}, {J.hi}] must contain [-1, 1], "
                "the range of sin(1/t)")
    if len(c.v) != c.connection.space.dim:
        return (f"v: length {len(c.v)} does not match the connection "
                f"dimension {c.connection.space.dim}")


def _pairs(c, seed, ordered):
    """The config's pairs, or num_pairs pairs drawn from its window."""
    if c.pairs is not None:
        return c.pairs
    draws = np.random.default_rng(seed).uniform(
        c.window.lo, c.window.hi, size=(c.num_pairs, 2))
    if ordered:
        draws = np.sort(draws, axis=1)
    return [(float(s), float(t)) for s, t in draws]


# ---------------------------------------------------------------------------
# runners


def _tabulate(rows, stats=None, **extra):
    """(rows, row_pass, summary) of a runner whose rows end in their
    verdict; ``stats``, if given, goes into the summary as ``cost``."""
    row_pass = [bool(r[-1]) for r in rows]
    summary = {"pass": all(row_pass), "rows": len(rows), **extra}
    if stats is not None:
        summary["cost"] = asdict(stats)
    return rows, row_pass, summary


def _pair_rows(pairs, one, worst, stats=None):
    """:func:`_tabulate` of the rows one(s, t) over the pairs, each
    ending in a defect and its verdict; the summary gives the largest
    defect under the key ``worst``."""
    rows = [one(s, t) for s, t in pairs]
    return _tabulate(rows, stats,
                     **{worst: max((r[-2] for r in rows), default=0.0)})


def _run_evolve(c, seed, tol):
    if "system" in vars(c):
        A = assemble_A(c.system)
    else:
        A = CoefficientPath(eval=lambda ts: c.A(ts, 0.0),
                            space=VectorSpaceSpec(c.A.dim, c.norm),
                            breakpoints=c.breakpoints)
    kind = A.space.norm_kind
    eye = np.eye(A.space.dim)
    stats = StepStats()

    def one(s, t):
        x = evolve(A, s, t, tol, stats)
        x_inv = evolve(A, t, s, tol, stats)
        defect = matrix_norm(x @ x_inv - eye, kind)
        return (s, t, matrix_norm(x, kind), matrix_norm(x_inv, kind), defect,
                defect <= 100.0 * tol)

    return _pair_rows(_pairs(c, seed, False), one, "max_inv_defect",
                      stats) + ({"dim": A.space.dim, "norm": kind},)


def _certificate_summary(cert) -> dict:
    """The summary entries of a certificate; a vacuous one (C = inf) adds
    its ``log_log_bound``, and one whose gain N overflowed adds the finite
    ln N, ``log_gain``."""
    out = {"gain": cert.gain, "variation": cert.variation,
           "bound": cert.bound, "overflow": cert.overflow,
           "vacuous": math.isinf(cert.bound)}
    if out["vacuous"]:
        out["log_log_bound"] = cert.log_log_bound
    if math.isinf(cert.gain):
        out["log_gain"] = cert.log_gain
    return out


def _run_certify(c, seed, tol):
    cert = certify(c.system, c.window, tol)
    row = (cert.gain, cert.variation, cert.bound, c.window.lo, c.window.hi,
           cert.sup_converged, cert.overflow)
    summary = {"pass": cert.sup_converged, "rows": 1,
               "variation_mode": cert.variation_mode,
               "cost": asdict(cert.cost), **_certificate_summary(cert)}
    return [row], [cert.sup_converged], summary, {
        "sup_grid": cert.sup_grid, "tolerances": cert.tolerances,
        "provenance": cert.provenance,
    }


def _run_verify(c, seed, tol):
    if c.certificate is not None:
        cert = BoundCertificate(
            gain=float(c.certificate["gain"]),
            variation=float(c.certificate["variation"]),
            window=c.window, sup_grid=0, provenance="user-supplied")
    else:
        cert = certify(c.system, c.window, c.certify_tol)
    report = verify_certificate(c.system, cert, _pairs(c, seed, True), tol)
    rows = [(r.s, r.t, r.norm_X, r.norm_Xinv, cert.bound, r.ratio)
            for r in report.rows]
    row_pass = [r.passed for r in report.rows]
    summary = {
        "pass": report.passed,
        "rows": len(rows),
        "max_observed": report.max_observed,
        "max_ratio": report.max_ratio,
        "aborted": report.aborted,
        "cost": {**asdict(report.stats), **asdict(cert.cost)},
        **_certificate_summary(cert),
    }
    return rows, row_pass, summary, {
        "sup_grid": cert.sup_grid, "tolerances": cert.tolerances,
        "certify_tol": c.certify_tol,
    }


def _run_substitution(c, seed, tol):
    space = VectorSpaceSpec(c.B.dim, c.norm)
    B = lambda us: c.B(us, us)
    f = expression_path(c.f, c.f_breakpoints)
    stats = StepStats()

    def one(s, t):
        defect = substitution_check(B, f, s, t, space, tol, stats=stats)
        return (s, t, defect, defect <= 100.0 * tol)

    return _pair_rows(_pairs(c, seed, False), one, "max_defect", stats) + (
        {"dim": space.dim, "norm": c.norm},)


def _run_cov_check(c, seed, tol):
    f = expression_path(c.f, c.f_breakpoints)

    def y(u):
        return np.array([comp(u, u) for comp in c.y])

    stats = QuadStats()

    def one(s, t):
        defect = cov_check(y, f, s, t, tol, stats).defect
        return (s, t, defect, defect <= 10.0 * tol)

    return _pair_rows(_pairs(c, seed, False), one, "max_defect", stats) + (
        {"components": len(c.y)},)


def _run_transport(c, seed, tol):
    w = c.connection
    bounds = sample_connection_bounds(w)
    stats = StepStats()
    rows = []
    for i, curve in enumerate(c.curves):
        p = parallel_transport(w, curve, tol, stats=stats)
        L1 = arc_length(curve.gamma1, curve.a, curve.b)
        beta = beta_bound(bounds, L1)
        norm_p = matrix_norm(p, w.space.norm_kind)
        rows.append((i, L1, norm_p, beta, norm_p <= beta * (1.0 + 1e-6)))
    return _tabulate(rows, stats, bounds=asdict(bounds)) + (
        {"norm": w.space.norm_kind},)


def _run_sine_curve(c, seed, tol):
    w = c.connection
    report = sine_curve_scenario(w, c.a, c.b_list, c.v, tol=tol,
                                 b_floor=c.b_floor)
    rows = [(r.b_requested, r.norm_P, r.beta_b, r.passed)
            for r in report.rows]
    row_pass = [r.passed for r in report.rows]
    summary = {
        "pass": report.passed,
        "rows": len(rows),
        "C": report.bound,
        "bounds": asdict(report.bounds),
        "vacuous": math.isinf(report.bound),
        "errors": [r.error for r in report.rows if r.error],
        "cost": asdict(report.stats),
    }
    return rows, row_pass, summary, {"b_floor": c.b_floor,
                                     "norm": w.space.norm_kind}


def _run_extend(c, seed, tol):
    problem, nx_left, nv = c.problem, c.grid.nx_left, c.grid.nv
    M, J = problem.omega.m_interval, problem.omega.j_interval
    pad_m = 0.05 * M.length()
    pad_j = 0.05 * J.length()
    xs_left = np.linspace(M.lo + pad_m, problem.a - pad_m, nx_left)
    xs_right = np.linspace(problem.a + c.grid.x_floor, M.hi - pad_m,
                           c.grid.nx_right)
    xs = np.concatenate([xs_left, xs_right])
    vs = np.linspace(J.lo + pad_j, J.hi - pad_j, nv)
    stats = StepStats()
    sigma = build_sigma(problem, xs, vs, tol, stats=stats)
    result = extend_section(problem, sigma, tol, stats=stats)
    mask = near_graph_mask(problem.f, problem.a, xs, vs)
    # x-differences must not straddle the excluded strip around x = a:
    # recompute the reported residuals per uniform block
    theta0 = np.empty((len(xs), nv))
    theta1 = np.empty((len(xs), nv))
    for sl, block in ((slice(0, nx_left), xs_left),
                      (slice(nx_left, None), xs_right)):
        theta0[sl] = parallel_residual(problem.omega, result.xi0[sl],
                                       block, vs, 1).values
        theta1[sl] = parallel_residual(problem.omega, result.xi1[sl],
                                       block, vs, 1).values
    rows = []
    for ix, x in enumerate(result.x_grid):
        for iv, v in enumerate(result.v_grid):
            rows.append((x, v, float(result.gap[ix, iv]),
                         float(theta0[ix, iv]), float(theta1[ix, iv])))
    row_pass = [r[2] <= 100.0 * tol for r in rows]
    off_graph = [float(theta0[ix, iv])
                 for ix in range(len(xs)) for iv in range(len(vs))
                 if not mask[ix, iv]]
    summary = {
        "pass": bool(result.accepted and sigma.verified),
        "rows": len(rows),
        "max_gap": result.max_gap,
        "accepted": result.accepted,
        "sigma_verified": sigma.verified,
        "worst_point": list(result.worst_point),
        "max_offgraph_residual": max(off_graph, default=0.0),
        "cost": asdict(stats),
    }
    return rows, row_pass, summary, {
        "grid": {"nx": len(xs), "nv": nv, "x_floor": c.grid.x_floor},
        "loop_defect": sigma.loop_defect,
        "probe_residual": sigma.probe_residual,
    }


# each kind's runner and key table
_SCENARIOS = {
    "evolve": (_run_evolve, _Object((
        ("A", _REQUIRED, _MATRIX), ("breakpoints", [], _BREAKPOINTS), _NORM,
        *_PAIRS,
    ), rules=(_pairs_or_draws,), alt=("system", _Object((
        ("system", _REQUIRED, _SYSTEM), *_PAIRS), rules=(_pairs_or_draws,))))),
    "certify": (_run_certify, _Object((
        ("system", _REQUIRED, _SYSTEM), ("window", _REQUIRED, _BOUNDED),
    ), rules=(_window_in_I,))),
    "verify": (_run_verify, _Object((
        ("system", _REQUIRED, _SYSTEM),
        *_PAIRS,
        ("certificate", None, (dict, (
            lambda v: isinstance(v, dict) and set(v) == {"gain", "variation"}
            and _finite(v["gain"]) and v["gain"] >= 1.0
            and _finite(v["variation"]) and v["variation"] >= 0.0,
            "expected {{gain >= 1, variation >= 0}}, both finite"))),
        ("certify_tol", DEFAULT_TOLS["certify"], _POSITIVE),
    ), rules=(
        lambda c, cfg: c.window is None and "window: missing",
        _pairs_or_draws,
        lambda c, cfg: any(s > t for s, t in c.pairs or ())
        and "pairs: need s <= t in every pair",
        _pairs_in_window, _window_in_I,
    ))),
    "substitution": (_run_substitution, _Object((
        ("B", _REQUIRED, _MATRIX),
        ("f", _REQUIRED, _EXPRESSION),
        ("f_breakpoints", [], _BREAKPOINTS),
        _NORM,
        *_PAIRS,
    ), rules=(_pairs_or_draws,))),
    "cov-check": (_run_cov_check, _Object((
        ("f", _REQUIRED, _EXPRESSION),
        ("f_breakpoints", [], _BREAKPOINTS),
        ("y", _REQUIRED, (lambda v: [parse_entry(s, f"entry [{i}]: ")
                                     for i, s in enumerate(v)],
                          (_list_of(lambda s: True), "expected a non-empty "
                           "list of expression strings"))),
        *_PAIRS,
    ), rules=(_pairs_or_draws,))),
    "transport": (_run_transport, _Object((
        ("connection", _REQUIRED, _CONNECTION),
        ("curves", _REQUIRED, [_CURVE]),
    ))),
    "sine-curve": (_run_sine_curve, _Object((
        ("connection", _REQUIRED, _CONNECTION),
        ("a", _REQUIRED, (float, (_finite, "expected a finite number, got "
                                           "{v!r}"),
                          (lambda v: v < 0, "expected a negative number"))),
        ("b_list", _REQUIRED, (lambda v: [float(b) for b in v], (
            _list_of(lambda b: _finite(b) and b < 0),
            "expected a non-empty list of numbers in (a, 0)"))),
        ("v", _REQUIRED, (lambda v: np.array(v, dtype=float),
                          (_list_of(_is_number),
                           "expected a non-empty numeric vector"),
                          (lambda v: all(map(math.isfinite, v)),
                           "expected finite entries, got {v!r}"))),
        ("b_floor", -1e-4, (float, (_finite, "expected a finite number > a, "
                                             "got {v!r}"))),
    ), rules=(
        lambda c, cfg: any(b <= c.a for b in c.b_list)
        and "b_list: expected a non-empty list of numbers in (a, 0)",
        lambda c, cfg: c.b_floor <= c.a
        and f"b_floor: expected a finite number > a, got {c.b_floor!r}",
        _sine_curve_domain,
    ))),
    "extend": (_run_extend, _Object((
        ("problem", _REQUIRED, _PROBLEM), ("grid", {}, _GRID),
    ), rules=(_x_floor_in_M,))),
}


def run_scenario(kind: str, config: dict, seed: int = 0,
                 tol: Optional[float] = None) -> Report:
    """Validate the configuration, dispatch to the kind's runner, and
    assemble the report.  Deterministic given (config, seed)."""
    if kind not in KINDS:
        raise ConfigError([f"kind: unknown {kind!r} (have {KINDS})"])
    tol = DEFAULT_TOLS[kind] if tol is None else tol
    if not (_is_number(tol) and 0 < tol < math.inf):
        raise ConfigError([f"tol: expected a finite number > 0, got {tol!r}"])
    tol = float(tol)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError([f"seed: expected a whole number >= 0, "
                           f"got {seed!r}"])
    bag = []
    run, table = _SCENARIOS[kind]
    typed = _read(table, config, bag)
    if bag:
        raise ConfigError(bag)
    rows, row_pass, summary, extra = run(typed, seed, tol)
    provenance = {
        "tool": "evostab",
        "version": __version__,
        "tol": tol,
        "seed": seed,
    }
    provenance.update(extra)
    return Report(
        kind=kind,
        scenario={"kind": kind, "config": config, "seed": seed,
                  "tol": tol},
        columns=COLUMNS[kind],
        rows=rows,
        row_pass=list(row_pass),
        summary=summary,
        provenance=provenance,
    )


def _format_cell(x) -> str:
    if type(x) is float:  # most cells; np.float64's repr is not its value's
        return repr(x)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def emit_report(report: Report, out_dir) -> tuple:
    """Write rows.csv and summary.json under out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "rows.csv"
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join([_format_cell(x) for x in row]))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary_path = out / "summary.json"
    _write_summary(summary_path, {
        "kind": report.kind,
        "scenario": report.scenario,
        "summary": report.summary,
        "provenance": report.provenance,
    })
    return csv_path, summary_path


def emit_failure(kind: str, exc: Exception, out_dir) -> None:
    """Leave no earlier verdict under out_dir: remove rows.csv and write a
    summary.json holding only the failure ``exc`` of a ``kind`` run, with
    the ``location`` of an error that has one."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rows.csv").unlink(missing_ok=True)
    error = {"type": type(exc).__name__, "message": str(exc)}
    if getattr(exc, "location", None) is not None:
        error["location"] = exc.location
    _write_summary(out / "summary.json",
                   {"kind": kind, "summary": {"pass": False, "error": error}})


def _write_summary(path, payload):
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2)
                    + "\n", encoding="utf-8")


def _jsonable(x):
    """Recursively coerce to strict JSON types; non-finite floats become
    strings so the summary stays standards-valid."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        f = float(x)
        return f if math.isfinite(f) else repr(f)
    return x
