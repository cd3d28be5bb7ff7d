"""Scenario configuration, dispatch, and report emission.

A scenario is one JSON document: a kind (evolve, certify, verify,
substitution, transport, sine-curve, extend, cov-check) plus kind-specific
parameters.  Matrix entries and scalar paths may be expression strings in
the variables t and u; systems and connections may instead name built-ins.

Reports are written as ``rows.csv`` (fixed per-kind headers, documented
below) and ``summary.json``.  Runs are deterministic given the seed: the
same configuration and seed produce byte-identical CSV.

CSV headers per kind:

    evolve        s,t,norm_X,norm_Xinv,inv_defect,pass
    certify       N,V,C,window_lo,window_hi,converged,overflow
    verify        s,t,norm_X,norm_Xinv,C,ratio
    substitution  s,t,defect,pass
    cov-check     s,t,defect,pass
    transport     curve,L1,norm_P,beta,pass
    sine-curve    b,norm_P,beta,pass
    extend        x,v,gap,residual0,residual1
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .calculus import Interval, OperatorField, ScalarPath, arc_length, cov_check
from .errors import ConfigError
from .evolution import CoefficientPath, StepStats, evolve
from .expressions import parse_expression
from .library import (
    BUILTIN_CONNECTIONS,
    BUILTIN_EXTENSIONS,
    BUILTIN_FIELDS,
    constant_field,
    make_connection,
    make_extension_problem,
    make_scalar_path,
    make_system,
)
from .operators import NORM_KINDS, Vector, VectorSpaceSpec, matrix_norm
from .stability import (
    BoundCertificate,
    SeparableSystem,
    assemble_A,
    certify,
    substitution_check,
    verify_certificate,
)
from .transport import (
    ConnectionForm,
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
# config helpers


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _problems_if(cond: bool, msg: str, bag: list) -> None:
    if cond:
        bag.append(msg)


def _check_interval(cfg, key, bag, required=True):
    if key not in cfg:
        if required:
            bag.append(f"{key}: missing")
        return None
    v = cfg[key]
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, (int, float)) for x in v)
            or not v[0] < v[1]):
        bag.append(f"{key}: expected [lo, hi] with lo < hi, got {v!r}")
        return None
    return Interval(float(v[0]), float(v[1]))


def _check_norm(cfg, bag) -> str:
    norm = cfg.get("norm", "euclidean")
    if norm not in NORM_KINDS:
        bag.append(f"norm: must be one of {NORM_KINDS}, got {norm!r}")
        return "euclidean"
    return norm


def _number_list(cfg, key, bag) -> tuple:
    """The optional list of finite numbers under ``key``, as floats."""
    vals = cfg.get(key, [])
    if not isinstance(vals, list) or not all(
            _is_number(v) and math.isfinite(v) for v in vals):
        bag.append(f"{key}: expected a list of numbers")
        return ()
    return tuple(float(v) for v in vals)


def _expr_matrix(rows, bag, label):
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and len(r) == len(rows)
                       for r in rows)):
        bag.append(f"{label}: expected a square list-of-lists of "
                   "expression strings")
        return None
    compiled = []
    for i, row in enumerate(rows):
        crow = []
        for j, s in enumerate(row):
            try:
                crow.append(parse_expression(str(s)))
            except Exception as exc:
                bag.append(f"{label}[{i}][{j}]: {exc}")
                crow.append(None)
        compiled.append(crow)
    if any(c is None for row in compiled for c in row):
        return None
    r = len(compiled)

    def eval_matrix(t, u):
        return np.array([[compiled[i][j](t, u) for j in range(r)]
                         for i in range(r)])

    def many(t, us):  # entries without u (exp(-t), constants) broadcast
        out = np.empty((len(us), r, r))
        for i, j in np.ndindex(r, r):
            out[:, i, j] = compiled[i][j].many(t, us)
        return out

    eval_matrix.dim = r
    eval_matrix.many = many
    return eval_matrix


def _scalar_path_from(cfg, key, bag, domain) -> Optional[ScalarPath]:
    if key not in cfg:
        bag.append(f"{key}: missing")
        return None
    try:
        f = parse_expression(str(cfg[key]))
    except Exception as exc:
        bag.append(f"{key}: {exc}")
        return None
    return ScalarPath(eval=lambda t: f(t, 0.0),
                      breakpoints=_number_list(cfg, f"{key}_breakpoints", bag),
                      domain=domain)


def _system_from_config(cfg, bag) -> Optional[SeparableSystem]:
    if not isinstance(cfg, dict):
        bag.append("system: expected an object")
        return None
    norm = _check_norm(cfg, bag)
    if "builtin" in cfg:
        name = cfg["builtin"]
        if name not in BUILTIN_FIELDS:
            bag.append(f"system.builtin: unknown field {name!r} "
                       f"(have {sorted(BUILTIN_FIELDS)})")
            return None
        f_name = cfg.get("f", "sin")
        try:
            if name == "constant" and "matrix" in cfg:
                field_obj = constant_field(np.asarray(cfg["matrix"],
                                                      dtype=float), norm)
                I = Interval(0.0, math.inf)
                return SeparableSystem(
                    G=field_obj, f=make_scalar_path(f_name, I), I=I,
                    J=Interval(-1.0, 1.0), space=field_obj.space)
            return make_system(name, norm, f_name)
        except (KeyError, ValueError) as exc:
            bag.append(f"system: {exc}")
            return None
    I = _check_interval(cfg, "I", bag, required=False) or Interval(-math.inf, math.inf)
    J = _check_interval(cfg, "J", bag)
    G_eval = _expr_matrix(cfg.get("G"), bag, "system.G")
    G_bps = _number_list(cfg, "G_breakpoints", bag)
    f = _scalar_path_from(cfg, "f", bag, I)
    if None in (J, G_eval, f):
        return None
    space = VectorSpaceSpec(G_eval.dim, norm)
    field_obj = OperatorField(
        eval=G_eval, space=space, t_breakpoints=G_bps,
        u_independent=bool(cfg.get("u_independent", False)),
        eval_u=G_eval.many,
    )
    return SeparableSystem(G=field_obj, f=f, I=I, J=J, space=space)


def _connection_from_config(cfg, bag):
    if not isinstance(cfg, dict):
        bag.append("connection: expected an object")
        return None
    norm = _check_norm(cfg, bag)
    m = _check_interval(cfg, "M", bag, required="builtin" not in cfg)
    j = _check_interval(cfg, "J", bag, required="builtin" not in cfg)
    if "builtin" in cfg:
        name = cfg["builtin"]
        if name not in BUILTIN_CONNECTIONS:
            bag.append(f"connection.builtin: unknown {name!r} "
                       f"(have {sorted(BUILTIN_CONNECTIONS)})")
            return None
        return make_connection(name, m, j, norm)
    w1 = _expr_matrix(cfg.get("omega1"), bag, "connection.omega1")
    w2 = _expr_matrix(cfg.get("omega2"), bag, "connection.omega2")
    if None in (m, j, w1, w2):
        return None
    if w1.dim != w2.dim:
        bag.append("connection: omega1 and omega2 dimensions differ")
        return None
    return ConnectionForm(
        omega1=w1, omega2=w2, m_interval=m, j_interval=j,
        space=VectorSpaceSpec(w1.dim, norm),
    )


def _pairs_from_config(cfg, bag, rng, ordered=True):
    if "pairs" in cfg:
        pairs = cfg["pairs"]
        if (not isinstance(pairs, list) or not pairs or not all(
                isinstance(p, (list, tuple)) and len(p) == 2
                and all(isinstance(x, (int, float)) for x in p)
                for p in pairs)):
            bag.append("pairs: expected a non-empty list of [s, t]")
            return []
        out = [(float(s), float(t)) for s, t in pairs]
        if ordered and any(s > t for s, t in out):
            bag.append("pairs: need s <= t in every pair")
            return []
        return out
    window = _check_interval(cfg, "window", bag)
    n = cfg.get("num_pairs")
    if not isinstance(n, int) or n < 1:
        bag.append("num_pairs: expected a positive integer (or give pairs)")
        return []
    if window is None:
        return []
    draws = rng.uniform(window.lo, window.hi, size=(n, 2))
    if ordered:
        draws = np.sort(draws, axis=1)
    return [(float(s), float(t)) for s, t in draws]


# ---------------------------------------------------------------------------
# runners


def _run_evolve(config, seed, tol):
    bag = []
    rng = np.random.default_rng(seed)
    if "system" in config:
        system = _system_from_config(config.get("system"), bag)
        A = assemble_A(system) if system is not None else None
    else:
        norm = _check_norm(config, bag)
        mat = _expr_matrix(config.get("A"), bag, "A")
        bps = _number_list(config, "breakpoints", bag)
        domain = _check_interval(config, "domain", bag, required=False) \
            or Interval(-math.inf, math.inf)
        if mat is not None:
            A = CoefficientPath(
                eval=lambda t: mat(t, 0.0),
                space=VectorSpaceSpec(mat.dim, norm),
                breakpoints=bps, domain=domain,
            )
        else:
            A = None
    pairs = _pairs_from_config(config, bag, rng, ordered=False)
    if bag:
        raise ConfigError(bag)
    kind = A.space.norm_kind
    eye = np.eye(A.space.dim)

    def one(pair):
        s, t = pair
        x = evolve(A, s, t, tol)
        x_inv = evolve(A, t, s, tol)
        defect = matrix_norm(x.entries @ x_inv.entries - eye, kind)
        return (s, t, matrix_norm(x.entries, kind),
                matrix_norm(x_inv.entries, kind), defect,
                defect <= 100.0 * tol)

    rows = [one(pair) for pair in pairs]
    row_pass = [bool(r[5]) for r in rows]
    summary = {
        "pass": all(row_pass),
        "rows": len(rows),
        "max_inv_defect": max((r[4] for r in rows), default=0.0),
    }
    return rows, row_pass, summary, {"dim": A.space.dim, "norm": kind}


def _run_certify(config, seed, tol):
    bag = []
    system = _system_from_config(config.get("system"), bag)
    window = _check_interval(config, "window", bag)
    if bag:
        raise ConfigError(bag)
    cert = certify(system, window, tol)
    row = (cert.gain, cert.variation, cert.bound, window.lo, window.hi,
           cert.sup_converged, cert.overflow)
    summary = {
        "pass": cert.sup_converged,
        "rows": 1,
        "gain": cert.gain,
        "variation": cert.variation,
        "bound": cert.bound,
        "overflow": cert.overflow,
        "variation_mode": cert.variation_mode,
        "vacuous": math.isinf(cert.bound),
    }
    if summary["vacuous"]:
        summary["log_log_bound"] = cert.log_log_bound
    return [row], [cert.sup_converged], summary, {
        "sup_grid": cert.sup_grid, "tolerances": cert.tolerances,
        "provenance": cert.provenance,
    }


def _run_verify(config, seed, tol):
    bag = []
    rng = np.random.default_rng(seed)
    system = _system_from_config(config.get("system"), bag)
    window = _check_interval(config, "window", bag)
    pairs = _pairs_from_config(config, bag, rng, ordered=True)
    cert_cfg = config.get("certificate")
    if cert_cfg is not None and not (
            isinstance(cert_cfg, dict)
            and isinstance(cert_cfg.get("gain"), (int, float))
            and cert_cfg["gain"] >= 1.0
            and isinstance(cert_cfg.get("variation"), (int, float))
            and cert_cfg["variation"] >= 0.0):
        bag.append("certificate: expected {gain >= 1, variation >= 0}")
    if bag:
        raise ConfigError(bag)
    cert_tol = float(config.get("certify_tol", DEFAULT_TOLS["certify"]))
    if cert_cfg is not None:
        cert = BoundCertificate.from_parts(
            gain=float(cert_cfg["gain"]),
            variation=float(cert_cfg["variation"]),
            window=window, sup_grid=0, tolerances={},
            provenance="user-supplied")
    else:
        cert = certify(system, window, cert_tol)
    report = verify_certificate(system, cert, pairs, tol)
    rows = [(r.s, r.t, r.norm_X, r.norm_Xinv, cert.bound, r.ratio)
            for r in report.rows]
    row_pass = [r.passed for r in report.rows]
    summary = {
        "pass": report.passed,
        "rows": len(rows),
        "max_observed": report.max_observed,
        "max_ratio": report.max_ratio,
        "bound": cert.bound,
        "gain": cert.gain,
        "variation": cert.variation,
        "overflow": cert.overflow,
        "vacuous": math.isinf(cert.bound),
        "aborted": report.aborted,
        "cost": asdict(report.stats),
    }
    if summary["vacuous"]:
        summary["log_log_bound"] = cert.log_log_bound
    return rows, row_pass, summary, {
        "sup_grid": cert.sup_grid, "tolerances": cert.tolerances,
        "certify_tol": cert_tol,
    }


def _run_substitution(config, seed, tol):
    bag = []
    rng = np.random.default_rng(seed)
    norm = _check_norm(config, bag)
    mat = _expr_matrix(config.get("B"), bag, "B")
    f = _scalar_path_from(config, "f", bag, Interval(-math.inf, math.inf))
    pairs = _pairs_from_config(config, bag, rng, ordered=False)
    if bag:
        raise ConfigError(bag)
    space = VectorSpaceSpec(mat.dim, norm)
    B = lambda u: mat(u, u)

    def one(pair):
        s, t = pair
        defect = substitution_check(B, f, s, t, space, tol)
        return (s, t, defect, defect <= 100.0 * tol)

    rows = [one(pair) for pair in pairs]
    row_pass = [bool(r[3]) for r in rows]
    summary = {
        "pass": all(row_pass),
        "rows": len(rows),
        "max_defect": max((r[2] for r in rows), default=0.0),
    }
    return rows, row_pass, summary, {"dim": space.dim, "norm": norm}


def _run_cov_check(config, seed, tol):
    bag = []
    rng = np.random.default_rng(seed)
    f = _scalar_path_from(config, "f", bag, Interval(-math.inf, math.inf))
    y_cfg = config.get("y")
    if not isinstance(y_cfg, list) or not y_cfg:
        bag.append("y: expected a non-empty list of expression strings")
        comps = []
    else:
        comps = []
        for i, s in enumerate(y_cfg):
            try:
                comps.append(parse_expression(str(s)))
            except Exception as exc:
                bag.append(f"y[{i}]: {exc}")
    pairs = _pairs_from_config(config, bag, rng, ordered=False)
    if bag:
        raise ConfigError(bag)

    def y(u):
        return np.array([c(u, u) for c in comps])

    def one(pair):
        s, t = pair
        res = cov_check(y, f, s, t, tol)
        return (s, t, res.defect, res.defect <= 10.0 * tol)

    rows = [one(pair) for pair in pairs]
    row_pass = [bool(r[3]) for r in rows]
    summary = {
        "pass": all(row_pass),
        "rows": len(rows),
        "max_defect": max((r[2] for r in rows), default=0.0),
    }
    return rows, row_pass, summary, {"components": len(comps)}


def _curve_from_config(cfg, bag, index):
    label = f"curves[{index}]"
    if not isinstance(cfg, dict):
        bag.append(f"{label}: expected an object")
        return None
    dom = _check_interval(cfg, "domain", bag)
    if dom is None:
        return None
    paths = []
    for key in ("gamma1", "gamma2"):
        if key not in cfg:
            bag.append(f"{label}.{key}: missing")
            paths.append(None)
            continue
        try:
            fn = parse_expression(str(cfg[key]))
        except Exception as exc:
            bag.append(f"{label}.{key}: {exc}")
            paths.append(None)
            continue
        bps = _number_list(cfg, f"{key}_breakpoints", bag)
        paths.append(ScalarPath(eval=lambda t, _f=fn: _f(t, 0.0),
                                 breakpoints=bps, domain=dom))
    if None in paths:
        return None
    return Curve(paths[0], paths[1], dom.lo, dom.hi)


def _run_transport(config, seed, tol):
    bag = []
    w = _connection_from_config(config.get("connection"), bag)
    curves_cfg = config.get("curves")
    curves = []
    if not isinstance(curves_cfg, list) or not curves_cfg:
        bag.append("curves: expected a non-empty list")
    else:
        for i, c in enumerate(curves_cfg):
            curves.append(_curve_from_config(c, bag, i))
    if bag or any(c is None for c in curves):
        raise ConfigError(bag or ["curves: invalid entries"])
    bounds = sample_connection_bounds(w)

    def one(item):
        i, curve = item
        p = parallel_transport(w, curve, tol)
        L1 = arc_length(curve.gamma1, curve.a, curve.b)
        beta = beta_bound(bounds, L1)
        norm_p = matrix_norm(p.entries, w.space.norm_kind)
        return (i, L1, norm_p, beta, norm_p <= beta * (1.0 + 1e-6))

    rows = [one(item) for item in enumerate(curves)]
    row_pass = [bool(r[4]) for r in rows]
    summary = {
        "pass": all(row_pass),
        "rows": len(rows),
        "bounds": {"B1": bounds.B1, "B2": bounds.B2, "B12": bounds.B12,
                   "lambda_J": bounds.lambda_J,
                   "provenance": bounds.provenance},
    }
    return rows, row_pass, summary, {"norm": w.space.norm_kind}


def _run_sine_curve(config, seed, tol):
    bag = []
    w = _connection_from_config(config.get("connection"), bag)
    a = config.get("a")
    if not isinstance(a, (int, float)) or not a < 0:
        bag.append("a: expected a negative number")
    b_list = config.get("b_list")
    if (not isinstance(b_list, list) or not b_list or not all(
            isinstance(b, (int, float)) for b in b_list)):
        bag.append("b_list: expected a non-empty list of numbers")
    v_cfg = config.get("v")
    if (not isinstance(v_cfg, list) or not v_cfg or not all(
            isinstance(x, (int, float)) for x in v_cfg)):
        bag.append("v: expected a non-empty numeric vector")
    if bag:
        raise ConfigError(bag)
    if len(v_cfg) != w.space.dim:
        raise ConfigError([f"v: length {len(v_cfg)} does not match the "
                           f"connection dimension {w.space.dim}"])
    v = Vector(np.array([float(x) for x in v_cfg]), w.space)
    floor = float(config.get("b_floor", -1e-4))
    report = sine_curve_scenario(w, float(a), [float(b) for b in b_list], v,
                                 tol=tol, b_floor=floor)
    rows = [(r.b_requested, r.norm_P, r.beta_b, r.passed)
            for r in report.rows]
    row_pass = [r.passed for r in report.rows]
    summary = {
        "pass": report.passed,
        "rows": len(rows),
        "C": report.bound,
        "bounds": {"B1": report.bounds.B1, "B2": report.bounds.B2,
                   "B12": report.bounds.B12,
                   "lambda_J": report.bounds.lambda_J,
                   "provenance": report.bounds.provenance},
        "errors": [r.error for r in report.rows if r.error],
    }
    return rows, row_pass, summary, {"b_floor": floor,
                                     "norm": w.space.norm_kind}


def _extension_from_config(cfg, bag):
    if not isinstance(cfg, dict):
        bag.append("problem: expected an object")
        return None
    if "builtin" in cfg:
        name = cfg["builtin"]
        if name not in BUILTIN_EXTENSIONS:
            bag.append(f"problem.builtin: unknown {name!r} "
                       f"(have {sorted(BUILTIN_EXTENSIONS)})")
            return None
        norm = _check_norm(cfg, bag)
        return make_extension_problem(name, norm)
    bag.append("problem: only builtin extension problems are supported "
               f"(have {sorted(BUILTIN_EXTENSIONS)})")
    return None


def _grid_number(grid_cfg, name, default, bag, count=False):
    v = grid_cfg.get(name, default)
    if not _is_number(v) or (count and not (float(v).is_integer() and v >= 2)):
        what = "a whole number >= 2" if count else "a number"
        bag.append(f"grid.{name}: expected {what}, got {v!r}")
        return None
    return int(v) if count else float(v)


def _run_extend(config, seed, tol):
    bag = []
    problem = _extension_from_config(config.get("problem"), bag)
    grid_cfg = config.get("grid", {})
    if not isinstance(grid_cfg, dict):
        bag.append("grid: expected an object")
        grid_cfg = {}
    nx_left = _grid_number(grid_cfg, "nx_left", 6, bag, count=True)
    nx_right = _grid_number(grid_cfg, "nx_right", 10, bag, count=True)
    nv = _grid_number(grid_cfg, "nv", 13, bag, count=True)
    x_floor = _grid_number(grid_cfg, "x_floor", 1e-3, bag)
    _problems_if(x_floor is not None and not x_floor > 0,
                 "grid.x_floor: must be positive", bag)
    if bag:
        raise ConfigError(bag)
    M, J = problem.omega.m_interval, problem.omega.j_interval
    pad_m = 0.05 * M.length()
    pad_j = 0.05 * J.length()
    xs_left = np.linspace(M.lo + pad_m, problem.a - pad_m, nx_left)
    xs_right = np.linspace(problem.a + x_floor, M.hi - pad_m, nx_right)
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
        "grid": {"nx": len(xs), "nv": nv, "x_floor": x_floor},
        "loop_defect": sigma.loop_defect,
        "probe_residual": sigma.probe_residual,
    }


_RUNNERS = {
    "evolve": _run_evolve,
    "certify": _run_certify,
    "verify": _run_verify,
    "substitution": _run_substitution,
    "cov-check": _run_cov_check,
    "transport": _run_transport,
    "sine-curve": _run_sine_curve,
    "extend": _run_extend,
}


def run_scenario(kind: str, config: dict, seed: int = 0,
                 tol: Optional[float] = None) -> Report:
    """Validate the configuration, dispatch to the kind's runner, and
    assemble the report.  Deterministic given (config, seed)."""
    if kind not in KINDS:
        raise ConfigError([f"kind: unknown {kind!r} (have {KINDS})"])
    if not isinstance(config, dict):
        raise ConfigError(["config: expected a JSON object"])
    tol = DEFAULT_TOLS[kind] if tol is None else tol
    if not (_is_number(tol) and 0 < tol < math.inf):
        raise ConfigError([f"tol: expected a finite number > 0, got {tol!r}"])
    tol = float(tol)
    rows, row_pass, summary, extra = _RUNNERS[kind](config, int(seed), tol)
    provenance = {
        "tool": "evostab",
        "version": __version__,
        "tol": tol,
        "seed": int(seed),
    }
    provenance.update(extra)
    return Report(
        kind=kind,
        scenario={"kind": kind, "config": config, "seed": int(seed),
                  "tol": tol},
        columns=COLUMNS[kind],
        rows=rows,
        row_pass=list(row_pass),
        summary=summary,
        provenance=provenance,
    )


def _format_cell(x) -> str:
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
        lines.append(",".join(_format_cell(x) for x in row))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary_path = out / "summary.json"
    payload = _jsonable({
        "kind": report.kind,
        "scenario": report.scenario,
        "summary": report.summary,
        "provenance": report.provenance,
    })
    summary_path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return csv_path, summary_path


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
