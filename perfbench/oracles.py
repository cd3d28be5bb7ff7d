"""Independent checks of each workload's outputs.

Every reference value here is computed without evostab: the fields,
gauges and closed forms are transcribed from their definitions, and the
integrals come from scipy.  ``reference(inputs, seed)`` does the expensive
work once per run; ``compare(inputs, out, ref)`` is cheap and returns a
:class:`Verdict` naming the checks that rejected something, so that
:func:`check_the_checks` can feed it perturbed outputs and confirm that
the check meant to catch each perturbation does.

Tolerances sit with margin above the agreement measured on the program;
README.md lists both.
"""

from __future__ import annotations

import copy
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, optimize
from scipy.linalg import expm

# agreement demanded of each output
VERIFY_NORM_RTOL = 1e-7
VERIFY_SUP_RTOL = 1e-12
VERIFY_VAR_RTOL = 2e-8
SINE_NORM_RTOL = 2e-5
FORMULA_RTOL = 1e-12
EXTEND_ATOL = 1e-9          # times the norm of the seed vector
CERTIFY_VAR_RTOL = 1e-10
CERTIFY_SUP_ATOL = 1e-7     # above the independent sup (inner quadrature)
CERTIFY_SUP_STOP = 1e-3     # below it: the program's refinement stop

VERIFY_SUBSET = 25
_LOG_MAX = math.log(sys.float_info.max)


@dataclass
class Verdict:
    bad_rows: set = field(default_factory=set)    # rows a check rejects
    problems: list = field(default_factory=list)  # whole-output failures
    fired: set = field(default_factory=set)       # names of rejecting checks
    agreement: dict = field(default_factory=dict)  # worst measured errors

    def reject(self, check: str, row=None, why: str = "") -> None:
        self.fired.add(check)
        if row is None:
            self.problems.append(f"{check}: {why}")
        else:
            self.bad_rows.add(row)

    def note(self, key: str, err: float) -> None:
        self.agreement[key] = max(self.agreement.get(key, 0.0), float(err))


def _rel(a: float, b: float) -> float:
    """Relative difference; infinite unless both are finite or equal."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(b), 1e-300)


def _sigma_max(m: np.ndarray) -> float:
    """Largest singular value of a 2x2 matrix, in closed form."""
    fro2 = float(np.sum(m * m))
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    disc = max(fro2 * fro2 - 4.0 * det * det, 0.0)
    return math.sqrt(0.5 * (fro2 + math.sqrt(disc)))


def _rot(theta: float) -> np.ndarray:
    """exp(theta R) for the rotation generator R = [[0, 1], [-1, 0]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _grid_sup(fn, lo: float, hi: float, n: int, candidates: int = 3):
    """Sup of a scalar function: a uniform grid, then a bounded optimiser
    around the best few grid points."""
    ts = np.linspace(lo, hi, n)
    vals = np.array([fn(t) for t in ts])
    best = float(vals.max())
    h = ts[1] - ts[0]
    for i in np.argsort(vals)[-candidates:]:
        a, b = max(lo, ts[i] - h), min(hi, ts[i] + h)
        res = optimize.minimize_scalar(lambda t: -fn(t), bounds=(a, b),
                                       method="bounded",
                                       options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


def _certificate_overflows(ln_gain: float, variation: float) -> bool:
    """Whether C = N^2 exp(N^{3+2N} V) leaves the float range, decided
    in log space: log C = 2 ln N + exp((3 + 2N) ln N + ln V)."""
    if variation == 0.0:
        return 2.0 * ln_gain > _LOG_MAX
    q = (3.0 + 2.0 * math.exp(ln_gain)) * ln_gain + math.log(variation)
    return q > math.log(_LOG_MAX) or 2.0 * ln_gain + math.exp(q) > _LOG_MAX


def _check_certificate(v: Verdict, s: dict, ref: dict, var_rtol: float,
                       sup_lo: float, sup_hi: float) -> None:
    """ln N within [sup_lo, sup_hi], V against the reference integral,
    and C infinite exactly when it overflows."""
    ln_gain = math.log(s["gain"])
    if not sup_lo <= ln_gain <= sup_hi:
        v.reject("ln_N", why=f"{ln_gain!r} outside [{sup_lo!r}, {sup_hi!r}]")
    err = _rel(s["variation"], ref["variation"])
    v.note("V", err)
    if err > var_rtol:
        v.reject("V", why=f"{s['variation']!r}, reference "
                          f"{ref['variation']!r}")
    expect_inf = _certificate_overflows(ln_gain, s["variation"])
    if expect_inf != math.isinf(s["bound"]):
        v.reject("overflow", why=f"bound {s['bound']!r}, overflow expected: "
                                 f"{expect_inf}")


def _check_summary(v: Verdict, out: dict, rows: int) -> None:
    if not out["summary"].get("pass", False):
        v.reject("summary", why="the program reports pass = false")
    if len(out["rows"]) != rows:
        v.reject("rows", why=f"{len(out['rows'])} rows, expected {rows}")


# ---------------------------------------------------------------------------
# verify-example39: the settling field with f = sin over [0, 100]


def _example39_G(t: float) -> np.ndarray:
    return np.array([[2.0 * math.atan(t), math.sqrt(t + 1.0) - math.sqrt(t)],
                     [-1.0 / (1.0 + t * t), 1.0 + math.exp(-t)]])


def _example39_dG(t: float) -> np.ndarray:
    return np.array([
        [2.0 / (1.0 + t * t), 0.5 / math.sqrt(t + 1.0) - 0.5 / math.sqrt(t)],
        [2.0 * t / (1.0 + t * t) ** 2, -math.exp(-t)],
    ])


def _example39_propagator(s: float, t: float) -> np.ndarray:
    def rhs(tau, y):
        a = math.cos(tau) * _example39_G(tau)
        return (a @ y.reshape(2, 2)).ravel()

    sol = integrate.solve_ivp(rhs, (s, t), np.eye(2).ravel(),
                              method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def verify_reference(inputs: dict, seed: int) -> dict:
    lo, hi = inputs["window"]
    pairs = inputs["pairs"]
    rng = np.random.default_rng([int(seed), 777])
    norms = {}
    for i in sorted(rng.choice(len(pairs), VERIFY_SUBSET, replace=False)):
        sv = np.linalg.svd(_example39_propagator(*pairs[i]), compute_uv=False)
        norms[int(i)] = (float(sv[0]), 1.0 / float(sv[-1]))
    # G does not depend on u, so int_J ||G|| = |J| ||G||, with |J| = 2
    ln_gain = 2.0 * _grid_sup(lambda t: _sigma_max(_example39_G(t)),
                              lo, hi, 20001)
    dnorm = lambda t: _sigma_max(_example39_dG(t))
    variation = 2.0 * sum(
        integrate.quad(dnorm, a, b, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
        for a, b in ((lo, lo + 1.0), (lo + 1.0, hi)))
    return {"norms": norms, "ln_gain": ln_gain, "variation": variation}


def verify_compare(inputs: dict, out: dict, ref: dict) -> Verdict:
    v = Verdict()
    s = out["summary"]
    _check_summary(v, out, len(inputs["pairs"]))
    sup = ref["ln_gain"]
    v.note("ln_N", _rel(math.log(s["gain"]), sup))
    _check_certificate(v, s, ref, VERIFY_VAR_RTOL,
                       sup * (1.0 - VERIFY_SUP_RTOL),
                       sup * (1.0 + VERIFY_SUP_RTOL))
    for i, (row, pair) in enumerate(zip(out["rows"], inputs["pairs"])):
        if (row[0], row[1]) != tuple(pair) or row[4] != s["bound"]:
            v.reject("pairs", row=i)
    for i, (n_x, n_inv) in ref["norms"].items():
        row = out["rows"][i]
        err = max(_rel(row[2], n_x), _rel(row[3], n_inv))
        v.note("norms", err)
        if err > VERIFY_NORM_RTOL:
            v.reject("norms", row=i)
    return v


# ---------------------------------------------------------------------------
# sine-curve: transport along (t, sin(1/t)) under the gauge-twist connection

_TWIST_AX, _TWIST_AU = 0.2, 0.15
_TWIST_S = np.array([[0.3, 0.1], [0.1, -0.2]])
_R = np.array([[0.0, 1.0], [-1.0, 0.0]])
_SINE_B_FLOOR = -1e-4


def _twist_gauge(x: float, u: float) -> np.ndarray:
    return _rot(_TWIST_AX * x) @ expm(_TWIST_AU * u * _TWIST_S)


def sine_reference(inputs: dict, seed: int) -> dict:
    a = inputs["a"]
    vec = np.array(inputs["v"], dtype=float)
    g_a_inv = np.linalg.inv(_twist_gauge(a, math.sin(1.0 / a)))
    norm_pv = []
    for b in inputs["b_list"]:
        b = min(b, _SINE_B_FLOOR)
        p = _twist_gauge(b, math.sin(1.0 / b)) @ g_a_inv
        norm_pv.append(float(np.linalg.norm(p @ vec)))
    # omega1 = -ax R, omega2 = -au e S e^T, d/dx omega2 = -au ax e[R, S]e^T
    # with e a rotation: all three norms are constant on the rectangle
    sups = {"B1": _TWIST_AX * np.linalg.norm(_R, 2),
            "B2": _TWIST_AU * np.linalg.norm(_TWIST_S, 2),
            "B12": _TWIST_AU * _TWIST_AX
            * np.linalg.norm(_R @ _TWIST_S - _TWIST_S @ _R, 2)}
    return {"norm_pv": norm_pv, "sups": {k: float(x) for k, x in sups.items()},
            "v_norm": float(np.linalg.norm(vec))}


def transport_beta(B1: float, B2: float, B12: float, lam: float,
                   L: float) -> float:
    """beta(L) = C(L) exp(C(L) B1 L), C(L) = N^2 exp(N^{3+2N} lam B12 L),
    N = exp(lam B2), evaluated in log space and saturated to +inf."""
    ln_n = lam * B2
    try:
        ln_c = 2.0 * ln_n + math.exp((3.0 + 2.0 * math.exp(ln_n)) * ln_n) \
            * lam * B12 * L
        return math.exp(ln_c + math.exp(ln_c) * B1 * L)
    except OverflowError:
        return math.inf


def sine_compare(inputs: dict, out: dict, ref: dict) -> Verdict:
    v = Verdict()
    s = out["summary"]
    _check_summary(v, out, len(inputs["b_list"]))
    bounds = s["bounds"]
    for key, sup in ref["sups"].items():
        if bounds[key] < sup * (1.0 - FORMULA_RTOL):
            v.reject("sups", why=f"{key} = {bounds[key]!r} below {sup!r}")
    beta = lambda L: transport_beta(bounds["B1"], bounds["B2"],
                                    bounds["B12"], bounds["lambda_J"], L)
    a, cap = inputs["a"], s["C"]
    if _rel(cap, beta(-a)) > FORMULA_RTOL:
        v.reject("C", why=f"{cap!r}, formula {beta(-a)!r}")
    for i, (row, b, want) in enumerate(zip(out["rows"], inputs["b_list"],
                                           ref["norm_pv"])):
        err = _rel(row[1], want)
        v.note(f"norm_P(b={b:g})", err)
        if row[0] != b or err > SINE_NORM_RTOL:
            v.reject("norm_P", row=i)
        if _rel(row[2], beta(min(b, _SINE_B_FLOOR) - a)) > FORMULA_RTOL:
            v.reject("beta", row=i)
        if not 1.0 / cap <= row[1] / ref["v_norm"] <= cap:
            v.reject("two-sided", row=i)
    return v


# ---------------------------------------------------------------------------
# extend-gauge: the flat connection with gauge rot(0.25 x v)

_GAUGE_EPS = 0.25


def extend_reference(inputs: dict, seed: int) -> dict:
    return {}   # the section has a closed form, evaluated in extend_compare


def extend_compare(inputs: dict, out: dict, ref: dict) -> Verdict:
    v = Verdict()
    xs, vs = out["x_grid"], out["v_grid"]
    _check_summary(v, out, len(xs) * len(vs))
    x_ref, v_ref = out["x_ref"]
    seed_vec = np.array(inputs["sigma_seed"], dtype=float)
    scale = float(np.linalg.norm(seed_vec))
    base = np.linalg.inv(_rot(_GAUGE_EPS * x_ref * v_ref)) @ seed_vec
    for ix, x in enumerate(xs):
        for iv, y in enumerate(vs):
            want = _rot(_GAUGE_EPS * x * y) @ base
            err = max(float(np.linalg.norm(out[k][ix, iv] - want))
                      for k in ("sigma", "xi0", "xi1")) / scale
            v.note("section", err)
            if not err <= EXTEND_ATOL:
                v.reject("section", row=ix * len(vs) + iv)
    return v


# ---------------------------------------------------------------------------
# certify-expr: G = [[atan(t) u, 0.1 u], [sin(t u), exp(-t)]], J = [-1, 1]


def _expr_G(t: float, u: float) -> np.ndarray:
    return np.array([[math.atan(t) * u, 0.1 * u],
                     [math.sin(t * u), math.exp(-t)]])


def _expr_dG(t: float, u: float) -> np.ndarray:
    return np.array([[u / (1.0 + t * t), 0.0],
                     [u * math.cos(t * u), -math.exp(-t)]])


def certify_reference(inputs: dict, seed: int) -> dict:
    lo, hi = inputs["window"]
    j_lo, j_hi = inputs["system"]["J"]

    def over_j(mat, t):
        return integrate.quad(lambda u: _sigma_max(mat(t, u)), j_lo, j_hi,
                              epsabs=1e-13, epsrel=1e-12, limit=200)[0]

    with warnings.catch_warnings():
        # quad reports roundoff when asked for near machine precision
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        variation = integrate.quad(lambda t: over_j(_expr_dG, t), lo, hi,
                                   epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        ln_gain = _grid_sup(lambda t: over_j(_expr_G, t), lo, hi, 91)
    return {"ln_gain": ln_gain, "variation": variation}


def certify_compare(inputs: dict, out: dict, ref: dict) -> Verdict:
    v = Verdict()
    s = out["summary"]
    _check_summary(v, out, 1)
    sup = ref["ln_gain"]
    v.note("ln_N_below_sup", (sup - math.log(s["gain"])) / sup)
    _check_certificate(v, s, ref, CERTIFY_VAR_RTOL,
                       sup * (1.0 - CERTIFY_SUP_STOP), sup + CERTIFY_SUP_ATOL)
    row = out["rows"][0]
    if (tuple(row[:3]) != (s["gain"], s["variation"], s["bound"])
            or [row[3], row[4]] != list(inputs["window"])):
        v.reject("row", row=0)
    return v


# ---------------------------------------------------------------------------
# checks of the checks: each perturbation edits a copy of the outputs in
# place, and the named check must reject it


def _scale_row(row, col, factor):
    """Scale one cell; ``row`` is an index or picks one from the reference."""
    def mutate(out, ref):
        i = row(ref) if callable(row) else row
        cells = list(out["rows"][i])
        cells[col] *= factor
        out["rows"][i] = tuple(cells)
    return mutate


def _set_result(key, value, column=None):
    """Replace a summary value by ``value(old, ref)``, and the report
    column that repeats it, so that only an oracle can tell."""
    def mutate(out, ref):
        new = value(out["summary"][key], ref)
        out["summary"][key] = new
        if column is not None:
            out["rows"] = [r[:column] + (new,) + r[column + 1:]
                           for r in out["rows"]]
    return mutate


def _scale_bound(key, factor):
    def mutate(out, ref):
        out["summary"]["bounds"][key] *= factor
    return mutate


def _shift_section(key, delta):
    def mutate(out, ref):
        out[key] = out[key].copy()
        out[key][len(out[key]) // 2, 0, 0] += delta
    return mutate


_first_checked = lambda ref: min(ref["norms"])
_fails = ("summary fails", _set_result("pass", lambda p, ref: False),
          "summary")

PERTURBATIONS = {
    "verify-example39": [
        ("norm_X x (1 + 1e-5)", _scale_row(_first_checked, 2, 1 + 1e-5),
         "norms"),
        ("norm_Xinv x (1 - 1e-5)", _scale_row(_first_checked, 3, 1 - 1e-5),
         "norms"),
        ("N x (1 + 1e-9)", _set_result("gain", lambda n, ref: n * (1 + 1e-9)),
         "ln_N"),
        ("V x (1 + 1e-6)",
         _set_result("variation", lambda x, ref: x * (1 + 1e-6)), "V"),
        ("C finite", _set_result("bound", lambda c, ref: 1e300, 4),
         "overflow"),
        ("pair moved", _scale_row(5, 0, 0.5), "pairs"),
        _fails,
    ],
    "sine-curve": [
        ("norm_P x (1 + 1e-3)", _scale_row(2, 1, 1 + 1e-3), "norm_P"),
        ("norm_P x (1 - 1e-4)", _scale_row(0, 1, 1 - 1e-4), "norm_P"),
        ("norm_P above C", _scale_row(2, 1, 1e3), "two-sided"),
        ("norm_P below 1/C", _scale_row(2, 1, 1e-3), "two-sided"),
        ("beta x (1 + 1e-9)", _scale_row(1, 2, 1 + 1e-9), "beta"),
        ("C x (1 + 1e-9)", _set_result("C", lambda c, ref: c * (1 + 1e-9)),
         "C"),
        ("B2 x 0.9", _scale_bound("B2", 0.9), "sups"),
        ("B12 x 0.9", _scale_bound("B12", 0.9), "sups"),
        _fails,
    ],
    "extend-gauge": [
        ("sigma + 1e-6", _shift_section("sigma", 1e-6), "section"),
        ("xi0 + 1e-6", _shift_section("xi0", 1e-6), "section"),
        ("xi1 - 1e-6", _shift_section("xi1", -1e-6), "section"),
        _fails,
    ],
    "certify-expr": [
        ("V x (1 + 1e-8)",
         _set_result("variation", lambda x, ref: x * (1 + 1e-8), 1), "V"),
        ("ln N above the sup",
         _set_result("gain", lambda n, ref: math.exp(ref["ln_gain"] + 1e-6),
                     0), "ln_N"),
        ("ln N 1% below the sup",
         _set_result("gain", lambda n, ref: math.exp(0.99 * ref["ln_gain"]),
                     0), "ln_N"),
        ("C finite", _set_result("bound", lambda c, ref: 1e300, 2),
         "overflow"),
        ("window moved", _scale_row(0, 4, 2.0), "row"),
        _fails,
    ],
}

REFERENCES = {
    "verify-example39": (verify_reference, verify_compare),
    "sine-curve": (sine_reference, sine_compare),
    "extend-gauge": (extend_reference, extend_compare),
    "certify-expr": (certify_reference, certify_compare),
}


def check_the_checks(name: str, inputs: dict, out: dict, ref: dict) -> list:
    """Labels of the perturbed outputs that the check meant to catch them
    let through (empty when every check bites)."""
    _, compare = REFERENCES[name]
    missed = []
    for label, mutate, check in PERTURBATIONS[name]:
        bad = copy.deepcopy(out)
        mutate(bad, ref)
        if check not in compare(inputs, bad, ref).fired:
            missed.append(label)
    return missed
