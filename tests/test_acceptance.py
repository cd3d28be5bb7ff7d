"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here exactly as stated; nothing is deferred to
later calibration.
"""

import math

import numpy as np
import pytest

from evostab.calculus import (Interval, Partition, ScalarPath, cov_check,
                              integrate, pointwise, stacked)
from evostab.evolution import CoefficientPath, evolve
from evostab.extension import (
    build_sigma,
    extend_section,
    polynomial_graph_approx,
    section_at,
)
from evostab.harness import BUILTIN_SCENARIOS, emit_report, run_scenario
from evostab.library import (
    extension_gauge_oracle,
    make_connection,
    make_extension_problem,
    make_scalar_path,
    make_system,
)
from evostab.operators import NORM_KINDS, Vector, VectorSpaceSpec, matrix_norm
from evostab.stability import (
    SeparableSystem,
    assemble_A,
    certify,
    frozen_system,
    substitution_check,
    verify_certificate,
)
from evostab.transport import (
    ConnectionForm,
    Curve,
    beta_bound,
    parallel_transport,
    sample_connection_bounds,
    sine_curve_scenario,
)
from evostab.calculus import arc_length

from conftest import smooth_corpus


def _line(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}: {text}")
    assert ok, f"criterion {num} failed: {text}"


# ---------------------------------------------------------------------------


def test_criterion_01_scalar_cosine_system():
    A = CoefficientPath(eval=stacked(lambda t: np.array([[math.cos(t)]])),
                        space=VectorSpaceSpec(1))
    rng = np.random.default_rng(101)
    pairs = rng.uniform(0.0, 20.0, size=(100, 2))
    worst_err = 0.0
    max_norm = 0.0
    for s, t in pairs:
        x = evolve(A, s, t).entries[0, 0]
        worst_err = max(worst_err,
                        abs(x - math.exp(math.sin(t) - math.sin(s))))
        lo, hi = sorted((s, t))
        max_norm = max(max_norm, abs(evolve(A, lo, hi).entries[0, 0]))
    # include the extremal ordered pair sin s = -1, sin t = +1
    s_star, t_star = 3 * math.pi / 2, 4 * math.pi + math.pi / 2
    max_norm = max(max_norm, abs(evolve(A, s_star, t_star).entries[0, 0]))
    ok = worst_err <= 1e-8 and max_norm <= math.e ** 2 + 1e-6
    _line(1, ok, f"closed-form error {worst_err:.2e} <= 1e-8, "
                 f"max norm {max_norm:.6f} <= e^2 + 1e-6")


def test_criterion_02_evolution_laws_corpus():
    corpus = smooth_corpus(seed=2024, count=20, dims=(1, 2, 3, 4))
    rng = np.random.default_rng(2025)
    worst_inv = worst_coc = 0.0
    for A in corpus:
        kind = A.space.norm_kind
        eye = np.eye(A.space.dim)
        for _ in range(50):
            s, t, u = rng.uniform(0.0, 3.0, size=3)
            xts = evolve(A, s, t).entries
            xst = evolve(A, t, s).entries
            xut = evolve(A, t, u).entries
            xus = evolve(A, s, u).entries
            worst_inv = max(worst_inv, matrix_norm(xts @ xst - eye, kind))
            worst_coc = max(worst_coc, matrix_norm(xut @ xts - xus, kind))
    ok = worst_inv <= 1e-8 and worst_coc <= 1e-8
    _line(2, ok, f"20 systems x 50 triples: inverse defect "
                 f"{worst_inv:.2e}, cocycle defect {worst_coc:.2e} <= 1e-8")


def test_criterion_03_standard_estimate_corpus():
    corpus = smooth_corpus(seed=2024, count=20, dims=(1, 2, 3, 4))
    rng = np.random.default_rng(33)
    worst_margin = -math.inf
    ok = True
    for A in corpus:
        kind = A.space.norm_kind
        for _ in range(5):
            s, t = np.sort(rng.uniform(0.0, 3.0, size=2))
            budget = integrate(lambda tau: matrix_norm(A(tau), kind),
                               Interval(s, t), tol=1e-9)
            cap = math.exp(budget) + 1e-6
            for m in (evolve(A, s, t), evolve(A, t, s)):
                val = matrix_norm(m.entries, kind)
                worst_margin = max(worst_margin, val - cap)
                ok = ok and val <= cap
    _line(3, ok, f"||X^(+-1)|| <= exp(int ||A||) + 1e-6 on the corpus "
                 f"(worst margin {worst_margin:.2e})")


def test_criterion_04_certificate_dominates_settling_field():
    rng = np.random.default_rng(404)
    window = Interval(0.0, 100.0)
    ok_all = True
    details = []
    for kind in NORM_KINDS:
        sys = make_system("example39", norm_kind=kind)
        cert = certify(sys, window)
        pairs = np.sort(rng.uniform(0.0, 100.0, size=(1000, 2)), axis=1)
        report = verify_certificate(sys, cert, pairs, tol=1e-10)
        ratio = report.max_ratio
        ok_all = ok_all and report.passed and ratio <= 1.0
        details.append(f"{kind}: max {report.max_observed:.1f}, "
                       f"ratio {ratio:.3g}")
    # the naive coefficient-integral bound diverges with the horizon
    sys = make_system("example39")
    A = assemble_A(sys)
    kinks = [k * math.pi / 2 for k in range(1, 64, 2)]
    naive = [integrate(lambda t: matrix_norm(A(t), "euclidean"),
                       Interval(0.0, T), breakpoints=kinks, tol=1e-6,
                       max_segments=16384)
             for T in (25.0, 50.0, 100.0)]
    ok_naive = naive[0] < naive[1] < naive[2]
    _line(4, ok_all and ok_naive,
          f"certificate dominates 10^3 pairs per norm ({'; '.join(details)}); "
          f"naive integral strictly grows {naive[0]:.1f} < {naive[1]:.1f} "
          f"< {naive[2]:.1f}")


def test_criterion_05_f_uniformity_one_certificate():
    window = Interval(0.0, 100.0)
    base = make_system("example39")
    cert = certify(base, window)  # depends on (G, J, window) only
    rng = np.random.default_rng(55)
    ok = True
    notes = []
    for f_name in ("sin", "sin2t", "sin-t-squared", "sawtooth", "constant"):
        sys = make_system("example39", f_name=f_name)
        n_pairs = 100 if f_name != "sin-t-squared" else 40
        pairs = np.sort(rng.uniform(0.0, 100.0, size=(n_pairs, 2)), axis=1)
        report = verify_certificate(sys, cert, pairs, tol=1e-8)
        ok = ok and report.passed
        notes.append(f"{f_name}: max {report.max_observed:.2f}")
    _line(5, ok, "one certificate covers all five paths ("
          + "; ".join(notes) + ")")


def test_criterion_06_frozen_approximants():
    window = Interval(0.0, 8.0)
    sys = make_system("example39")
    cert = certify(sys, window)
    direct = assemble_A(sys)
    kind = sys.space.norm_kind
    rng = np.random.default_rng(66)
    defects = []
    ok_verify = True
    for k in range(0, 7):
        n_seg = int(window.length() * 2 ** k)
        part = Partition(tuple(np.linspace(0.0, 8.0, n_seg + 1)))
        frozen = frozen_system(sys, part)
        defect = integrate(
            lambda t: matrix_norm(direct(t) - frozen(t), kind),
            window, breakpoints=part.points[1:-1], tol=1e-8,
            max_segments=32768)
        defects.append(defect)
        pairs = np.sort(rng.uniform(0.0, 8.0, size=(30, 2)), axis=1)
        report = verify_certificate(sys, cert, pairs, coefficient=frozen,
                                    tol=1e-10)
        ok_verify = ok_verify and report.passed
    nonincreasing = all(b <= a * (1.0 + 1e-9)
                        for a, b in zip(defects, defects[1:]))
    ok = nonincreasing and ok_verify
    _line(6, ok, "frozen-coefficient defects nonincreasing over dyadic "
                 f"meshes ({defects[0]:.3f} -> {defects[-1]:.4f}) and every "
                 "approximant verifies against the same bound")


# the derivative of abs, which the breakpoint at 0 leaves unevaluated there
_SIGN = stacked(lambda t: math.copysign(1.0, t))


def test_criterion_07_substitution_identity():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sp1, sp2 = VectorSpaceSpec(1), VectorSpaceSpec(2)
    tri = make_scalar_path("sawtooth", Interval(0.0, 10.0))
    cases = [
        (lambda u: np.array([[1.0]]), sp1,
         ScalarPath(eval=np.sin, deriv=np.cos), 0.0, 2.5),
        (lambda u: np.array([[u]]), sp1,
         ScalarPath(eval=np.sin, deriv=np.cos), 0.0, 7.0),
        (lambda u: np.array([[math.cos(u)]]), sp1,
         ScalarPath(eval=lambda t: t * t, deriv=lambda t: 2 * t), 0.0, 1.3),
        (lambda u: u * rot, sp2,
         ScalarPath(eval=lambda t: t * t, deriv=lambda t: 2 * t), 0.0, 1.2),
        (lambda u: u * rot, sp2,
         ScalarPath(eval=np.sin, deriv=np.cos), 0.0, 9.0),
        (lambda u: np.array([[u, 0.5], [-0.5, -u]]), sp2,
         ScalarPath(eval=np.sin, deriv=np.cos), 1.0, 5.0),
        (lambda u: np.array([[0.2, u], [u * u, -0.1]]), sp2,
         ScalarPath(eval=stacked(abs), deriv=_SIGN, breakpoints=(0.0,)), -1.5, 1.5),
        (lambda u: np.array([[math.exp(-u * u)]]), sp1, tri, 0.0, 9.5),
        (lambda u: np.array([[u, 0.0], [0.0, -u]]), sp2, tri, 0.5, 6.5),
        (lambda u: np.array([[0.3 * u]]), sp1,
         ScalarPath(eval=stacked(lambda t: t ** 3 - t),
                    deriv=stacked(lambda t: 3 * t * t - 1.0)), -1.0, 1.0),
    ]
    worst = 0.0
    for B, space, f, s, t in cases:
        worst = max(worst, substitution_check(stacked(B), f, s, t, space,
                                              tol=1e-10))
    ok = worst <= 1e-6
    _line(7, ok, f"10 coefficient/path pairs, worst substitution defect "
                 f"{worst:.2e} <= 1e-6")


def test_criterion_08_change_of_variables():
    tri = make_scalar_path("sawtooth", Interval(0.0, 10.0))
    kinked = ScalarPath(eval=stacked(abs), deriv=_SIGN, breakpoints=(0.0,))
    cases = [
        (lambda u: u, ScalarPath(eval=np.sin, deriv=np.cos), 0.0,
         math.pi / 2),
        (lambda u: u * u, ScalarPath(eval=np.sin, deriv=np.cos),
         0.0, 5.0),
        (lambda u: np.array([math.exp(u), 0.0]),
         ScalarPath(eval=lambda t: t * t, deriv=lambda t: 2 * t), 0.0, 1.0),
        (lambda u: math.cos(3 * u), kinked, -1.0, 2.0),
        (lambda u: np.array([u, u * u, 1.0]), kinked, -2.0, 1.0),
        (lambda u: math.exp(-u), tri, 0.0, 9.0),
        (lambda u: np.array([u, math.sin(u)]), tri, 0.5, 7.5),
        (lambda u: 1.0 / (1.0 + u * u),
         ScalarPath(eval=stacked(lambda t: 2.0 * math.sin(t)),
                    deriv=stacked(lambda t: 2.0 * math.cos(t))), 0.0, 6.0),
        (lambda u: u ** 3, ScalarPath(eval=lambda t: np.full_like(t, 0.8),
                                      deriv=np.zeros_like),
         -1.0, 4.0),
        (lambda u: math.atan(u),
         ScalarPath(eval=stacked(lambda t: t ** 3 - t),
                    deriv=stacked(lambda t: 3 * t * t - 1.0)), -1.2, 1.2),
    ]
    worst = 0.0
    for y, f, s, t in cases:
        worst = max(worst, cov_check(y, f, s, t, tol=1e-9).defect)
    ok = worst <= 1e-8
    _line(8, ok, f"10 integrand/path pairs, worst change-of-variables "
                 f"defect {worst:.2e} <= 1e-8")


def _acceptance_connections():
    """Ten bounded connections on a fixed rectangle."""
    M, J = Interval(-2.0, 2.0), Interval(-1.5, 1.5)
    sp = VectorSpaceSpec(2)
    out = [
        make_connection("zero", M, J),
        make_connection("scalar-decay", M, J),
        make_connection("gauge-rotation", M, J),
        make_connection("gauge-twist", M, J),
        make_connection("mixed-bounded", M, J),
    ]
    for c1, c2 in ((0.15, 0.1), (0.4, 0.05), (0.1, 0.25), (0.25, 0.2),
                   (0.05, 0.3)):
        def w1(x, u, _c=c1):
            return _c * np.array([[math.cos(u), math.sin(x)],
                                  [-math.sin(x), math.sin(u)]])

        def w2(x, u, _c=c2):
            return _c * np.array([[math.sin(x + u), 0.0],
                                  [0.0, math.cos(x)]])

        def d1_w2(x, u, _c=c2):
            return _c * np.array([[math.cos(x + u), 0.0],
                                  [0.0, -math.sin(x)]])

        out.append(ConnectionForm(omega1=pointwise(w1),
                                  omega2=pointwise(w2), m_interval=M,
                                  j_interval=J, space=sp,
                                  d1_omega2=pointwise(d1_w2)))
    return out


def _curve_family(count=20):
    """Piecewise-smooth curves inside [-2,2] x [-1.5,1.5]."""
    out = []
    for i in range(count):
        span = 0.8 + 0.06 * i
        freq = 1.0 + (i % 5)
        amp = 0.4 + 0.05 * (i % 7)
        phase = 0.3 * i
        g1 = ScalarPath(
            eval=stacked(lambda t, _s=span: 1.6 * (t / _s) - 0.8),
            deriv=stacked(lambda t, _s=span: 1.6 / _s),
        )
        g2 = ScalarPath(
            eval=stacked(lambda t, _f=freq, _a=amp, _p=phase:
                _a * math.sin(_f * math.pi * t + _p)),
            deriv=stacked(lambda t, _f=freq, _a=amp, _p=phase:
                _a * _f * math.pi * math.cos(_f * math.pi * t + _p)),
        )
        out.append(Curve(g1, g2, 0.0, span))
    return out


def test_criterion_09_transport_bound():
    connections = _acceptance_connections()
    curves = _curve_family(20)
    assert len(connections) == 10
    ok = True
    worst_ratio = 0.0
    for w in connections:
        bounds = sample_connection_bounds(w)
        for curve in curves:
            p = parallel_transport(w, curve, tol=1e-9)
            L1 = arc_length(curve.gamma1, curve.a, curve.b)
            cap = beta_bound(bounds, L1)
            val = matrix_norm(p.entries, w.space.norm_kind)
            ok = ok and val <= cap * (1.0 + 1e-6)
            if math.isfinite(cap):
                worst_ratio = max(worst_ratio, val / cap)
    # tenfold fiber oscillation leaves the certified bound input-identical
    w = connections[4]
    bounds = sample_connection_bounds(w)
    slow, fast = _oscillation_pair(1.0), _oscillation_pair(10.0)
    L_slow = arc_length(slow.gamma1, slow.a, slow.b)
    L_fast = arc_length(fast.gamma1, fast.a, fast.b)
    ok = ok and (beta_bound(bounds, L_slow) == beta_bound(bounds, L_fast))
    for curve in (slow, fast):
        p = parallel_transport(w, curve, tol=1e-9)
        ok = ok and matrix_norm(p.entries, "euclidean") <= \
            beta_bound(bounds, L_slow) * (1.0 + 1e-6)
    _line(9, ok, f"10 connections x 20 curves dominated by the certified "
                 f"bound (worst ratio {worst_ratio:.3f}); bound is blind to "
                 "fiber oscillation")


def _oscillation_pair(freq):
    g1 = ScalarPath(eval=lambda t: t - 0.5, deriv=np.ones_like)
    g2 = ScalarPath(
        eval=stacked(lambda t, _f=freq: 0.5 * math.sin(_f * math.pi * t)),
        deriv=stacked(lambda t, _f=freq: 0.5 * _f * math.pi
        * math.cos(_f * math.pi * t)),
    )
    return Curve(g1, g2, 0.0, 1.0)


def test_criterion_10_topologists_sine_curve():
    b_list = [-1e-1, -1e-2, -1e-3, -1e-4]
    v = Vector(np.array([1.0, 0.5]), VectorSpaceSpec(2))
    ok = True
    notes = []
    for name in ("zero", "scalar-decay", "gauge-rotation", "gauge-twist"):
        w = make_connection(name)
        report = sine_curve_scenario(w, -1.0, b_list, v, tol=1e-8)
        ok = ok and report.passed
        ratios = [row.ratio for row in report.rows]
        notes.append(f"{name}: C={report.bound:.3f}, "
                     f"ratios {min(ratios):.3f}..{max(ratios):.3f}")
    _line(10, ok, "two-sided bound holds down to b = -1e-4 for every "
                  "corpus connection (" + "; ".join(notes) + ")")


def test_criterion_11_extension():
    ok = True
    notes = []
    for name in ("extension-gauge", "extension-twist"):
        p = make_extension_problem(name)
        M, J = p.omega.m_interval, p.omega.j_interval
        xs = np.concatenate([
            np.linspace(M.lo + 0.2, p.a - 0.2, 6),
            np.linspace(p.a + 1e-3, M.hi - 0.2, 14),
        ])
        vs = np.linspace(J.lo + 0.2, J.hi - 0.2, 15)
        sigma = build_sigma(p, xs, vs, tol=1e-10)
        result = extend_section(p, sigma, tol=1e-10)
        ok = ok and sigma.verified and result.accepted
        ok = ok and result.max_gap <= 1e-6
        worst_oracle = 0.0
        for ix, x in enumerate(xs):
            for iv, u in enumerate(vs):
                oracle = extension_gauge_oracle(x, u, name, p.p_ref,
                                                p.sigma_seed)
                worst_oracle = max(worst_oracle, float(np.max(
                    np.abs(result.xi0[ix, iv] - oracle))))
        # points on the graph itself
        for x in xs[8:14]:
            u = p.f(x)
            val = section_at(p, sigma, x, u)
            oracle = extension_gauge_oracle(x, u, name, p.p_ref, p.sigma_seed)
            worst_oracle = max(worst_oracle,
                               float(np.max(np.abs(val - oracle))))
        ok = ok and worst_oracle <= 1e-6
        notes.append(f"{name}: gap {result.max_gap:.2e}, "
                     f"oracle defect {worst_oracle:.2e}")
    _line(11, ok, "extensions agree across the graph and match the gauge "
                  "oracle (" + "; ".join(notes) + ")")


def test_criterion_12_polynomial_graph_approx():
    cases = [
        (lambda t: 1.7, Interval(0.0, 1.0), 0.4, 0.1),
        (lambda t: 2.0 * t - 0.5, Interval(0.0, 1.0), 0.8, 0.2),
        (lambda t: math.sin(1.0 / t), Interval(0.05, 1.0), 0.5, 0.1),
        (lambda t: abs(t - 0.3), Interval(0.0, 1.0), 0.25, 0.2),
        (lambda t: math.exp(math.sin(3.0 * t)), Interval(0.0, 2.0), 1.0,
         0.05),
    ]
    ok = True
    notes = []
    for f, interval, b, tube in cases:
        ap = polynomial_graph_approx(f, interval, b, tube)
        anchor_err = abs(ap(b) - f(b))
        ts = np.linspace(interval.lo, interval.hi, 10_000)
        sup = float(np.max(np.abs(ap(ts) - np.array([f(t) for t in ts]))))
        ok = ok and anchor_err <= 1e-12 * max(1.0, abs(f(b))) and sup < tube
        notes.append(f"deg {ap.degree}, sup {sup:.3g} < {tube}")
    _line(12, ok, "anchor matched to machine precision and tube bound "
                  "verified on 10^4-point grids (" + "; ".join(notes) + ")")


def test_criterion_13_determinism(tmp_path):
    ok = True
    for name in ("intro-cos", "extension-gauge"):
        kind, config = BUILTIN_SCENARIOS[name]
        blobs = []
        for attempt in ("x", "y"):
            report = run_scenario(kind, config, seed=7)
            csv_path, _ = emit_report(report, tmp_path / f"{name}-{attempt}")
            blobs.append(csv_path.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    _line(13, ok, "re-running built-in scenarios with a fixed seed "
                  "reproduces byte-identical CSV")
