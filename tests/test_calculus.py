import dataclasses
import heapq
import math

import numpy as np
import pytest

from evostab.calculus import (
    _GAUSS_ROW,
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_ROW,
    _KRONROD_WEIGHTS,
    CovCheckResult,
    Interval,
    OperatorField,
    Partition,
    QuadStats,
    ScalarPath,
    arc_length,
    cov_check,
    integrate,
    l1_norm_in_u,
    pointwise,
    stacked,
    total_variation_path,
    tv_l1_upper_bound,
    _gk15,
    _initial_cuts,
    _integrate_nodes,
    _oriented,
    _segment_total,
)
from evostab.errors import (DomainViolationError, ExpressionError,
                            QuadratureError)
from evostab.expressions import parse_expression
from evostab.harness import _SYSTEM, _read
from evostab.library import make_scalar_path, make_system
from evostab.operators import VectorSpaceSpec, matrix_norm
from evostab.stability import SeparableSystem, certify


# ---------------------------------------------------------------------------
# intervals, partitions, paths


def test_interval_basics():
    i = Interval(0.0, 2.5)
    assert i.length() == 2.5
    assert i.contains(0.0) and i.contains(2.5) and not i.contains(2.6)
    assert Interval(-math.inf, 0.0).is_finite() is False
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


def test_partition_mesh():
    p = Partition((0.0, 0.5, 2.0))
    assert p.n == 2
    assert p.mesh() == 1.5
    assert Partition((3.0,)).mesh() == 0.0
    with pytest.raises(ValueError):
        Partition((0.0, 0.0, 1.0))
    assert Partition.uniform(0.0, 1.0, 4).mesh() == pytest.approx(0.25)


# the derivative of abs, which the breakpoint at 0 leaves unevaluated there
_SIGN = stacked(lambda t: math.copysign(1.0, t))


def test_scalar_path_derivative_is_its_deriv():
    f = ScalarPath(eval=stacked(lambda t: t * t), deriv=stacked(lambda t: 2 * t))
    assert f.d(1.5) == 3.0
    g = ScalarPath(eval=stacked(math.sin), deriv=stacked(math.cos))
    assert g.d(0.7) == math.cos(0.7)
    with pytest.raises(TypeError, match="deriv"):
        ScalarPath(eval=stacked(math.sin))


def test_scalar_path_derivative_is_zero_at_breakpoints():
    f = ScalarPath(eval=stacked(abs), deriv=_SIGN, breakpoints=(0.0,))
    assert f.d(0.0) == 0.0
    assert f.d(1.0) == 1.0
    assert f.d(-1.0) == -1.0


def test_scalar_path_derivative_matches_linear_breakpoint_scan():
    f = make_scalar_path("sawtooth", Interval(0.0, math.inf))
    bps = f.breakpoints
    assert len(bps) == 512

    def linear_scan_d(t):
        for b in bps:
            if abs(t - b) <= 1e-14 * max(1.0, abs(b)):
                return 0.0
        return f.deriv(np.array([t]))[0]

    ts = [-1.0, 0.0, bps[-1] + 1.0]
    for b in bps:
        for k in (0.0, 0.5, 1.0, 1.5):
            ts += [b - k * 1e-14 * b, b + k * 1e-14 * b]
        ts += [math.nextafter(b, -math.inf), math.nextafter(b, math.inf),
               b + 1.0]
    want = [linear_scan_d(t) for t in ts]
    for t, d in zip(ts, want):
        assert f.d(t) == d, t
    assert f.d_many(np.array(ts)).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_sin():
    assert integrate(math.sin, Interval(0.0, math.pi)) == pytest.approx(
        2.0, abs=1e-10)


def test_integrate_zero():
    assert integrate(lambda t: 0.0, Interval(-3.0, 5.0)) == 0.0


def test_integrate_abs_cos_four_periods():
    val = integrate(lambda t: abs(math.cos(t)), Interval(0.0, 4 * math.pi))
    assert val == pytest.approx(8.0, abs=1e-9)


def test_integrate_with_breakpoints_pre_splits():
    bps = [k * math.pi / 2 for k in range(1, 8, 2)]
    val = integrate(lambda t: abs(math.cos(t)), Interval(0.0, 4 * math.pi),
                    breakpoints=bps)
    assert val == pytest.approx(8.0, abs=1e-10)


def test_integrate_vector_valued():
    val = integrate(lambda t: np.array([math.sin(t), math.cos(t)]),
                    Interval(0.0, math.pi / 2))
    assert np.allclose(val, [1.0, 1.0], atol=1e-10)


def test_integrate_empty_interval():
    assert integrate(math.sin, Interval(1.0, 1.0)) == 0.0


def test_integrate_unbounded_interval_rejected():
    with pytest.raises(DomainViolationError):
        integrate(math.sin, Interval(0.0, math.inf))


def test_non_finite_integrand_raises_naming_its_panel():
    # a NaN error estimate never exceeds tol, so without the check the
    # refinement would stop and return NaN
    with pytest.raises(QuadratureError,
                       match=r"non-finite integrand on the panel \[0, 1\]"):
        integrate(lambda t: math.nan if t > 0.5 else 1.0, Interval(0, 1))
    with pytest.raises(QuadratureError, match=r"panel \[0.0, 2.0\]"):
        integrate(lambda t: np.array([1.0, math.nan]), Interval(0.0, 2.0))


def _nan_system(bad, u_independent):
    # G is 1, and NaN where bad(t); so is its t-derivative, 0 and NaN
    G = OperatorField(eval=pointwise(
        lambda t, u: np.array([[math.nan if bad(t) else 1.0]])),
        space=VectorSpaceSpec(1), partial_t=pointwise(
            lambda t, u: np.array([[math.nan if bad(t) else 0.0]])),
        u_independent=u_independent)
    return SeparableSystem(G=G, f=make_scalar_path("sin", Interval(0, 1)),
                           I=Interval(0, 1), J=Interval(-1, 1), space=G.space)


def test_certify_of_a_non_finite_field_raises_quadrature_error():
    # G = NaN for t > 1/2 depends on u as far as certify knows, so its
    # gain is a family of u-integrals: the first family over the whole
    # window meets the NaN on the u-panel [-1, 1]
    with pytest.raises(QuadratureError, match=r"panel \[-1, 1\]"):
        certify(_nan_system(lambda t: t > 0.5, False), Interval(0, 1))
    # declared u-independent, its gain is |G| times the length of J, and
    # its variation integrates the derivative: the first panel over the
    # whole window meets the NaN at its nodes past t = 1/2, or at its
    # centre t = 1/2
    for bad in (lambda t: t > 0.5, lambda t: t == 0.5):
        with pytest.raises(QuadratureError, match=r"panel \[0, 1\]"):
            certify(_nan_system(bad, True), Interval(0, 1))
    # a NaN that only the sampled sup sees (no node of that panel lies in
    # (1/2, 0.55), and the derivative is 0 at all of them, so the panel
    # is not split; t = 0.53125 is a point of the sup's second grid): the
    # window is named, and no certificate comes out
    with pytest.raises(QuadratureError,
                       match=r"non-finite certificate on the window "
                             r"\[0, 1\]: sup of the L1 norm nan"):
        certify(_nan_system(lambda t: 0.5 < t < 0.55, True), Interval(0, 1))


def test_quadrature_failure_carries_best_estimate():
    # highly oscillatory with a tiny segment budget
    with pytest.raises(QuadratureError) as err:
        integrate(lambda t: math.sin(500.0 * t), Interval(0.0, 10.0),
                  tol=1e-14, max_segments=8)
    assert err.value.error_bound > 1e-14
    assert math.isfinite(err.value.best_estimate)


def test_signed_integrate_orientation():
    fwd = _oriented(integrate, math.cos, 0.0, math.pi / 2)
    back = _oriented(integrate, math.cos, math.pi / 2, 0.0)
    assert fwd == pytest.approx(1.0, abs=1e-10)
    assert back == pytest.approx(-1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# L1-in-u norms


def test_l1_norm_constant_unit_field():
    sp = VectorSpaceSpec(1)
    G = OperatorField(eval=pointwise(lambda t, u: np.array([[1.0]])), space=sp,
                      partial_t=pointwise(lambda t, u: np.array([[0.0]])))
    assert l1_norm_in_u(G, 0.0, Interval(0.0, 2.0)) == pytest.approx(2.0)


def test_l1_norm_linear_field():
    sp = VectorSpaceSpec(1)
    G = OperatorField(eval=pointwise(lambda t, u: np.array([[u]])), space=sp,
                      partial_t=pointwise(lambda t, u: np.array([[0.0]])))
    assert l1_norm_in_u(G, 0.0, Interval(0.0, 1.0)) == pytest.approx(0.5)


def _midpoint_l1_oracle(field, t, J, panels=1_000_000):
    """Independent check: fixed-panel midpoint rule, vectorized over a
    stacked batch of matrices."""
    us = J.lo + (np.arange(panels) + 0.5) * (J.length() / panels)
    mats = field.eval(t, us[::1000])
    # u-independent fields: all slices coincide, integral is exact
    if np.max(np.abs(mats - mats[0])) == 0.0:
        return J.length() * np.linalg.svd(mats[0], compute_uv=False)[0]
    mats = field.eval(t, us)
    norms = np.linalg.svd(mats, compute_uv=False)[:, 0]
    return float(norms.sum() * (J.length() / panels))


def test_l1_norm_example_field_matches_midpoint_oracle():
    field = make_system("example39").G
    J = Interval(-1.0, 1.0)
    oracle = _midpoint_l1_oracle(field, 0.0, J)
    # quadrature route (flag stripped) and shortcut route must both agree
    raw = dataclasses.replace(field, u_independent=False)
    assert l1_norm_in_u(raw, 0.0, J, tol=1e-10) == pytest.approx(
        oracle, abs=1e-8)
    assert l1_norm_in_u(field, 0.0, J) == pytest.approx(oracle, abs=1e-12)


def test_l1_norm_u_dependent_field_matches_midpoint_oracle():
    sp = VectorSpaceSpec(2)

    def ev(t, u):
        return np.array([[math.sin(u), 0.3], [0.0, math.cos(u) * u]])

    G = OperatorField(eval=pointwise(ev), space=sp,
                      partial_t=pointwise(lambda t, u: np.zeros((2, 2))))
    J = Interval(-1.0, 1.0)
    oracle = _midpoint_l1_oracle(G, 0.0, J, panels=200_000)
    assert l1_norm_in_u(G, 0.0, J, tol=1e-10) == pytest.approx(
        oracle, abs=1e-7)


# ---------------------------------------------------------------------------
# total variation


def test_variation_constant_is_zero():
    val = total_variation_path(stacked(lambda t: np.zeros((2, 2))),
                               Interval(0.0, 5.0))
    assert val == 0.0


def test_variation_linear_scalar():
    val = total_variation_path(lambda ts: np.ones((len(ts), 1, 1)),
                               Interval(0.0, 3.0))
    assert val == pytest.approx(3.0, abs=1e-10)


def test_variation_sine_four_quarter_waves():
    val = total_variation_path(lambda ts: np.cos(ts)[:, None, None],
                               Interval(0.0, 2 * math.pi))
    assert val == pytest.approx(4.0, abs=1e-9)


def test_unbounded_variation_gives_no_value():
    # (t - 1/3) sin(1/(t - 1/3)) has unbounded variation: its exact
    # derivative sin(1/s) - cos(1/s)/s, s = t - 1/3, is not integrable
    # in norm, so the panels home in on the tip, where the derivative is
    # not finite, and no value comes out
    def wobble_dt(ts):
        s = ts - 1.0 / 3.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.sin(1.0 / s) - np.cos(1.0 / s) / s)[:, None, None]

    with pytest.raises(QuadratureError, match=r"non-finite integrand on the "
                                              r"panel \[0\.333"):
        total_variation_path(wobble_dt, Interval(0.0, 1.0))


# ---------------------------------------------------------------------------
# variation upper bound in the L1 metric


def test_tv_l1_bound_time_independent_is_zero():
    sp = VectorSpaceSpec(1)
    G = OperatorField(eval=pointwise(lambda t, u: np.array([[u]])), space=sp,
                      partial_t=pointwise(lambda t, u: np.array([[0.0]])))
    assert tv_l1_upper_bound(G, Interval(0.0, 1.0), Interval(0.0, 2.0)) == 0.0


def test_tv_l1_bound_linear_in_t():
    sp = VectorSpaceSpec(1)
    G = OperatorField(eval=pointwise(lambda t, u: np.array([[t]])), space=sp,
                      partial_t=pointwise(lambda t, u: np.array([[1.0]])))
    val = tv_l1_upper_bound(G, Interval(0.0, 1.0), Interval(0.0, 2.0))
    assert val == pytest.approx(2.0, abs=1e-9)


def test_tv_l1_bound_dominates_partition_sum():
    sp = VectorSpaceSpec(2)

    def ev(t, u):
        return np.array([[2 * math.atan(t) + 0.1 * u, 0.2],
                         [0.1 * math.sin(u), math.exp(-t)]])

    def d1(t, u):
        return np.array([[2.0 / (1 + t * t), 0.0],
                         [0.0, -math.exp(-t)]])

    G = OperatorField(eval=pointwise(ev), space=sp, partial_t=pointwise(d1))
    I, J = Interval(0.0, 4.0), Interval(-1.0, 1.0)
    bound = tv_l1_upper_bound(G, I, J, tol=1e-8)
    # partition-sum lower estimate of the L1 variation on 2^10 points
    ts = np.linspace(I.lo, I.hi, 1025)

    def l1_dist(t1, t2):
        return integrate(
            lambda u: np.linalg.svd(ev(t2, u) - ev(t1, u),
                                    compute_uv=False)[0],
            J, tol=1e-9)

    part = sum(l1_dist(a, b) for a, b in zip(ts[:-1:64], ts[64::64]))
    assert bound >= part - 1e-8


# ---------------------------------------------------------------------------
# arc length


def test_arc_length_identity_path():
    g = ScalarPath(eval=stacked(lambda t: t), deriv=stacked(lambda t: 1.0))
    assert arc_length(g, -1.0, 4.0) == pytest.approx(5.0, abs=1e-10)


def test_arc_length_constant_path():
    g = ScalarPath(eval=stacked(lambda t: 2.0), deriv=stacked(lambda t: 0.0))
    assert arc_length(g, 0.0, 10.0) == 0.0


def test_arc_length_sine():
    g = ScalarPath(eval=stacked(math.sin), deriv=stacked(math.cos))
    assert arc_length(g, 0.0, 2 * math.pi) == pytest.approx(4.0, abs=1e-9)


def test_arc_length_vector_path():
    g = ScalarPath(
        eval=stacked(lambda t: np.array([math.cos(t), math.sin(t)])),
        deriv=stacked(lambda t: np.array([-math.sin(t), math.cos(t)])))
    assert arc_length(g, 0.0, math.pi) == pytest.approx(math.pi, abs=1e-10)


# ---------------------------------------------------------------------------
# change of variables


def test_cov_check_sine_substitution():
    f = ScalarPath(eval=stacked(math.sin), deriv=stacked(math.cos))
    res = cov_check(lambda u: u, f, 0.0, math.pi / 2)
    assert float(res.lhs) == pytest.approx(0.5, abs=1e-10)
    assert float(res.rhs) == pytest.approx(0.5, abs=1e-10)
    assert res.defect <= 1e-9


def test_cov_check_constant_path_is_zero():
    f = ScalarPath(eval=stacked(lambda t: 0.7), deriv=stacked(lambda t: 0.0))
    res = cov_check(lambda u: u * u, f, -1.0, 3.0)
    assert float(res.lhs) == 0.0
    assert float(res.rhs) == 0.0
    assert res.defect == 0.0


def test_cov_check_vector_valued_closed_form():
    f = ScalarPath(eval=lambda t: t * t, deriv=lambda t: 2.0 * t)
    res = cov_check(lambda u: np.array([math.exp(u), 0.0]), f, 0.0, 1.0)
    assert res.lhs[0] == pytest.approx(math.e - 1.0, abs=1e-9)
    assert res.lhs[1] == 0.0
    assert res.defect <= 1e-9
    assert isinstance(res, CovCheckResult)


def test_cov_check_non_monotone_and_kinked_paths():
    # non-monotone: f = sin over a span with turning points
    f = ScalarPath(eval=stacked(math.sin), deriv=stacked(math.cos))
    res = cov_check(lambda u: math.cos(3.0 * u) + u, f, 0.0, 5.0)
    assert res.defect <= 1e-9
    # kinked: f = |t| with a declared breakpoint
    g = ScalarPath(eval=stacked(abs), deriv=_SIGN, breakpoints=(0.0,))
    res2 = cov_check(lambda u: u * u + 1.0, g, -1.0, 2.0)
    assert res2.defect <= 1e-9
    # reversed orientation flips both sides
    res3 = cov_check(lambda u: u * u + 1.0, g, 2.0, -1.0)
    assert res3.defect <= 1e-9
    assert float(res3.lhs) == pytest.approx(-float(res2.lhs), abs=1e-9)


# ---------------------------------------------------------------------------
# panel-wise evaluation of the u-integrals

CERTIFY_EXPR = {"G": [["atan(t)*u", "0.1*u"], ["sin(t*u)", "exp(-t)"]],
                "f": "sin(3*t)", "J": [-1.0, 1.0], "norm": "euclidean"}


def _expr_system_pair():
    """The expression field as the config builds it, numpy over arrays,
    and the same field evaluated one point at a time by the scalar
    ``math`` evaluators of its entries."""
    bag = []
    batched = _read(_SYSTEM, dict(CERTIFY_EXPR), bag)
    assert not bag
    entries = [[parse_expression(s) for s in row] for row in CERTIFY_EXPR["G"]]
    one = pointwise(lambda t, u: np.array([[e(t, u) for e in row]
                                           for row in entries]))
    return batched, dataclasses.replace(
        batched, G=dataclasses.replace(batched.G, eval=one))


def test_gk15_panel_matches_tensordot_reference():
    rng = np.random.default_rng(5)
    for shape in [(), (3,), (2, 2), (4, 4, 2)]:
        vals = rng.standard_normal((15,) + shape)
        [(k, err, _)] = _gk15(lambda xs: vals, (-0.3, 1.1))
        h = 0.5 * (1.1 - -0.3)
        k_ref = h * np.tensordot(_KRONROD_WEIGHTS, vals, axes=(0, 0))
        g_ref = h * np.tensordot(_GAUSS_WEIGHTS, vals[1::2], axes=(0, 0))
        assert np.array_equal(k, k_ref)
        assert err == float(np.max(np.abs(k_ref - g_ref)))


def test_expression_field_stacks_match_pointwise_evaluation():
    batched, pointwise = _expr_system_pair()
    us = np.linspace(-1.0, 1.0, 15)
    for t in (0.0, 0.7, 1.9):
        a, b = batched.G.eval(t, us), pointwise.G.eval(t, us)
        assert a.shape == b.shape == (15, 2, 2)
        np.testing.assert_allclose(a, b, rtol=1e-15, atol=1e-300)
        np.testing.assert_allclose(batched.G.d1_many(t, us),
                                   pointwise.G.d1_many(t, us),
                                   rtol=1e-9, atol=1e-9)


def test_batched_u_integrals_match_pointwise_on_expression_field():
    batched, pointwise = _expr_system_pair()
    J = batched.J
    for t in (0.0, 0.55, 1.3, 2.0):
        assert l1_norm_in_u(batched.G, t, J, 1e-8) == pytest.approx(
            l1_norm_in_u(pointwise.G, t, J, 1e-8), rel=1e-11)
    window = Interval(0.0, 2.0)
    assert tv_l1_upper_bound(batched.G, window, J, 1e-8) == pytest.approx(
        tv_l1_upper_bound(pointwise.G, window, J, 1e-8), rel=1e-11)


def test_certify_of_expression_field_keeps_grid_gain_and_provenance():
    batched, pointwise = _expr_system_pair()
    window = Interval(0.0, 2.0)
    a, b = certify(batched, window, 1e-8), certify(pointwise, window, 1e-8)
    assert a.sup_grid == b.sup_grid
    assert a.provenance == b.provenance == "grid-sampled"
    assert math.log(a.gain) == pytest.approx(math.log(b.gain), rel=1e-12)
    assert a.variation == pytest.approx(b.variation, rel=1e-11)


def test_batched_path_derivative_keeps_the_breakpoint_rule():
    # d_many is 0 within 1e-14 relative of a breakpoint, as at the stage
    # times that land exactly on a segment end, and deriv elsewhere; d(t)
    # is its row at the one time
    bps = (-3.0, 0.0, 2.5, 1e3)
    ts = np.concatenate([
        np.array(bps), np.array(bps) * (1 + 5e-15) + 5e-15,
        np.array(bps) + 1e-9, np.linspace(-4.0, 1e3 + 1.0, 97)])

    def snapped(t):
        return any(abs(t - b) <= 1e-14 * max(1.0, abs(b)) for b in bps)

    want = np.array([0.0 if snapped(t) else math.cos(t)
                     for t in ts.tolist()])
    for path in (ScalarPath(eval=np.sin, deriv=np.cos, breakpoints=bps),
                 ScalarPath(eval=stacked(math.sin), deriv=stacked(math.cos),
                            breakpoints=bps)):
        assert path.d_many(ts).tobytes() == want.tobytes()
        assert np.count_nonzero(path.d_many(ts)[:8]) == 0
        assert np.array([path.d(t) for t in ts.tolist()]).tobytes() \
            == want.tobytes()
        assert path.eval(ts).tobytes() == np.array(
            [path(t) for t in ts.tolist()]).tobytes()


def test_interval_first_outside_agrees_with_contains():
    box = Interval(-1.0, 2.0)
    ts = np.array([0.0, 2.0 + 1e-12, -1.0 - 3e-12, 5.0, math.nan])
    rejected = [i for i, t in enumerate(ts.tolist())
                if not box.contains(t, 1e-12 * max(1.0, abs(t)))]
    assert rejected == [2, 3, 4]
    assert box.first_outside(ts, 1e-12) == 2
    assert box.first_outside(ts[:2], 1e-12) is None
    assert box.first_outside(ts[4:], 1e-12) == 0


def test_l1_norm_over_an_array_of_times_matches_each_time():
    # the family shares its panels, so each member may be refined past
    # its own need; every member stays within tol of its own integral
    batched, _ = _expr_system_pair()
    J, tol = batched.J, 1e-8
    ts = np.array([0.0, 0.3, 0.55, 1.3, 1.7, 2.0])
    family = l1_norm_in_u(batched.G, ts, J, tol)
    assert family.shape == ts.shape
    for t, value in zip(ts, family):
        assert abs(value - l1_norm_in_u(batched.G, float(t), J, tol)) <= tol
    # a scalar time is row 0 of the one-time array
    assert l1_norm_in_u(batched.G, 0.55, J, tol) == \
        l1_norm_in_u(batched.G, np.array([0.55]), J, tol)[0]


def test_tv_l1_bound_of_expression_field_matches_scipy_nquad():
    from scipy import integrate as sp_integrate

    # d/dt G = [[u/(1+t^2), 0], [u cos(t u), -exp(-t)]]
    def norm_dG(u, t):
        m = np.array([[u / (1.0 + t * t), 0.0],
                      [u * math.cos(t * u), -math.exp(-t)]])
        return np.linalg.svd(m, compute_uv=False)[0]

    ref, _ = sp_integrate.nquad(norm_dG, [[-1.0, 1.0], [0.0, 2.0]],
                                opts={"epsabs": 1e-13, "epsrel": 1e-13,
                                      "limit": 200})
    batched, _ = _expr_system_pair()
    val = tv_l1_upper_bound(batched.G, Interval(0.0, 2.0), batched.J, 1e-8)
    assert val == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# one integrand call per bisection, bit for bit with one call per panel


def _gk15_one_panel(gv, a, b, stats=None):
    """The Gauss-Kronrod panel as it was when each panel took a call of
    its own: the oracle of the batched panels."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    stacked = np.asarray(gv(c + h * _KRONROD_NODES), dtype=float)
    shape = stacked.shape[1:]
    k = h * np.dot(_KRONROD_ROW, stacked.reshape(15, -1)).reshape(shape)
    g7 = h * np.dot(_GAUSS_ROW, stacked[1::2].reshape(7, -1)).reshape(shape)
    err = float(np.max(np.abs(k - g7)))
    if not math.isfinite(err):
        raise QuadratureError(
            f"non-finite integrand on the panel [{a}, {b}]", k, err)
    if stats is not None:
        stats.quad_panels += 1
        stats.quad_nodes += stacked.size
    return k, err


def _integrate_one_call_per_panel(gv, interval, breakpoints=(), tol=1e-10,
                                  max_segments=4096, stats=None):
    """``_integrate_nodes`` as it was with one integrand call per panel."""
    lo, hi = interval.lo, interval.hi
    cuts = _initial_cuts(lo, hi, breakpoints)
    heap, seg_values, counter, total_err = [], {}, 0, 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, err = _gk15_one_panel(gv, a, b, stats)
        heapq.heappush(heap, (-err, counter, a, b))
        seg_values[counter] = (val, err)
        counter += 1
        total_err += err
    while total_err > tol:
        if len(heap) >= max_segments:
            raise QuadratureError(
                f"quadrature did not converge: error bound {total_err:.3e} "
                f"> tol {tol:.3e} with {len(heap)} segments",
                _segment_total(seg_values), total_err,
            )
        _, idx, a, b = heapq.heappop(heap)
        total_err -= seg_values.pop(idx)[1]
        m = 0.5 * (a + b)
        for lo2, hi2 in ((a, m), (m, b)):
            val, err = _gk15_one_panel(gv, lo2, hi2, stats)
            heapq.heappush(heap, (-err, counter, lo2, hi2))
            seg_values[counter] = (val, err)
            counter += 1
            total_err += err
    total = _segment_total(seg_values)
    return float(total) if np.ndim(total) == 0 else total


def _double_integral_one_call_per_panel(G, I, J, tol, stats):
    """``tv_l1_upper_bound`` of a u-dependent field on the oracle."""
    inner_tol = tol / (100.0 * max(I.length(), 1.0))
    kind = G.space.norm_kind

    def inner(ts):
        return _integrate_one_call_per_panel(
            lambda us: matrix_norm(G.d1_many(ts, us[:, None]), kind),
            J, (), inner_tol, stats=stats)

    return _integrate_one_call_per_panel(inner, I, G.t_breakpoints, tol,
                                         stats=stats)


def _outcome(quad, *args, **kwargs):
    """What a quadrature leaves: the bytes and shape of its value and its
    counters, or the type, message, estimate and bound of its error."""
    stats = QuadStats()
    try:
        value = np.asarray(quad(*args, stats=stats, **kwargs))
    except (QuadratureError, ExpressionError, ValueError) as e:
        extra = (tuple(np.asarray(v, dtype=float).tobytes()
                       for v in (e.best_estimate, e.error_bound))
                 if isinstance(e, QuadratureError) else ())
        return "raised", type(e), str(e), extra, stats
    return "value", value.tobytes(), value.shape, stats


def _assert_same_outcome(gv, interval, *args, **kwargs):
    calls = []

    def counted(xs):
        calls.append(len(xs))
        return gv(xs)

    got = _outcome(_integrate_nodes, counted, interval, *args, **kwargs)
    want = _outcome(_integrate_one_call_per_panel, gv, interval, *args,
                    **kwargs)
    assert got == want
    return got, calls


def _split_hit(right=None, left=None):
    """An integrand on [0, 1] that needs a split, which is NaN or raises
    ("nan", "raise") at 0.75 as ``right`` says, and at 0.25 as ``left``
    says: the centres of the halves, neither a node of the panel [0, 1]."""
    def gv(xs):
        out = np.sin(40.0 * xs)
        for x, what, side in ((0.25, left, "left"), (0.75, right, "right")):
            if what == "raise" and (xs == x).any():
                raise ExpressionError(f"the {side} half raised")
            if what == "nan":
                out = np.where(xs == x, math.nan, out)
        return out
    return gv


# the comparisons run under the repository's error::RuntimeWarning filter:
# none of these integrands may warn, on either route

def test_batched_panels_match_one_call_per_panel_on_smooth_integrands():
    got, calls = _assert_same_outcome(
        lambda xs: np.exp(-xs) * np.sin(3.0 * xs), Interval(0.0, 5.0), (),
        1e-13)
    # one call for the first panel, then one per bisection, of both halves
    assert calls[0] == 15 and set(calls[1:]) == {30}
    assert got[-1].quad_panels == 2 * len(calls) - 1
    # a family of three integrals on shared panels
    _assert_same_outcome(
        lambda xs: np.stack([np.sin(k * xs) / (1.0 + xs * xs)
                             for k in (1.0, 2.5, 7.0)], axis=-1),
        Interval(-2.0, 3.0), (), 1e-12)


def test_batched_panels_match_one_call_per_panel_from_breakpoints():
    kinks = [math.pi / 2 + k * math.pi for k in range(4)]
    got, calls = _assert_same_outcome(
        lambda xs: np.abs(np.cos(xs)), Interval(0.0, 12.0), kinks, 1e-12)
    # the five initial panels take one call
    assert calls[0] == 5 * 15


def test_batched_panels_match_one_call_per_panel_on_example39():
    # the 1/sqrt(t)-singular derivative of example39's field on [0, 100]
    G = make_system("example39").G
    got, calls = _assert_same_outcome(
        lambda ts: matrix_norm(G.d1_many(ts, 0.0), G.space.norm_kind),
        Interval(0.0, 100.0), G.t_breakpoints, 1e-8)
    assert got[-1] == QuadStats(103, 1545) and len(calls) == 52


def test_batched_double_integral_matches_one_call_per_panel():
    batched, _ = _expr_system_pair()
    I, J = Interval(0.0, 2.0), batched.J
    got = _outcome(tv_l1_upper_bound, batched.G, I, J, 1e-8)
    want = _outcome(_double_integral_one_call_per_panel, batched.G, I, J,
                    1e-8)
    assert got == want
    assert got[0] == "value" and got[-1] == QuadStats(196, 43050)


def test_batched_panels_keep_the_first_failure():
    # a NaN in the right half only: the left half is counted, the right
    # one raises naming itself
    got, _ = _assert_same_outcome(_split_hit(right="nan"), Interval(0, 1))
    assert got[1] is QuadratureError and "[0.5, 1]" in got[2]
    assert got[-1].quad_panels == 2
    # the right half raises and the left half is not finite: the batched
    # call raises, and the panels retried one call each give the left
    # half's QuadratureError, as one call per panel did
    got, calls = _assert_same_outcome(_split_hit(right="raise", left="nan"),
                                      Interval(0, 1))
    assert got[1] is QuadratureError and "[0, 0.5]" in got[2]
    assert calls == [15, 30, 15]
    # the other way round, the left half's own error comes first
    got, _ = _assert_same_outcome(_split_hit(right="nan", left="raise"),
                                  Interval(0, 1))
    assert got[1:3] == (ExpressionError, "the left half raised")


def test_batched_panels_keep_the_exhausted_budget():
    got, _ = _assert_same_outcome(lambda xs: np.sin(500.0 * xs),
                                  Interval(0.0, 10.0), (), 1e-14, 8)
    assert got[1] is QuadratureError and "did not converge" in got[2]


def test_integrands_with_no_components_integrate_to_empty_arrays():
    stats = QuadStats()
    batched, _ = _expr_system_pair()
    norms = l1_norm_in_u(batched.G, np.array([]), batched.J, stats=stats)
    assert norms.shape == (0,) and stats == QuadStats(0, 0)
    value = integrate(lambda x: np.array([]), Interval(0.0, 1.0))
    assert isinstance(value, np.ndarray) and value.shape == (0,)


def test_an_integral_past_its_absolute_tolerance_stops_at_the_roundoff_floor():
    # the Kronrod-Gauss gap of a constant is 15.5 eps of it, so 1e6 over
    # [0, 1] never reaches tol 1e-12 by bisection: it is accepted on its
    # first panel at 50 eps * 1e6, which the counters record
    eps = np.finfo(float).eps
    stats = QuadStats()
    got = _integrate_nodes(lambda xs: np.full(len(xs), 1e6),
                           Interval(0.0, 1.0), (), 1e-12, stats=stats)
    assert abs(got - 1e6) <= 50.0 * eps * 1e6
    assert stats.quad_panels == 1
    assert stats.raised_tol == pytest.approx(50.0 * eps * 1e6, rel=1e-12)
    # a family takes the largest magnitude among its members
    stats = QuadStats()
    got = _integrate_nodes(lambda xs: np.outer(np.ones(len(xs)), [1.0, 1e6]),
                           Interval(0.0, 1.0), (), 1e-12, stats=stats)
    assert stats.quad_panels == 1 and got.shape == (2,)
    # where the tolerance is above the floor, nothing is raised
    stats = QuadStats()
    _integrate_nodes(np.sin, Interval(0.0, 3.0), (), 1e-10, stats=stats)
    assert stats.raised_tol == 0.0
