import dataclasses
import math

import numpy as np
import pytest

from evostab.calculus import (
    _GAUSS_WEIGHTS,
    _KRONROD_WEIGHTS,
    CovCheckResult,
    Interval,
    OperatorField,
    Partition,
    ScalarPath,
    arc_length,
    cov_check,
    integrate,
    l1_norm_in_u,
    signed_integrate,
    total_variation_path,
    tv_l1_upper_bound,
    _gk15,
)
from evostab.errors import DomainViolationError, QuadratureError
from evostab.harness import _system_from_config
from evostab.library import example39_field, make_scalar_path
from evostab.operators import VectorSpaceSpec
from evostab.stability import certify


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


def test_scalar_path_derivative_fallback():
    f = ScalarPath(eval=lambda t: t * t)
    assert f.d(1.5) == pytest.approx(3.0, abs=1e-6)
    g = ScalarPath(eval=math.sin, deriv=math.cos)
    assert g.d(0.7) == math.cos(0.7)


def test_scalar_path_derivative_is_zero_at_breakpoints():
    f = ScalarPath(eval=abs, breakpoints=(0.0,))
    assert f.d(0.0) == 0.0
    assert f.d(1.0) == pytest.approx(1.0, abs=1e-6)
    assert f.d(-1.0) == pytest.approx(-1.0, abs=1e-6)


def test_scalar_path_derivative_matches_linear_breakpoint_scan():
    f = make_scalar_path("sawtooth", Interval(0.0, math.inf))
    bps = f.breakpoints
    assert len(bps) == 512

    def linear_scan_d(t):
        for b in bps:
            if abs(t - b) <= 1e-14 * max(1.0, abs(b)):
                return 0.0
        return f.deriv(t)

    ts = [-1.0, 0.0, bps[-1] + 1.0]
    for b in bps:
        for k in (0.0, 0.5, 1.0, 1.5):
            ts += [b - k * 1e-14 * b, b + k * 1e-14 * b]
        ts += [math.nextafter(b, -math.inf), math.nextafter(b, math.inf),
               b + 1.0]
    for t in ts:
        assert f.d(t) == linear_scan_d(t), t


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


def test_quadrature_failure_carries_best_estimate():
    # highly oscillatory with a tiny segment budget
    with pytest.raises(QuadratureError) as err:
        integrate(lambda t: math.sin(500.0 * t), Interval(0.0, 10.0),
                  tol=1e-14, max_segments=8)
    assert err.value.error_bound > 1e-14
    assert math.isfinite(err.value.best_estimate)


def test_signed_integrate_orientation():
    fwd = signed_integrate(math.cos, 0.0, math.pi / 2)
    back = signed_integrate(math.cos, math.pi / 2, 0.0)
    assert fwd == pytest.approx(1.0, abs=1e-10)
    assert back == pytest.approx(-1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# L1-in-u norms


def test_l1_norm_constant_unit_field():
    sp = VectorSpaceSpec(1)
    G = OperatorField(eval=lambda t, u: np.array([[1.0]]), space=sp)
    assert l1_norm_in_u(G, 0.0, Interval(0.0, 2.0)) == pytest.approx(2.0)


def test_l1_norm_linear_field():
    sp = VectorSpaceSpec(1)
    G = OperatorField(eval=lambda t, u: np.array([[u]]), space=sp)
    assert l1_norm_in_u(G, 0.0, Interval(0.0, 1.0)) == pytest.approx(0.5)


def _midpoint_l1_oracle(field, t, J, panels=1_000_000):
    """Independent check: fixed-panel midpoint rule, vectorized over a
    stacked batch of matrices."""
    us = J.lo + (np.arange(panels) + 0.5) * (J.length() / panels)
    mats = np.stack([field.eval(t, u) for u in us[::1000]])
    # u-independent fields: all slices coincide, integral is exact
    if np.max(np.abs(mats - mats[0])) == 0.0:
        return J.length() * np.linalg.svd(mats[0], compute_uv=False)[0]
    mats = np.stack([field.eval(t, u) for u in us])
    norms = np.linalg.svd(mats, compute_uv=False)[:, 0]
    return float(norms.sum() * (J.length() / panels))


def test_l1_norm_example_field_matches_midpoint_oracle():
    field = example39_field()
    J = Interval(-1.0, 1.0)
    oracle = _midpoint_l1_oracle(field, 0.0, J)
    # quadrature route (flag stripped) and shortcut route must both agree
    raw = OperatorField(eval=field.eval, space=field.space)
    assert l1_norm_in_u(raw, 0.0, J, tol=1e-10) == pytest.approx(
        oracle, abs=1e-8)
    assert l1_norm_in_u(field, 0.0, J) == pytest.approx(oracle, abs=1e-12)


def test_l1_norm_u_dependent_field_matches_midpoint_oracle():
    sp = VectorSpaceSpec(2)

    def ev(t, u):
        return np.array([[math.sin(u), 0.3], [0.0, math.cos(u) * u]])

    G = OperatorField(eval=ev, space=sp)
    J = Interval(-1.0, 1.0)
    oracle = _midpoint_l1_oracle(G, 0.0, J, panels=200_000)
    assert l1_norm_in_u(G, 0.0, J, tol=1e-10) == pytest.approx(
        oracle, abs=1e-7)


# ---------------------------------------------------------------------------
# total variation


def test_variation_constant_is_zero():
    val = total_variation_path(lambda t: np.eye(2), Interval(0.0, 5.0),
                               deriv=lambda t: np.zeros((2, 2)))
    assert val == 0.0


def test_variation_linear_scalar():
    val = total_variation_path(lambda t: np.array([[t]]), Interval(0.0, 3.0),
                               deriv=lambda t: np.array([[1.0]]))
    assert val == pytest.approx(3.0, abs=1e-10)


def test_variation_sine_four_quarter_waves():
    val = total_variation_path(
        lambda t: np.array([[math.sin(t)]]), Interval(0.0, 2 * math.pi),
        deriv=lambda t: np.array([[math.cos(t)]]),
    )
    assert val == pytest.approx(4.0, abs=1e-9)


def test_variation_refinement_mode_is_monotone_lower_estimate():
    G = lambda t: np.array([[math.sin(t)]])
    interval = Interval(0.0, 2 * math.pi)
    est = total_variation_path(G, interval)
    assert est <= 4.0 + 1e-12
    assert est == pytest.approx(4.0, rel=1e-3)
    # partition sums grow under refinement
    pts_coarse = np.linspace(0.0, 2 * math.pi, 33)
    pts_fine = np.linspace(0.0, 2 * math.pi, 65)
    s = lambda pts: sum(abs(math.sin(b) - math.sin(a))
                        for a, b in zip(pts, pts[1:]))
    assert s(pts_fine) >= s(pts_coarse) - 1e-12
    # and the derivative-mode value dominates every partition sum
    assert 4.0 >= s(pts_fine) - 1e-6


# ---------------------------------------------------------------------------
# variation upper bound in the L1 metric


def test_tv_l1_bound_time_independent_is_zero():
    sp = VectorSpaceSpec(1)
    G = OperatorField(eval=lambda t, u: np.array([[u]]), space=sp,
                      partial_t=lambda t, u: np.array([[0.0]]))
    assert tv_l1_upper_bound(G, Interval(0.0, 1.0), Interval(0.0, 2.0)) == 0.0


def test_tv_l1_bound_linear_in_t():
    sp = VectorSpaceSpec(1)
    G = OperatorField(eval=lambda t, u: np.array([[t]]), space=sp,
                      partial_t=lambda t, u: np.array([[1.0]]))
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

    G = OperatorField(eval=ev, space=sp, partial_t=d1)
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
    g = ScalarPath(eval=lambda t: t, deriv=lambda t: 1.0)
    assert arc_length(g, -1.0, 4.0) == pytest.approx(5.0, abs=1e-10)


def test_arc_length_constant_path():
    g = ScalarPath(eval=lambda t: 2.0, deriv=lambda t: 0.0)
    assert arc_length(g, 0.0, 10.0) == 0.0


def test_arc_length_sine():
    g = ScalarPath(eval=math.sin, deriv=math.cos)
    assert arc_length(g, 0.0, 2 * math.pi) == pytest.approx(4.0, abs=1e-9)


def test_arc_length_vector_path():
    g = ScalarPath(eval=lambda t: np.array([math.cos(t), math.sin(t)]),
                   deriv=lambda t: np.array([-math.sin(t), math.cos(t)]))
    assert arc_length(g, 0.0, math.pi) == pytest.approx(math.pi, abs=1e-10)


# ---------------------------------------------------------------------------
# change of variables


def test_cov_check_sine_substitution():
    f = ScalarPath(eval=math.sin, deriv=math.cos)
    res = cov_check(lambda u: u, f, 0.0, math.pi / 2)
    assert float(res.lhs) == pytest.approx(0.5, abs=1e-10)
    assert float(res.rhs) == pytest.approx(0.5, abs=1e-10)
    assert res.defect <= 1e-9


def test_cov_check_constant_path_is_zero():
    f = ScalarPath(eval=lambda t: 0.7, deriv=lambda t: 0.0)
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
    f = ScalarPath(eval=math.sin, deriv=math.cos)
    res = cov_check(lambda u: math.cos(3.0 * u) + u, f, 0.0, 5.0)
    assert res.defect <= 1e-9
    # kinked: f = |t| with a declared breakpoint
    g = ScalarPath(eval=abs, breakpoints=(0.0,))
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
    """The expression field with its batched evaluator, and the same field
    evaluated one u at a time."""
    bag = []
    batched = _system_from_config(dict(CERTIFY_EXPR), bag)
    assert not bag and batched.G.eval_u is not None
    pointwise = dataclasses.replace(
        batched, G=dataclasses.replace(batched.G, eval_u=None))
    return batched, pointwise


def test_gk15_panel_matches_tensordot_reference():
    rng = np.random.default_rng(5)
    for shape in [(), (3,), (2, 2), (4, 4, 2)]:
        vals = rng.standard_normal((15,) + shape)
        k, err = _gk15(lambda xs: vals, -0.3, 1.1)
        h = 0.5 * (1.1 - -0.3)
        k_ref = h * np.tensordot(_KRONROD_WEIGHTS, vals, axes=(0, 0))
        g_ref = h * np.tensordot(_GAUSS_WEIGHTS, vals[1::2], axes=(0, 0))
        assert np.array_equal(k, k_ref)
        assert err == float(np.max(np.abs(k_ref - g_ref)))


def test_expression_field_stacks_match_pointwise_evaluation():
    batched, pointwise = _expr_system_pair()
    us = np.linspace(-1.0, 1.0, 15)
    for t in (0.0, 0.7, 1.9):
        a, b = batched.G.eval_many(t, us), pointwise.G.eval_many(t, us)
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
