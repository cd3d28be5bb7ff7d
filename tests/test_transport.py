import dataclasses
import math
import re

import numpy as np
import pytest

from evostab.calculus import (Interval, ScalarPath, arc_length, pointwise,
                              stacked)
from evostab.errors import DomainViolationError, IntegrationError
from evostab.evolution import (EvolutionOperator, StepStats, evolve,
                               sweep_vector)
from evostab.library import (
    BUILTIN_CONNECTIONS,
    gauge_rotation_matrix,
    gauge_twist_matrix,
    make_connection,
)
from evostab.operators import VectorSpaceSpec, matrix_norm
from evostab import transport
from evostab.transport import _sine_paths
from evostab.transport import (
    BetaParts,
    ConnectionBounds,
    ConnectionForm,
    Curve,
    beta_bound,
    beta_parts,
    curve_coefficient,
    parallel_transport,
    reverse_curve,
    sample_connection_bounds,
    sine_curve_scenario,
)

from conftest import POINTWISE_CONNECTIONS, assert_within_ulps

SP2 = VectorSpaceSpec(2)
RECT_M = Interval(-2.0, 2.0)
RECT_J = Interval(-1.5, 1.5)


def zero_connection():
    return make_connection("zero", RECT_M, RECT_J)


def line_curve(x0, x1, u0, u1, a=0.0, b=1.0):
    g1 = ScalarPath(eval=stacked(lambda t: x0 + (x1 - x0) * (t - a) / (b - a)),
                    deriv=stacked(lambda t: (x1 - x0) / (b - a)))
    g2 = ScalarPath(eval=stacked(lambda t: u0 + (u1 - u0) * (t - a) / (b - a)),
                    deriv=stacked(lambda t: (u1 - u0) / (b - a)))
    return Curve(g1, g2, a, b)


def wiggle_curve(freq=1.0, a=0.0, b=1.0):
    g1 = ScalarPath(eval=stacked(lambda t: 1.5 * (t - a) / (b - a) - 1.0),
                    deriv=stacked(lambda t: 1.5 / (b - a)))
    g2 = ScalarPath(eval=stacked(lambda t: 0.8 * math.sin(freq * math.pi * t)),
                    deriv=stacked(lambda t: 0.8 * freq * math.pi
                    * math.cos(freq * math.pi * t)))
    return Curve(g1, g2, a, b)


# ---------------------------------------------------------------------------
# transport


def test_flat_connection_transport_is_identity():
    p = parallel_transport(zero_connection(), wiggle_curve(3.0))
    assert np.allclose(p, np.eye(2), atol=1e-12)


def test_scalar_fiber_decay_closed_form():
    w = make_connection("scalar-decay", RECT_M, RECT_J)  # omega2 = 0.3 id
    curve = line_curve(0.0, 0.0, -1.0, 1.0)
    p = parallel_transport(w, curve)
    assert np.allclose(p, math.exp(-0.3 * 2.0) * np.eye(2),
                       atol=1e-9)


def test_gauge_transport_matches_gauge_oracle():
    w = make_connection("gauge-rotation", RECT_M, RECT_J)
    curve = wiggle_curve(2.0)
    p = parallel_transport(w, curve, tol=1e-11)
    start = (curve.gamma1(curve.a), curve.gamma2(curve.a))
    end = (curve.gamma1(curve.b), curve.gamma2(curve.b))
    oracle = gauge_rotation_matrix(*end) @ np.linalg.inv(
        gauge_rotation_matrix(*start))
    assert np.max(np.abs(p - oracle)) <= 1e-9


def test_twist_gauge_transport_matches_gauge_oracle():
    w = make_connection("gauge-twist", RECT_M, RECT_J)
    curve = wiggle_curve(1.0)
    p = parallel_transport(w, curve, tol=1e-11)
    start = (curve.gamma1(curve.a), curve.gamma2(curve.a))
    end = (curve.gamma1(curve.b), curve.gamma2(curve.b))
    oracle = gauge_twist_matrix(*end) @ np.linalg.inv(
        gauge_twist_matrix(*start))
    assert np.max(np.abs(p - oracle)) <= 1e-9


def test_transport_rejects_curve_leaving_rectangle():
    w = make_connection("gauge-rotation", Interval(-1.0, 1.0), RECT_J)
    curve = line_curve(-3.0, 3.0, 0.0, 0.0)
    with pytest.raises(DomainViolationError):
        parallel_transport(w, curve)


def test_path_composition_and_reverse():
    w = make_connection("mixed-bounded", RECT_M, RECT_J)
    curve = wiggle_curve(2.0)
    whole = parallel_transport(w, curve, tol=1e-11)
    first = parallel_transport(
        w, Curve(curve.gamma1, curve.gamma2, 0.0, 0.4), tol=1e-11)
    second = parallel_transport(
        w, Curve(curve.gamma1, curve.gamma2, 0.4, 1.0), tol=1e-11)
    assert matrix_norm(second @ first - whole,
                       "euclidean") <= 1e-8
    rev = parallel_transport(w, reverse_curve(curve), tol=1e-11)
    assert matrix_norm(rev @ whole - np.eye(2),
                       "euclidean") <= 1e-8


def test_transport_vector_route_matches_operator_route():
    w = make_connection("mixed-bounded", RECT_M, RECT_J)
    curve = wiggle_curve(1.0)
    v = np.array([0.7, -0.2])
    via_vec = sweep_vector(curve_coefficient(w, curve), (curve.a, curve.b),
                           v)[-1]
    via_op = parallel_transport(w, curve) @ v
    assert np.max(np.abs(via_vec - via_op)) <= 1e-9


# ---------------------------------------------------------------------------
# the certified bound


def test_beta_trivial_bounds():
    b = ConnectionBounds(B1=0.0, B2=0.0, B12=0.0, lambda_J=1.0)
    for L in (0.0, 1.0, 100.0):
        assert beta_bound(b, L) == 1.0


def test_beta_at_zero_length_is_gain_squared():
    b = ConnectionBounds(B1=0.5, B2=0.3, B12=0.2, lambda_J=2.0)
    parts = beta_parts(b, 0.0)
    assert parts.beta == pytest.approx(parts.gain ** 2, rel=1e-12)
    assert parts.gain == pytest.approx(math.exp(0.6), rel=1e-12)


def test_beta_forced_composition():
    b = ConnectionBounds(B1=1.0, B2=0.0, B12=0.0, lambda_J=1.0)
    parts = beta_parts(b, 1.0)
    assert parts.gain == 1.0 and parts.cap == 1.0
    assert parts.beta == pytest.approx(math.e, rel=1e-12)


def test_beta_monotone_and_at_least_one():
    b = ConnectionBounds(B1=0.4, B2=0.25, B12=0.15, lambda_J=2.0)
    values = [beta_bound(b, L) for L in np.linspace(0.0, 3.0, 31)]
    assert all(x >= 1.0 for x in values)
    assert all(y >= x for x, y in zip(values, values[1:]))


def test_beta_overflow_saturates_with_flag():
    b = ConnectionBounds(B1=5.0, B2=3.0, B12=2.0, lambda_J=2.0)
    parts = beta_parts(b, 10.0)
    assert parts.beta == math.inf
    assert parts.overflow
    assert isinstance(parts, BetaParts)


def test_bounds_validation():
    with pytest.raises(ValueError):
        ConnectionBounds(B1=-0.1, B2=0.0, B12=0.0, lambda_J=1.0)
    with pytest.raises(ValueError):
        ConnectionBounds(B1=0.0, B2=0.0, B12=0.0, lambda_J=0.0)


# ---------------------------------------------------------------------------
# bound sampling


def test_sample_bounds_zero_connection():
    b = sample_connection_bounds(zero_connection())
    assert b.B1 == 0.0 and b.B2 == 0.0 and b.B12 == 0.0
    assert b.lambda_J == RECT_J.length()
    assert b.provenance.startswith("grid-sampled")


def test_sample_bounds_linear_fiber_field():
    w = ConnectionForm(
        omega1=pointwise(lambda x, u: np.zeros((2, 2))),
        omega2=pointwise(lambda x, u: u * np.eye(2)),
        m_interval=Interval(-1.0, 1.0), j_interval=Interval(-1.0, 1.0),
        space=SP2,
        d1_omega2=pointwise(lambda x, u: np.zeros((2, 2))),
    )
    b = sample_connection_bounds(w)
    assert b.B2 == pytest.approx(1.05, rel=1e-12)  # sup |u| = 1, inflated 5%
    assert b.B12 == 0.0
    assert b.B1 == 0.0



def test_sample_bounds_tag_an_unsettled_refinement():
    # the cusp 2 - |x - 1/3|^0.1 (flat within 1e-5 of its tip) raises the
    # sampled sup by more than 1% at every dyadic level: at the resolution
    # cap the bounds are those of the last grid, tagged unconverged
    def tip(x):
        return 2.0 - max(abs(x - 1.0 / 3.0), 1e-5) ** 0.1

    eye = np.eye(2)
    w = ConnectionForm(
        omega1=pointwise(lambda x, u: tip(x) * eye),
        omega2=pointwise(lambda x, u: tip(u) * eye),
        m_interval=Interval(0.0, 1.0), j_interval=Interval(0.0, 1.0),
        space=SP2, d1_omega2=pointwise(lambda x, u: 0.0 * eye))
    b = sample_connection_bounds(w, resolution=3, max_resolution=33)
    assert b.provenance == "grid-sampled(33x33, unconverged)"
    assert b.B1.hex() == b.B2.hex() == "0x1.6f4e0e3494c49p+0"
    assert b.B12 == 0.0

def _pointwise_bounds(w, n=17):
    """Reference for sample_connection_bounds: one matrix_norm call per
    grid point and field, refined like it."""
    def sups(n):
        xs = np.linspace(w.m_interval.lo, w.m_interval.hi, n)
        us = np.linspace(w.j_interval.lo, w.j_interval.hi, n)
        out = np.zeros(3)
        for x in xs.tolist():
            for u in us.tolist():
                for k, m in enumerate((w.omega1(x, u), w.omega2(x, u),
                                       w.d1_omega2(x, u))):
                    out[k] = max(out[k], matrix_norm(
                        np.asarray(m, dtype=float), w.space.norm_kind))
        return out

    prev, converged = sups(n), False
    while n < 513 and not converged:
        n = 2 * n - 1
        cur = sups(n)
        converged = bool(np.all(
            cur - prev <= 1e-2 * np.maximum(np.abs(cur), 1e-300)))
        prev = cur
    tag = f"{n}x{n}" + ("" if converged else ", unconverged")
    return ConnectionBounds(*(1.05 * float(s) for s in prev),
                            lambda_J=w.j_interval.length(),
                            provenance=f"grid-sampled({tag})")


@pytest.mark.parametrize("norm", ["euclidean", "one-norm", "inf-norm"])
@pytest.mark.parametrize("name", ["scalar-decay", "gauge-twist",
                                  "mixed-bounded"])
def test_stacked_bounds_equal_pointwise_reference(name, norm):
    w = make_connection(name, RECT_M, RECT_J, norm)
    assert sample_connection_bounds(w) == _pointwise_bounds(w)


@pytest.mark.parametrize("name", ["scalar-decay", "gauge-rotation",
                                  "gauge-twist", "mixed-bounded"])
def test_bounds_blocks_of_grid_rows_equal_pointwise_reference(
        monkeypatch, name):
    # 40 points per call: two rows per block at the 17-point level (the
    # last block one row), one row per block at 33 and beyond
    monkeypatch.setattr(transport, "_BOUNDS_BLOCK", 40)
    w = make_connection(name, RECT_M, RECT_J)
    assert sample_connection_bounds(w) == _pointwise_bounds(w)


@pytest.mark.parametrize("block", [40, 2 ** 15])
def test_bounds_blocks_name_the_first_bad_point_in_row_order(
        monkeypatch, block):
    # omega2 is NaN at the grid points (x[9], u[14]) and (x[12], u[2]) of
    # the 17-point level, and omega1 at (x[12], u[0]): the first in row
    # order is (x[9], u[14]), whether one call covers the level or its
    # rows go in blocks of two, the bad rows in different blocks
    monkeypatch.setattr(transport, "_BOUNDS_BLOCK", block)
    clean = make_connection("gauge-rotation")
    xs = np.linspace(clean.m_interval.lo, clean.m_interval.hi, 17)
    us = np.linspace(clean.j_interval.lo, clean.j_interval.hi, 17)

    def holes(field, points):
        def eval_(x, u):
            m = np.array(field(x, u), dtype=float)
            x, u = np.broadcast_arrays(x, u)
            for i, j in points:
                m[(x == xs[i]) & (u == us[j])] = math.nan
            return m
        return eval_

    broken = dataclasses.replace(
        clean, omega1=holes(clean.omega1, [(12, 0)]),
        omega2=holes(clean.omega2, [(9, 14), (12, 2)]))
    with pytest.raises(DomainViolationError) as err:
        sample_connection_bounds(broken)
    assert str(err.value) == (
        f"omega2 is not finite at (x, u) = ({xs.tolist()[9]}, {us[14]})")


def test_sampled_bounds_dominate_finer_oracle_grid():
    w = make_connection("mixed-bounded", RECT_M, RECT_J)
    b = sample_connection_bounds(w, resolution=17)
    xs = np.linspace(RECT_M.lo, RECT_M.hi, 129)
    us = np.linspace(RECT_J.lo, RECT_J.hi, 129)
    sup1 = max(matrix_norm(np.asarray(w.omega1(x, u)), "euclidean")
               for x in xs for u in us)
    sup2 = max(matrix_norm(np.asarray(w.omega2(x, u)), "euclidean")
               for x in xs for u in us)
    sup12 = max(matrix_norm(w.d1_omega2(x, u), "euclidean")
                for x in xs for u in us)
    # the 5% inflation must absorb anything the coarser grid missed
    assert b.B1 >= sup1 and b.B1 <= 1.05 * sup1 * 1.01
    assert b.B2 >= sup2 and b.B12 >= sup12


def _quotient_d1(w):
    """d/dx omega2 by a central difference quotient, step
    1e-6 max(1, |x|), taking and returning what omega2 does."""
    def d1(xs, us):
        xs = np.asarray(xs, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(xs))
        dq = w.omega2(xs + h, us) - w.omega2(xs - h, us)
        return dq / (2.0 * h)[..., None, None]
    return d1


def test_finite_difference_d1_omega2_matches_analytic():
    # each built-in's hand-written d1_omega2 is d/dx omega2, and the B12
    # it gives is the one a difference quotient of omega2 gives
    for name in BUILTIN_CONNECTIONS:
        w = make_connection(name, RECT_M, RECT_J)
        d1 = _quotient_d1(w)
        for x, u in [(-1.0, 0.3), (0.5, -1.2), (1.7, 0.0)]:
            assert np.max(np.abs(w.d1_omega2(x, u) - d1(x, u))) <= 1e-5
        quotient = dataclasses.replace(w, d1_omega2=d1)
        assert sample_connection_bounds(quotient).B12 == pytest.approx(
            sample_connection_bounds(w).B12, rel=1e-6, abs=1e-12), name


# ---------------------------------------------------------------------------
# bound domination and the first-component asymmetry


def test_transport_norm_dominated_by_beta():
    for name in ("zero", "scalar-decay", "gauge-rotation", "gauge-twist",
                 "mixed-bounded"):
        w = make_connection(name, RECT_M, RECT_J)
        bounds = sample_connection_bounds(w)
        for freq in (1.0, 3.0):
            curve = wiggle_curve(freq)
            p = parallel_transport(w, curve)
            L1 = arc_length(curve.gamma1, curve.a, curve.b)
            assert matrix_norm(p, "euclidean") <= \
                beta_bound(bounds, L1) * (1.0 + 1e-6)


def test_bound_ignores_second_component_oscillation():
    w = make_connection("mixed-bounded", RECT_M, RECT_J)
    bounds = sample_connection_bounds(w)
    slow = wiggle_curve(1.0)
    fast = wiggle_curve(10.0)  # 10x the fiber oscillation, same gamma1
    L_slow = arc_length(slow.gamma1, 0.0, 1.0)
    L_fast = arc_length(fast.gamma1, 0.0, 1.0)
    assert L_slow == pytest.approx(L_fast, rel=1e-12)
    # identical bound inputs give the identical certified bound
    assert beta_bound(bounds, L_slow) == beta_bound(bounds, L_fast)
    for curve in (slow, fast):
        p = parallel_transport(w, curve)
        assert matrix_norm(p, "euclidean") <= \
            beta_bound(bounds, L_slow) * (1.0 + 1e-6)
    # while the fiber lengths really did change tenfold
    assert arc_length(fast.gamma2, 0.0, 1.0) >= \
        5.0 * arc_length(slow.gamma2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the oscillating-curve scenario


def test_sine_scenario_flat_connection_preserves_norm():
    w = make_connection("zero")
    v = np.array([0.6, -0.8])
    report = sine_curve_scenario(w, -1.0, [-0.5, -1e-2], v, tol=1e-9)
    assert report.passed
    assert report.bound >= 1.0
    for row in report.rows:
        assert row.norm_P == pytest.approx(1.0, abs=1e-8)
        assert row.error is None


def test_sine_scenario_two_sided_bound_and_monotonicity():
    w = make_connection("gauge-twist")
    v = np.array([1.0, 0.5])
    report = sine_curve_scenario(w, -1.0, [-0.3, -0.05, -1e-2, -1e-3], v,
                                 tol=1e-9)
    assert report.passed
    betas = [row.beta_b for row in report.rows]
    assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
    assert all(b <= report.bound * (1 + 1e-12) for b in betas)
    for row in report.rows:
        assert 1.0 / report.bound <= row.ratio <= report.bound


def test_sine_scenario_clamps_to_floor():
    w = make_connection("zero")
    v = np.array([1.0, 0.0])
    report = sine_curve_scenario(w, -1.0, [-1e-6], v, b_floor=-1e-3)
    assert report.rows[0].b_used == -1e-3
    assert report.rows[0].b_requested == -1e-6


def test_sine_scenario_validates_inputs():
    w = make_connection("zero")
    v = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        sine_curve_scenario(w, 1.0, [-0.5], v)
    with pytest.raises(ValueError):
        sine_curve_scenario(w, -1.0, [0.5], v)
    small = make_connection("zero", Interval(-0.5, 0.0), Interval(-2.0, 2.0))
    with pytest.raises(DomainViolationError):
        sine_curve_scenario(small, -1.0, [-0.5], v)


def test_sine_sweep_reverse_matches_reverse_path_transport():
    w = make_connection("gauge-twist")
    for b in (-0.1, -0.01):
        curve = _sine_paths(-1.0, b)
        ev = EvolutionOperator(curve_coefficient(w, curve), (-1.0, b), 1e-9)
        forward, reverse = ev.query(b, -1.0), ev.query(-1.0, b)
        p = parallel_transport(w, curve, 1e-9)
        p_rev = parallel_transport(w, reverse_curve(curve), 1e-9)
        assert np.max(np.abs(forward - p)) <= 1e-8
        assert np.max(np.abs(reverse - p_rev)) <= 1e-8


def test_two_sided_sweep_halves_are_inverse():
    w = make_connection("mixed-bounded", RECT_M, RECT_J)
    tol = 1e-9
    stops = (0.0, 0.3, 0.7, 1.0)
    ev = EvolutionOperator(curve_coefficient(w, wiggle_curve(3.0)), stops,
                           tol)
    pairs = [(ev.query(b, 0.0), ev.query(0.0, b))
             for b in stops]
    assert np.array_equal(pairs[0][0], np.eye(2))
    for x, y in pairs[1:]:
        assert matrix_norm(x - np.eye(2), "euclidean") > 0.1
        assert matrix_norm(y @ x - np.eye(2), "euclidean") <= 100 * tol
        assert matrix_norm(x @ y - np.eye(2), "euclidean") <= 100 * tol


def test_sine_scenario_rows_keep_input_order_with_duplicates():
    w = make_connection("gauge-twist")
    v = np.array([1.0, 0.5])
    b_list = [-1e-2, -1e-6, -0.3, -1e-5, -1e-2]
    report = sine_curve_scenario(w, -1.0, b_list, v, tol=1e-9,
                                 b_floor=-1e-3)
    assert [r.b_requested for r in report.rows] == b_list
    assert [r.b_used for r in report.rows] == [-1e-2, -1e-3, -0.3, -1e-3,
                                               -1e-2]
    assert report.rows[0] == dataclasses.replace(report.rows[4],
                                                 b_requested=-1e-2)
    assert report.rows[1] == dataclasses.replace(report.rows[3],
                                                 b_requested=-1e-6)
    for row in report.rows:
        alone = sine_curve_scenario(w, -1.0, [row.b_requested], v, tol=1e-9,
                                    b_floor=-1e-3).rows[0]
        assert row.norm_P == pytest.approx(alone.norm_P, rel=1e-6)
        assert row.norm_P_rev == pytest.approx(alone.norm_P_rev, rel=1e-6)
        assert 0.0 < row.inverse_defect <= 1e-5


def test_sine_scenario_failure_keeps_rows_reached_before_it():
    clean = make_connection("gauge-twist")

    def nan_right(xs, us):
        out = clean.omega1(xs, us)
        out[np.broadcast_arrays(xs, us)[0] > -0.05] = math.nan
        return out

    broken = dataclasses.replace(clean, omega1=nan_right)
    v = np.array([1.0, 0.5])
    bounds = sample_connection_bounds(clean)
    b_list = [-0.01, -0.5, -0.1, -0.02]
    good = sine_curve_scenario(clean, -1.0, b_list, v, bounds=bounds)
    bad = sine_curve_scenario(broken, -1.0, b_list, v, bounds=bounds)
    assert not bad.passed
    assert bad.rows[1] == good.rows[1] and bad.rows[2] == good.rows[2]
    for i in (0, 3):
        assert not bad.rows[i].passed
        assert math.isnan(bad.rows[i].norm_P)
        where = re.search(r"t = (\S+)", bad.rows[i].error)
        assert abs(float(where.group(1)) + 0.05) <= 1e-12, bad.rows[i].error
    assert bad.stats.rhs_evals > 0


def test_sine_scenario_cost_on_benchmark_configuration():
    # one two-sided sweep of [a, max b], which no breakpoint splits: one
    # segment.  Measured with Python 3.11 and numpy 2.4.  Windows of at
    # most 16 steps took 793 steps and rejected 60 (7,704 coefficient
    # values) in 55 windows.  A window sized after a rejection from the
    # first rejected step alone took 740 steps and rejected 118 (7,779
    # coefficient values); separate forward and reverse integrations per
    # b took 31,908 right-hand sides
    report = sine_curve_scenario(make_connection("gauge-twist"), -1.0,
                                 [-1e-1, -1e-2, -1e-3],
                                 np.array([1.0, 0.5]), tol=1e-8)
    assert report.passed
    assert report.stats == StepStats(steps=770, rejected=137, rhs_evals=8_190,
                                     segments=1, windows=32)


@pytest.mark.parametrize("name", ["zero", "scalar-decay", "gauge-rotation",
                                  "gauge-twist", "mixed-bounded"])
def test_omega2_stack_matches_pointwise_omega2(name):
    # the built-in's expressions against its formula, to the ulps of
    # conftest's bound
    w = make_connection(name, RECT_M, RECT_J)
    formula = POINTWISE_CONNECTIONS[name][1]
    xs = np.concatenate([np.linspace(-2.0, 2.0, 41),
                         np.random.default_rng(3).uniform(-2.0, 2.0, 200)])
    for u in (-1.5, -0.3, 0.0, 1.2):
        want = np.array([formula(x, u) for x in xs.tolist()])
        got = w.omega2(xs, u)
        assert got.shape == (len(xs), 2, 2)
        assert_within_ulps(got, want)
        assert_within_ulps(w.omega2(tuple(xs[:3]), u), want[:3])


# ---------------------------------------------------------------------------
# stage stacks: one coefficient call per step


def _pointwise_coefficient(w, g, t):
    """-(omega1 gamma1' + omega2 gamma2') at one t, through the pointwise
    fields and paths: a term whose derivative is 0 is left out."""
    x, u = float(g.gamma1(t)), float(g.gamma2(t))
    dx, du = float(g.gamma1.d(t)), float(g.gamma2.d(t))
    out = None
    if dx != 0.0:
        out = np.asarray(w.omega1(x, u), dtype=float) * dx
    if du != 0.0:
        term = np.asarray(w.omega2(x, u), dtype=float) * du
        out = term if out is None else out + term
    if out is None:
        out = np.zeros((w.space.dim, w.space.dim))
    return -out


def _looped(g):
    """The curve g with its paths evaluated one time at a time."""
    def loop(p):
        return dataclasses.replace(p, eval=stacked(p), deriv=stacked(p.d))

    return Curve(loop(g.gamma1), loop(g.gamma2), g.a, g.b)


def _stage_times(a, b, n=400, seed=5):
    # times of random DP5 steps inside [a, b], stage nodes included
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(a, b, n)
    h = rng.uniform(0.0, 1.0, n) * (b - t0)
    nodes = np.array((1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0))
    return (t0[:, None] + nodes * h[:, None]).ravel()


@pytest.mark.parametrize("name", ["gauge-twist", "gauge-rotation"])
def test_curve_coefficient_stack_is_the_pointwise_stack_bit_for_bit(name):
    w = make_connection(name)
    g = _sine_paths(-1.0, -1e-4)
    A = curve_coefficient(w, g)
    ts = np.concatenate([_stage_times(-1.0, -1e-4), [-1.0, -1e-4]])
    want = np.array([_pointwise_coefficient(w, g, t) for t in ts.tolist()])
    got = A.eval(ts)
    assert got.shape == (len(ts), 2, 2)
    assert got.tobytes() == want.tobytes()


def test_curve_coefficient_stack_leaves_out_terms_with_zero_derivative():
    # gamma1 stands still on [0, 1] (kink at 1, where d is 0 by the
    # breakpoint rule) and gamma2 on [2, 3]: the pointwise sum leaves the
    # term out, and so must the stack, down to the sign of zero
    w = make_connection("gauge-twist", RECT_M, RECT_J)
    flat_then_sin = ScalarPath(
        eval=lambda ts: np.where(ts <= 1.0, 0.0, np.sin(ts - 1.0)),
        deriv=lambda ts: np.where(ts <= 1.0, 0.0, np.cos(ts - 1.0)),
        breakpoints=(1.0,))
    still_late = ScalarPath(
        eval=lambda ts: np.where(ts <= 2.0, 0.5 * np.sin(ts),
                                 0.5 * math.sin(2.0)),
        deriv=lambda ts: np.where(ts <= 2.0, 0.5 * np.cos(ts), 0.0),
        breakpoints=(2.0,))
    for g1, g2 in ((flat_then_sin, still_late),
                   (ScalarPath(eval=np.zeros_like, deriv=np.zeros_like),
                    still_late)):
        g = Curve(g1, g2, 0.0, 3.0)
        A = curve_coefficient(w, g)
        ts = np.concatenate([np.linspace(0.0, 3.0, 61), [1.0 + 1e-15]])
        want = np.array([_pointwise_coefficient(w, g, t)
                         for t in ts.tolist()])
        assert A.eval(ts).tobytes() == want.tobytes()


def test_curve_coefficient_stack_raises_at_the_first_stage_outside():
    w = make_connection("gauge-twist", RECT_M, Interval(-0.5, 0.5))
    g = _sine_paths(-1.0, -0.1)
    A = curve_coefficient(w, g)
    ts = np.array([-0.3, -0.25, -0.2])  # sin(1/t) = 0.19, 0.76, 0.96
    A(-0.3)
    with pytest.raises(DomainViolationError) as batched:
        A.eval(ts)
    with pytest.raises(DomainViolationError) as pointwise:
        curve_coefficient(w, _looped(g)).eval(ts)
    assert str(batched.value) == str(pointwise.value)
    assert "(-0.25, " in str(batched.value)


def test_curve_coefficient_without_batched_paths_has_no_batched_stack():
    # paths from pointwise sources, one time at a time: the same stack as
    # the paths that take the array, bit for bit
    w = make_connection("gauge-twist")
    g = _sine_paths(-1.0, -1e-4)
    ts = np.concatenate([_stage_times(-1.0, -1e-4), [-1.0, -1e-4]])
    assert (curve_coefficient(w, _looped(g)).eval(ts).tobytes()
            == curve_coefficient(w, g).eval(ts).tobytes())
    w = make_connection("gauge-twist", RECT_M, RECT_J)
    g = wiggle_curve(3.0)
    ts = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(curve_coefficient(w, g).eval(ts), np.array(
        [_pointwise_coefficient(w, g, t) for t in ts.tolist()]))


@pytest.mark.parametrize("name", ["zero", "scalar-decay", "gauge-rotation",
                                  "gauge-twist", "mixed-bounded"])
def test_omega_stacks_over_paired_points_match_pointwise(name):
    w = make_connection(name, RECT_M, RECT_J)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-2.0, 2.0, (7, 3))
    us = rng.uniform(-1.5, 1.5, (7, 3))
    for one, stack in zip(POINTWISE_CONNECTIONS[name], (w.omega1, w.omega2)):
        want = np.array([one(x, u) for x, u in zip(xs.ravel().tolist(),
                                                   us.ravel().tolist())])
        got = stack(xs, us)
        assert got.shape == (7, 3, 2, 2)
        assert_within_ulps(got, want.reshape(got.shape))
        # a scalar on either side broadcasts against the other
        assert_within_ulps(stack(xs[0], 0.25),
                           np.array([one(x, 0.25) for x in xs[0]]))
        assert_within_ulps(stack(-0.5, us[0]),
                           np.array([one(-0.5, u) for u in us[0]]))


@pytest.mark.parametrize("norm", ["euclidean", "one-norm", "inf-norm"])
@pytest.mark.parametrize("name", ["zero", "scalar-decay", "gauge-rotation",
                                  "gauge-twist", "mixed-bounded"])
def test_sampled_bounds_through_batched_rows_match_pointwise_rows(name, norm):
    w = make_connection(name, norm_kind=norm)
    # the connection's evaluators called one point at a time
    looped = dataclasses.replace(
        w, **{k: pointwise(getattr(w, k))
              for k in ("omega1", "omega2", "d1_omega2")})
    assert sample_connection_bounds(w) == sample_connection_bounds(looped)


# two-sided sweep across criterion 10's stops at its tolerance: the last
# pair (X, Y) as float.hex.  Against a sweep at tol 1e-13, the error of
# these is at most 5.6e-8 (scalar-decay's).  That of the sweep whose
# windows held at most 16 steps was 2.8e-8, that of the windowed sweep
# that sized a window after a rejection from the first rejected step
# alone 5.2e-8, that of the sweep that clipped its steps to land on every
# stop 1.0e-7, and that of the 5th-order Runge-Kutta sweep of [X; Y^T]
# before it 2.0e-7
_TWO_SIDED_LAST = {
    "zero": (
        ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "0x1.0000000000000p+0"],
        ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "0x1.0000000000000p+0"]),
    "scalar-decay": (
        ["0x1.fdc37ce1adda1p-1", "0x0.0p+0", "0x0.0p+0",
         "0x1.fdc37ce1adda1p-1"],
        ["0x1.011f830d32da1p+0", "0x0.0p+0", "0x0.0p+0",
         "0x1.011f830d32da1p+0"]),
    "gauge-rotation": (
        ["0x1.fe3124374e50fp-1", "-0x1.57ec1da29d5bdp-4",
         "0x1.57ec1da29d5cep-4", "0x1.fe3124374e524p-1"],
        ["0x1.fe3124374e50fp-1", "0x1.57ec1da29d5cep-4",
         "-0x1.57ec1da29d5bdp-4", "0x1.fe3124374e524p-1"]),
    # omega2 written out entry by entry moved these by at most 1.5e-15
    "gauge-twist": (
        ["0x1.f61f2828d7121p-1", "0x1.972e18ed85d43p-3",
         "-0x1.95db11005c4c9p-3", "0x1.f59dfcf7e21a9p-1"],
        ["0x1.f581e32316dd5p-1", "-0x1.97174971eaa2bp-3",
         "0x1.95c45482e44fcp-3", "0x1.f60307179a061p-1"]),
}


@pytest.mark.parametrize("name", sorted(_TWO_SIDED_LAST))
def test_two_sided_sweep_keeps_the_previous_results(name):
    stops = (-1.0, -0.1, -0.01, -0.001)
    coefficient = curve_coefficient(make_connection(name),
                                    _sine_paths(-1.0, stops[-1]))
    ev = EvolutionOperator(coefficient, stops, 1e-8)
    x = ev.query(stops[-1], stops[0])
    y = ev.query(stops[0], stops[-1])
    want_x, want_y = _TWO_SIDED_LAST[name]
    assert [v.hex() for v in x.ravel().tolist()] == want_x
    assert [v.hex() for v in y.ravel().tolist()] == want_y
    assert y.flags.c_contiguous
    # Y is carried by the inverse exponentials of X's steps
    assert np.max(np.abs(y @ x - np.eye(2))) <= 1e-13


def test_nan_coefficient_raises_at_the_same_t_batched_or_not():
    # omega2 turns NaN past x = -0.3: every step that samples it is
    # rejected until the step size underflows at the same t whether the
    # stack comes from the array evaluators or from a loop over the
    # pointwise formulas and paths
    w = make_connection("gauge-twist")
    one1, one2, _ = POINTWISE_CONNECTIONS["gauge-twist"]

    def nan_right(x, u):
        return np.full((2, 2), math.nan) if x > -0.3 else one2(x, u)

    def nan_right_many(xs, us):
        out = w.omega2(xs, us)
        out[np.broadcast_arrays(xs, us)[0] > -0.3] = math.nan
        return out

    g = _sine_paths(-1.0, -0.1)
    looped = dataclasses.replace(w, omega1=pointwise(one1),
                                 omega2=pointwise(nan_right))
    for path in (curve_coefficient(dataclasses.replace(
                     w, omega2=nan_right_many), g),
                 curve_coefficient(looped, _looped(g))):
        with pytest.raises(IntegrationError) as err:
            evolve(path, -1.0, -0.1, 1e-8)
        assert err.value.location.hex() == "-0x1.3333333333627p-2"
        assert abs(err.value.location + 0.3) <= 1e-12


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_sampled_bounds_name_the_first_non_finite_sample(bad):
    # omega1 = bad for x > -0.5: the first grid column past it is
    # x = -1.05 + 9 * 1.05/16, and the first sample there is u = -1.3
    clean = make_connection("gauge-rotation")
    broken = dataclasses.replace(clean, omega1=pointwise(
        lambda x, u: np.full((2, 2), bad) if x > -0.5 else clean.omega1(x, u)))
    with pytest.raises(DomainViolationError,
                       match=r"omega1 is not finite at \(x, u\) = "
                             r"\(-0\.459375, -1\.3\)"):
        sample_connection_bounds(broken)
