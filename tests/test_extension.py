import dataclasses
import functools
import math

import numpy as np
import pytest

from evostab.calculus import Interval, ScalarPath, pointwise
from evostab.errors import ApproximationError, ConstructionError
from evostab.evolution import StepStats, param_evolution
from evostab.extension import (
    ExtensionProblem,
    build_sigma,
    extend_section,
    near_graph_mask,
    parallel_residual,
    polynomial_graph_approx,
    section_at,
)
from evostab.library import (
    extension_gauge_oracle,
    make_connection,
    make_extension_problem,
)
from evostab.operators import VectorSpaceSpec, vector_norm
from evostab.transport import (Curve, curve_coefficient,
                               sample_connection_bounds)


SP2 = VectorSpaceSpec(2)


def flat_problem():
    """Zero connection: the parallel section is a constant."""
    w = make_connection("zero", Interval(-2.0, 2.0), Interval(-2.0, 2.0))
    return ExtensionProblem(
        omega=w, f=lambda x: math.sin(1.0 / x), a=0.0, v0=-1.5, v1=1.5,
        sigma_seed=np.array([1.0, -0.5]), p_ref=(-1.0, 0.0),
    )


def gauge_problem():
    return make_extension_problem("extension-gauge")


def default_grids(p, nx_right=10, nv=13, x_floor=1e-3):
    M, J = p.omega.m_interval, p.omega.j_interval
    xs = np.concatenate([
        np.linspace(M.lo + 0.2, p.a - 0.2, 6),
        np.linspace(p.a + x_floor, M.hi - 0.2, nx_right),
    ])
    vs = np.linspace(J.lo + 0.2, J.hi - 0.2, nv)
    return xs, vs


# ---------------------------------------------------------------------------
# section construction


def test_flat_connection_sigma_is_constant():
    p = flat_problem()
    xs, vs = default_grids(p)
    sig = build_sigma(p, xs, vs)
    assert sig.verified
    for ix in range(len(xs)):
        for iv in range(len(vs)):
            assert np.allclose(sig.values[ix, iv], p.sigma_seed, atol=1e-12)


def test_gauge_sigma_matches_gauge_oracle():
    p = gauge_problem()
    xs, vs = default_grids(p)
    sig = build_sigma(p, xs, vs)
    assert sig.verified
    worst = 0.0
    for ix, x in enumerate(xs):
        for iv, v in enumerate(vs):
            oracle = extension_gauge_oracle(x, v, "extension-gauge",
                                            p.p_ref, p.sigma_seed)
            worst = max(worst, float(np.max(np.abs(sig.values[ix, iv]
                                                   - oracle))))
    assert worst <= 1e-8


def test_sigma_regions_are_consistent_left_of_the_graph():
    # left of a, the below- and above-corridor routes must agree
    p = gauge_problem()
    xs = np.linspace(-1.8, -0.2, 5)
    vs = np.linspace(-1.8, 1.8, 9)
    sig = build_sigma(p, xs, vs)
    from evostab.extension import _sigma_at  # route-specific evaluations
    for x in xs[:2]:
        for v in (-1.7, 0.0, 1.7):
            below = _sigma_at(p, x, v, 1e-10)
            oracle = extension_gauge_oracle(x, v, "extension-gauge",
                                            p.p_ref, p.sigma_seed)
            assert np.max(np.abs(below - oracle)) <= 1e-8
    assert sig.verified


def test_sigma_rejects_grid_on_the_graph():
    p = flat_problem()
    x_bad = 2.0 / math.pi  # f(x) = sin(pi/2) = 1 exactly
    xs = np.array([-1.0, x_bad])
    vs = np.array([-1.8, 1.0, 1.8])  # contains f(x_bad) = 1.0
    with pytest.raises(ConstructionError):
        build_sigma(p, xs, vs)


def test_sigma_rejects_x_equal_a():
    p = flat_problem()
    with pytest.raises(ConstructionError):
        build_sigma(p, np.array([-1.0, 0.0, 1.0]), np.array([-1.8, 1.8]))


def test_crossing_guard_fires_on_bad_vertical_move():
    p = flat_problem()
    from evostab.extension import _move_vertical
    with pytest.raises(ConstructionError):
        # at x = 2/pi the graph sits at v = 1: moving 0 -> 1.5 crosses it
        _move_vertical(p, 2.0 / math.pi, 0.0, 1.5, p.sigma_seed, 1e-10)


def test_grouped_column_fill_matches_per_column_sweeps():
    # columns with equal stops are swept as one stacked state; each must
    # match its own unstacked sweep from the corridor level
    from evostab.calculus import stacked
    from evostab.evolution import CoefficientPath, sweep_vector
    for name in ("extension-gauge", "extension-twist"):
        p = make_extension_problem(name)
        xs, vs = default_grids(p)
        sig = build_sigma(p, xs, vs)
        ascending = sorted(vs)
        for ix, x in enumerate(xs):
            A = CoefficientPath(
                eval=stacked(lambda v, _x=x: -p.omega.omega2(_x, v)),
                space=p.omega.space)
            fx = p.f(x) if x > p.a else math.inf
            for level, row, ok in ((p.v0, sig.row_v0, lambda v: v < fx),
                                   (p.v1, sig.row_v1, lambda v: v > fx)):
                if x <= p.a and level == p.v1:
                    continue
                for side in ([v for v in ascending if v >= level and ok(v)],
                             [v for v in ascending[::-1]
                              if v < level and ok(v)]):
                    states = sweep_vector(A, [level] + side, row[ix], 1e-10)
                    for v, want in zip(side, states[1:]):
                        got = sig.values[ix, list(vs).index(v)]
                        assert (np.linalg.norm(got - want)
                                <= 1e-9 * np.linalg.norm(want))


def test_crossing_guard_names_the_column_inside_a_group():
    # the guard runs per column before the group is swept: only
    # x = 2/pi (graph at v = 1) crosses the span 0 -> 1.5
    p = flat_problem()
    from evostab.extension import _vertical_sweep
    x_bad = 2.0 / math.pi
    vecs = np.tile(p.sigma_seed, (3, 1))
    with pytest.raises(ConstructionError, match=f"x = {x_bad} "):
        _vertical_sweep(p, [-1.0, x_bad, 0.3], [0.0, 0.7, 1.5], vecs,
                        1e-10, None)
    ok = _vertical_sweep(p, [-1.0, 0.3], [0.0, 0.7, 1.5], vecs[:2],
                         1e-10, None)
    assert np.array_equal(ok[-1], vecs[:2])


def test_non_flat_connection_is_refused_unless_report_only():
    w = make_connection("mixed-bounded", Interval(-2.0, 2.0),
                        Interval(-2.0, 2.0))
    p = ExtensionProblem(
        omega=w, f=lambda x: math.sin(1.0 / x), a=0.0, v0=-1.5, v1=1.5,
        sigma_seed=np.array([1.0, 0.0]), p_ref=(-1.0, 0.0),
    )
    xs, vs = default_grids(p, nx_right=4, nv=5)
    with pytest.raises(ConstructionError):
        build_sigma(p, xs, vs)
    sig = build_sigma(p, xs, vs, report_only=True)
    assert not sig.verified
    assert sig.loop_defect > 1e-7


# ---------------------------------------------------------------------------
# extension


def test_flat_extension_gap_zero_and_constant():
    p = flat_problem()
    xs, vs = default_grids(p)
    sig = build_sigma(p, xs, vs)
    res = extend_section(p, sig)
    assert res.accepted
    assert res.max_gap <= 1e-12
    assert np.allclose(res.xi0, p.sigma_seed, atol=1e-12)


def test_gauge_extension_matches_oracle_including_graph_points():
    p = gauge_problem()
    xs, vs = default_grids(p)
    sig = build_sigma(p, xs, vs)
    res = extend_section(p, sig)
    assert res.accepted and res.max_gap <= 1e-7
    worst = 0.0
    for ix, x in enumerate(xs):
        for iv, v in enumerate(vs):
            oracle = extension_gauge_oracle(x, v, "extension-gauge",
                                            p.p_ref, p.sigma_seed)
            worst = max(worst, float(np.max(np.abs(res.xi0[ix, iv]
                                                   - oracle))))
    assert worst <= 1e-7
    # on-graph evaluations (x > a)
    for x in xs[8:11]:
        v = p.f(x)
        val = section_at(p, sig, x, v)
        oracle = extension_gauge_oracle(x, v, "extension-gauge",
                                        p.p_ref, p.sigma_seed)
        assert np.max(np.abs(val - oracle)) <= 1e-7


def test_extensions_agree_with_sigma_on_their_defining_sides():
    p = gauge_problem()
    xs, vs = default_grids(p)
    sig = build_sigma(p, xs, vs)
    res = extend_section(p, sig)
    for ix, x in enumerate(xs):
        fx = p.f(x) if x > p.a else None
        for iv, v in enumerate(vs):
            sigma_val = sig.values[ix, iv]
            if x <= p.a:
                # left of a both sweeps must reproduce the section
                assert np.max(np.abs(res.xi0[ix, iv] - sigma_val)) <= 1e-6
                assert np.max(np.abs(res.xi1[ix, iv] - sigma_val)) <= 1e-6
            elif v < fx:
                assert np.max(np.abs(res.xi0[ix, iv] - sigma_val)) <= 1e-6
            elif v > fx:
                assert np.max(np.abs(res.xi1[ix, iv] - sigma_val)) <= 1e-6


@pytest.mark.parametrize("name", ["extension-gauge", "extension-twist"])
def test_extend_section_matches_param_evolution_bit_for_bit(name):
    # the per-point route: param_evolution of omega2 called one point at
    # a time, its propagator columns times the section's corridor rows
    p = make_extension_problem(name)
    xs, vs = default_grids(p)
    sig = build_sigma(p, xs, vs)
    res = extend_section(p, sig)
    omega2 = p.omega.omega2
    for level, row, xi in ((p.v0, sig.row_v0, res.xi0),
                           (p.v1, sig.row_v1, res.xi1)):
        fam = param_evolution(pointwise(lambda x, v: -omega2(x, v)),
                              sig.x_grid, level, sig.v_grid, p.omega.space,
                              1e-10)
        want = (fam.propagators @ row[:, None, :, None])[..., 0]
        assert np.array_equal(xi, want)


def test_extend_section_evaluates_omega2_once_per_step():
    # one omega2 call covers every column at all the nodes of a window of
    # steps: on this grid 6 windows, 198 coefficient values (as in
    # test_param_evolution_cost_on_extension_gauge_grid)
    p = gauge_problem()
    xs, vs = default_grids(p)
    sig = build_sigma(p, xs, vs)
    w = p.omega
    calls = 0

    def omega2(xs, us):
        nonlocal calls
        calls += 1
        return w.omega2(xs, us)

    counted = dataclasses.replace(p, omega=dataclasses.replace(
        w, omega2=omega2))
    stats = StepStats()
    res = extend_section(counted, sig, stats=stats)
    assert stats == StepStats(steps=6, rejected=2, rhs_evals=198, segments=4,
                              windows=6)
    assert calls == 6
    assert np.array_equal(res.xi1, extend_section(p, sig).xi1)


def test_replaced_omega2_reaches_every_caller():
    # a ConnectionForm has one evaluator per field: an omega2 replaced by
    # dataclasses.replace is what curve coefficients, sampled bounds and
    # extensions all read, also when it is a functools.wraps wrapper, which
    # copies the wrapped function's attributes onto itself
    p = gauge_problem()
    w = p.omega

    @functools.wraps(w.omega2)
    def wrapped(xs, us):
        return 2.0 * w.omega2(xs, us)

    doubled = dataclasses.replace(w, omega2=wrapped)
    plain = dataclasses.replace(
        w, omega2=lambda xs, us: 2.0 * w.omega2(xs, us))
    curve = Curve(ScalarPath(eval=lambda ts: ts, deriv=np.ones_like),
                  ScalarPath(eval=lambda ts: 0.5 * ts,
                             deriv=lambda ts: np.full_like(ts, 0.5)),
                  0.0, 1.0)
    ts = np.linspace(0.1, 0.9, 9)
    got = curve_coefficient(doubled, curve).eval(ts)
    assert np.array_equal(got, curve_coefficient(plain, curve).eval(ts))
    np.testing.assert_allclose(got, -(w.omega1(ts, 0.5 * ts)
                                      + w.omega2(ts, 0.5 * ts)), rtol=1e-15)
    assert sample_connection_bounds(doubled).B2 == pytest.approx(
        2.0 * sample_connection_bounds(w).B2, rel=1e-12)
    xs, vs = default_grids(p)
    sig = build_sigma(p, xs, vs)
    ext = extend_section(dataclasses.replace(p, omega=doubled), sig)
    want = extend_section(dataclasses.replace(p, omega=plain), sig)
    assert np.array_equal(ext.xi0, want.xi0)
    assert not np.allclose(ext.xi0, extend_section(p, sig).xi0)


def test_extension_oscillating_graph_with_floor():
    p = gauge_problem()
    xs, vs = default_grids(p, nx_right=14, x_floor=1e-3)
    sig = build_sigma(p, xs, vs)
    res = extend_section(p, sig)
    assert res.accepted
    assert res.max_gap <= 1e-6


# ---------------------------------------------------------------------------
# residuals


def test_residual_zero_for_constant_section_flat_connection():
    p = flat_problem()
    xs = np.linspace(-1.5, 1.5, 11)
    vs = np.linspace(-1.5, 1.5, 11)
    xi = np.tile(p.sigma_seed, (11, 11, 1))
    for direction in (1, 2):
        res = parallel_residual(p.omega, xi, xs, vs, direction)
        # edge stencil weights cancel only to rounding on constant data
        assert np.max(res.values) <= 1e-14


def test_residual_detects_corrupted_point():
    p = gauge_problem()
    xs = np.linspace(-1.8, -0.2, 17)
    vs = np.linspace(-1.2, 1.2, 17)
    xi = np.empty((17, 17, 2))
    for ix, x in enumerate(xs):
        for iv, v in enumerate(vs):
            xi[ix, iv] = extension_gauge_oracle(x, v, "extension-gauge",
                                                p.p_ref, p.sigma_seed)
    clean = parallel_residual(p.omega, xi, xs, vs, 1).values
    # corrupt away from v = 0, where the x-component of the connection
    # vanishes and could not see the perturbation
    xi[8, 15] += 1e-2
    spiked = parallel_residual(p.omega, xi, xs, vs, 1).values
    assert np.max(clean) <= 1e-3
    assert spiked[8, 15] > 1e-3
    assert spiked[8, 15] > 100.0 * clean[8, 15]
    # the difference stencil spreads the spike to the x-neighbors too
    assert spiked[7, 15] > 1e-3 and spiked[9, 15] > 1e-3


def test_residual_of_extension_is_small_on_fine_grid():
    p = gauge_problem()
    xs = np.linspace(-1.2, -0.8, 21)  # spacing 0.02, left of the graph
    vs = np.linspace(-0.2, 0.2, 21)
    sig = build_sigma(p, xs, vs)
    res = extend_section(p, sig)
    r1 = parallel_residual(p.omega, res.xi0, xs, vs, 1)
    assert np.max(r1.values) <= 1e-5
    assert r1.warning is None


def test_residual_off_graph_bounded_on_extension_grid():
    # direction-1 residual of the accepted extension stays below 1e-4 away
    # from the graph (two grid spacings), evaluated per uniform x-block:
    # differences across the excluded strip around x = a are meaningless
    p = gauge_problem()
    xs_left = np.linspace(-1.6, -0.4, 25)
    xs_right = np.linspace(0.05, 1.6, 32)
    xs = np.concatenate([xs_left, xs_right])
    vs = np.linspace(-1.7, 1.7, 69)  # spacing 0.05
    sig = build_sigma(p, xs, vs)
    res = extend_section(p, sig)
    mask = near_graph_mask(p.f, p.a, xs, vs)
    split = len(xs_left)
    for theta_src in (res.xi0, res.xi1):
        for sl, block in ((slice(0, split), xs_left),
                          (slice(split, None), xs_right)):
            r = parallel_residual(p.omega, theta_src[sl], block, vs, 1)
            off = r.values[~mask[sl]]
            assert np.max(off) <= 1e-4


@pytest.mark.parametrize("kind", ["euclidean", "one-norm", "inf-norm"])
def test_residual_matches_pointwise_reference(kind):
    p = make_extension_problem("extension-twist", kind)
    xs = np.linspace(-1.5, -0.3, 7)
    vs = np.linspace(-1.2, 1.2, 9)
    rng = np.random.default_rng(5)
    xi = rng.normal(size=(7, 9, 2))
    for direction, omega in ((1, p.omega.omega1), (2, p.omega.omega2)):
        res = parallel_residual(p.omega, xi, xs, vs, direction)
        d = np.gradient(xi, xs if direction == 1 else vs,
                        axis=direction - 1, edge_order=2)
        for i, x in enumerate(xs):
            for j, v in enumerate(vs):
                want = vector_norm(d[i, j] + omega(x, v) @ xi[i, j], kind)
                assert res.values[i, j] == pytest.approx(want, rel=1e-14)


def test_residual_warns_on_coarse_grid():
    p = flat_problem()
    xs = np.linspace(-1.5, 1.5, 4)
    vs = np.linspace(-1.5, 1.5, 4)
    xi = np.tile(p.sigma_seed, (4, 4, 1))
    res = parallel_residual(p.omega, xi, xs, vs, 1)
    assert res.warning is not None and "coarse" in res.warning


def test_near_graph_mask_marks_the_strip():
    f = lambda x: 0.5 * math.sin(3.0 * x)
    xs = np.linspace(-1.0, 1.0, 5)
    vs = np.linspace(-1.0, 1.0, 21)  # spacing 0.1
    mask = near_graph_mask(f, 0.0, xs, vs)
    for ix, x in enumerate(xs):
        for iv, v in enumerate(vs):
            expected = x > 0.0 and abs(v - f(x)) < 0.2
            assert mask[ix, iv] == expected


# ---------------------------------------------------------------------------
# graph approximation


def test_approx_constant_function_degree_zero():
    ap = polynomial_graph_approx(lambda t: 2.5, Interval(0.0, 1.0),
                                 b=0.3, tube=0.1)
    assert ap.degree == 0
    assert ap(0.77) == 2.5
    assert ap(0.3) == 2.5


def test_approx_affine_reproduced_at_degree_one():
    ap = polynomial_graph_approx(lambda t: t, Interval(0.0, 1.0),
                                 b=0.42, tube=0.5)
    assert ap.degree == 1
    xs = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(ap(xs) - xs)) <= 1e-12
    assert ap(0.42) == pytest.approx(0.42, abs=1e-15)


def test_approx_oscillatory_function_within_tube():
    f = lambda t: math.sin(1.0 / t)
    interval = Interval(0.05, 1.0)
    ap = polynomial_graph_approx(f, interval, b=0.5, tube=0.1)
    assert ap.sup_error < 0.05
    assert ap.degree <= 2 ** 14
    # anchor matched to machine precision
    assert ap(0.5) == pytest.approx(f(0.5), abs=5e-15)
    # tube bound verified on a dense grid
    ts = np.linspace(0.05, 1.0, 10_001)
    fs = np.array([f(t) for t in ts])
    assert np.max(np.abs(ap(ts) - fs)) < 0.1


def test_approx_failure_carries_best_error():
    # a step cannot be uniformly approximated within a thin tube
    f = lambda t: 0.0 if t < 0.5 else 1.0
    with pytest.raises(ApproximationError) as err:
        polynomial_graph_approx(f, Interval(0.0, 1.0), b=0.25, tube=0.05,
                                degree_cap=256)
    assert err.value.achieved >= 0.025


def test_approx_validates_inputs():
    with pytest.raises(ValueError):
        polynomial_graph_approx(lambda t: t, Interval(0.0, 1.0), b=0.5,
                                tube=-1.0)
    with pytest.raises(ValueError):
        polynomial_graph_approx(lambda t: t, Interval(0.0, 1.0), b=2.0,
                                tube=0.1)
