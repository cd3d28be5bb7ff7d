import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from evostab.errors import IntegrationError
from evostab.evolution import (
    CoefficientPath,
    EvolutionOperator,
    StepStats,
    evolve,
    sweep_vector,
)
from evostab.evolution import _GAUSS, _bcr_exponent, _scan_last, expm
from evostab.calculus import Interval, integrate, pointwise, stacked
from evostab.library import (make_connection, make_extension_problem,
                             make_system)
from evostab.operators import VectorSpaceSpec, matrix_norm
from evostab.stability import assemble_A
from evostab.transport import _sine_paths, curve_coefficient

from conftest import rk4_propagator, smooth_corpus

SP1 = VectorSpaceSpec(1)
SP2 = VectorSpaceSpec(2)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def scalar_cos_path():
    return CoefficientPath(eval=stacked(lambda t: np.array([[math.cos(t)]])),
                           space=SP1)


def test_zero_coefficient_gives_identity():
    A = CoefficientPath(eval=stacked(lambda t: np.zeros((3, 3))),
                        space=VectorSpaceSpec(3))
    for s, t in [(0.0, 0.0), (-2.0, 5.0), (3.0, -1.0)]:
        x = evolve(A, s, t)
        assert np.allclose(x, np.eye(3), atol=1e-12)


def test_scalar_cosine_closed_form():
    A = scalar_cos_path()
    for s, t in [(0.0, math.pi / 2), (1.0, 4.0), (5.0, 2.0)]:
        x = evolve(A, s, t)
        assert x[0, 0] == pytest.approx(
            math.exp(math.sin(t) - math.sin(s)), abs=1e-9)


def test_constant_rotation_generator():
    A = CoefficientPath(eval=stacked(lambda t: ROT), space=SP2)
    x = evolve(A, 0.0, 1.3)
    expected = scipy.linalg.expm(1.3 * ROT)
    assert np.max(np.abs(x - expected)) <= 1e-9


def test_backward_is_inverse_of_forward(small_corpus):
    for A in small_corpus:
        x = evolve(A, 0.0, 2.0)
        back = evolve(A, 2.0, 0.0)
        eye = np.eye(A.space.dim)
        assert matrix_norm(back @ x - eye,
                           A.space.norm_kind) <= 1e-8


def test_identity_inverse_cocycle_laws(small_corpus):
    rng = np.random.default_rng(99)
    for A in small_corpus:
        assert np.array_equal(evolve(A, 1.0, 1.0),
                              np.eye(A.space.dim))
        for _ in range(10):
            s, t, u = rng.uniform(0.0, 3.0, size=3)
            xts = evolve(A, s, t)
            xst = evolve(A, t, s)
            xut = evolve(A, t, u)
            xus = evolve(A, s, u)
            kind = A.space.norm_kind
            eye = np.eye(A.space.dim)
            assert matrix_norm(xts @ xst - eye, kind) <= 1e-8
            assert matrix_norm(xut @ xts - xus, kind) <= 1e-8


def test_growth_within_coefficient_l1_estimate(small_corpus):
    for A in small_corpus:
        kind = A.space.norm_kind
        for s, t in [(0.0, 1.0), (0.5, 2.5)]:
            budget = integrate(
                lambda tau: matrix_norm(A(tau), kind), Interval(s, t))
            for m in (evolve(A, s, t), evolve(A, t, s)):
                assert matrix_norm(m, kind) <= \
                    math.exp(budget) + 1e-6


def test_adaptive_matches_fixed_step_oracle():
    A = smooth_corpus(seed=42, count=1, dims=(3,))[0]
    x = evolve(A, 0.0, 1.5, tol=1e-10)
    oracle = rk4_propagator(A, 0.0, 1.5, h=1e-5)
    assert np.max(np.abs(x - oracle)) <= 1e-7


def test_breakpoint_restart_handles_jump():
    # piecewise-constant scalar coefficient: closed form is a product of
    # two exponentials
    def ev(t):
        return np.array([[1.0 if t < 1.0 else -2.0]])

    A = CoefficientPath(eval=stacked(ev), space=SP1, breakpoints=(1.0,))
    x = evolve(A, 0.0, 2.0)
    assert x[0, 0] == pytest.approx(math.exp(1.0) * math.exp(-2.0),
                                            rel=1e-9)


def test_integration_failure_reports_location():
    A = CoefficientPath(
        eval=stacked(lambda t: np.array([[1.0 / (1.0 - t)]])), space=SP1)
    with pytest.raises(IntegrationError) as err:
        evolve(A, 0.0, 1.0)
    assert 0.9 <= err.value.location <= 1.0


def _magnus6_by_hand(A, t, h):
    # Blanes, Casas & Ros' 6th-order exponent on three Gauss-Legendre
    # nodes, written out one matrix at a time
    r = math.sqrt(15.0) / 10.0
    A1, A2, A3 = (A(t + c * h) for c in (0.5 - r, 0.5, 0.5 + r))

    def comm(x, y):
        return x @ y - y @ x

    a1 = h * A2
    a2 = math.sqrt(15.0) * h / 3.0 * (A3 - A1)
    a3 = 10.0 * h / 3.0 * (A3 - 2.0 * A2 + A1)
    c1 = comm(a1, a2)
    c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
    return a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def test_single_magnus_step_matches_formula():
    # one accepted step (loose tolerances, no cut) is the product of the
    # exponentials of its two half steps; the inverse that the two-sided
    # sweep carries with it, there in one step as well, is the product of
    # their inverses in reverse order
    A = smooth_corpus(seed=5, count=1, dims=(3,))[0]
    t0, h = 0.3, 0.2
    om1 = _magnus6_by_hand(A, t0, h / 2)
    om2 = _magnus6_by_hand(A, t0 + h / 2, h / 2)
    want = scipy.linalg.expm(om2) @ scipy.linalg.expm(om1)
    want_inv = scipy.linalg.expm(-om1) @ scipy.linalg.expm(-om2)
    stats = StepStats()
    got = evolve(A, t0, t0 + h, tol=1.0, stats=stats)
    assert stats.steps == 1 and stats.rejected == 0
    assert stats.rhs_evals == 9
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    ev = EvolutionOperator(A, [t0, t0 + h], tol=1.0)
    assert ev.step_stats.steps == 1 and ev.step_stats.rejected == 0
    got_inv = ev.query(t0, t0 + h)
    assert np.max(np.abs(got_inv - want_inv)) <= 1e-14 * np.max(
        np.abs(want_inv))


def test_blow_up_raises_integration_error_without_warnings():
    # x' = x / (5 - t)^2 blows up at t = 5: the state overflows before
    # the controller gives up, and no numpy warning may escape on the way
    A = CoefficientPath(
        eval=stacked(lambda t: np.array([[1.0 / (5.0 - t) ** 2]])),
        space=SP1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            evolve(A, 0.0, 6.0)
    assert 4.9 <= err.value.location < 5.0


def _fast_decay():
    return CoefficientPath(eval=lambda ts: np.full((len(ts), 1, 1), -100.0),
                           space=SP1)


def test_vector_sweep_of_a_fast_decay_underflows_to_zero():
    # x' = -100 x: e^-1000 underflows harmlessly to 0.0; the inverse
    # e^1000 would overflow, and a vector sweep does not carry it
    xs = sweep_vector(_fast_decay(), (0.0, 5.0, 10.0), [1.0])
    assert xs[0][0] == 1.0
    assert xs[1][0] == pytest.approx(math.exp(-500.0), rel=1e-9)
    assert xs[2][0] == 0.0


def test_propagator_overflow_is_located_at_its_window():
    # the propagator carries Phi^-1 = e^{100 t}, which overflows past
    # ln(max float) / 100 = 7.0978...: the sweep ends in the window where
    # that happens, and the stop before it stays queryable
    ev = EvolutionOperator(_fast_decay(), (0.0, 5.0, 10.0))
    assert ev.query(5.0, 0.0)[0, 0] == pytest.approx(
        math.exp(-500.0), rel=1e-9)
    with pytest.raises(IntegrationError, match="non-finite propagator") as err:
        ev.query(10.0, 0.0)
    # the failure names the last step boundary where Phi^-1 was finite:
    # one step (0.61 long here) before the overflow, inside its window
    overflow = math.log(np.finfo(float).max) / 100.0
    assert overflow - 1.0 < err.value.location < overflow
    assert ev.step_stats.steps < 100


def test_overflow_in_a_window_without_stops_is_located_there():
    # with stops (0, 1, 40), Phi^-1 = e^{100 t} of the propagator and the
    # state e^{100 t} of x' = 100 x overflow past 7.0978..., in windows
    # that reach no stop: the failure is located there, not at t = 40
    overflow = math.log(np.finfo(float).max) / 100.0
    growth = CoefficientPath(eval=lambda ts: np.full((len(ts), 1, 1), 100.0),
                             space=SP1)
    ev = EvolutionOperator(_fast_decay(), (0.0, 1.0, 40.0))
    with pytest.raises(IntegrationError, match="non-finite propagator") as err:
        ev.query(40.0, 0.0)
    with pytest.raises(IntegrationError,
                       match="non-finite propagator") as vector_err:
        sweep_vector(growth, (0.0, 1.0, 40.0), [1.0])
    for e in (err, vector_err):
        assert overflow - 1.0 < e.value.location < overflow


def test_window_products_that_overflow_alone_keep_a_finite_state():
    # A = -400 on [0, 1) and +400 after it: x(1) = e^-400, and a window on
    # [1, 3.5] overflows in its own step products e^{400 span} long before
    # the state does.  That window is formed again step by step, so the
    # finite x(3.5) = e^600 comes out of both routes, and so does Phi^-1
    A = CoefficientPath(
        eval=lambda ts: np.where(ts < 1.0, -400.0, 400.0)[:, None, None],
        space=SP1, breakpoints=(1.0,))
    stops = (0.0, 1.0, 3.0, 3.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = sweep_vector(A, stops, [1.0])
        ev = EvolutionOperator(A, stops)
    for t, x, ln in zip(stops, xs, (0.0, -400.0, 400.0, 600.0)):
        assert x[0] == pytest.approx(math.exp(ln), rel=1e-9)
        assert ev.query(t, 0.0)[0, 0] == pytest.approx(math.exp(ln),
                                                               rel=1e-9)
        assert ev.query(0.0, t)[0, 0] == pytest.approx(
            math.exp(-ln), rel=1e-9)
    assert ev.query(3.0, 3.5)[0, 0] == pytest.approx(
        math.exp(-200.0), rel=1e-9)


def test_window_products_that_underflow_alone_keep_a_normal_state():
    # A = +400 on [0, 1) and -400 after it: x(1) = e^400, and the products
    # of a window on [1, 3.5], e^{-400 span}, underflow to 0 long before
    # the state does.  That window is formed again step by step, so the
    # normal x(3.5) = e^-600 comes out of both routes
    A = CoefficientPath(
        eval=lambda ts: np.where(ts < 1.0, 400.0, -400.0)[:, None, None],
        space=SP1, breakpoints=(1.0,))
    stops = (0.0, 1.0, 3.0, 3.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = sweep_vector(A, stops, [1.0])
        ev = EvolutionOperator(A, stops)
    for t, x, ln in zip(stops, xs, (0.0, 400.0, -400.0, -600.0)):
        assert math.isclose(x[0], math.exp(ln), rel_tol=1e-9)
        assert math.isclose(ev.query(t, 0.0)[0, 0], math.exp(ln),
                            rel_tol=1e-9)


def _doubling_scan(a, mirrored=False):
    """The running products of the stack a by doubling, as the sweep forms
    the states at a window's boundaries: a[i] ... a[0] (mirrored:
    a[0] ... a[i]) at index i."""
    s = 1
    while s < len(a):
        step = a[:-s] @ a[s:] if mirrored else a[s:] @ a[:-s]
        a = np.concatenate((a[:s], step))
        s *= 2
    return a


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2, 2), (3, 3)])
def test_scan_last_is_the_last_running_product_bit_for_bit(shape):
    # a window that reaches no stop takes its end state from _scan_last,
    # the others from the whole scan: the two must agree to the bit, and
    # so must the state and Phi^-1 formed from them
    rng = np.random.default_rng(20260)
    states = [rng.normal(size=shape[:-1] + (c,)) for c in (1, 2)]
    inv = rng.normal(size=shape)
    for k in range(1, 17):
        a = rng.normal(size=(k,) + shape)
        ahead, back = _doubling_scan(a), _doubling_scan(a, mirrored=True)
        last, first_last = _scan_last(a), _scan_last(a, mirrored=True)
        assert last.tobytes() == ahead[-1].tobytes()
        assert first_last.tobytes() == back[-1].tobytes()
        for state in states:
            assert (last @ state).tobytes() == np.concatenate(
                ((state,), ahead @ state))[k].tobytes()
        assert (inv @ first_last).tobytes() == np.concatenate(
            ((inv,), inv @ back))[k].tobytes()


def test_non_finite_stages_are_rejected_until_integration_error():
    # an infinite coefficient from t = 1 on makes every stage that samples
    # it non-finite, and the tableau's zero entries carry 0 * inf = nan
    # into the 5th-order solution: such steps must all be rejected, so the
    # state stays exact up to the failure just short of t = 1
    def ev(t):
        return np.array([[0.5 if t < 1.0 else math.inf]])

    A = CoefficientPath(eval=stacked(ev), space=SP1)
    stats = StepStats()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            sweep_vector(A, [0.0, 0.9, 2.0], [1.0], stats=stats)
        assert sweep_vector(A, [0.0, 0.9], [1.0])[-1][0] == pytest.approx(
            math.exp(0.45), rel=1e-9)
    assert 0.9 < err.value.location < 1.0
    assert stats.rejected > 0


def test_propagate_vector_zero_stays_zero():
    A = scalar_cos_path()
    v = sweep_vector(A, (0.0, 3.0), np.zeros(1))[-1]
    assert np.array_equal(v, np.zeros(1))


def test_propagate_vector_scalar_closed_form():
    A = scalar_cos_path()
    v = sweep_vector(A, (0.0, math.pi / 2), np.ones(1))[-1]
    assert v[0] == pytest.approx(math.e, abs=1e-9)


def test_propagate_vector_agrees_with_operator_route():
    A = smooth_corpus(seed=5, count=1, dims=(3,))[0]
    v0 = np.array([0.3, -1.2, 0.7])
    via_vec = sweep_vector(A, (0.0, 2.0), v0)[-1]
    via_op = evolve(A, 0.0, 2.0) @ v0
    assert np.max(np.abs(via_vec - via_op)) <= 1e-8


# ---------------------------------------------------------------------------
# parameter-dependent families: D2 X = A(x, .) X over a set of x's, swept
# as one (k, r, r) stack of coefficients from a stack of identities


def family(A, xs, space):
    """The coefficient v -> (A(x, v) for x in xs), a (k, r, r) stack, and
    the (k, r, r) identities it sweeps."""
    xs = np.array(xs, dtype=float)
    return (CoefficientPath(eval=lambda vs: A(xs, vs[:, None]), space=space),
            np.tile(np.eye(space.dim), (len(xs), 1, 1)))


def test_family_zero_everywhere_identity():
    A, eye = family(pointwise(lambda x, v: np.zeros((2, 2))),
                    [0.0, 0.5, 1.0], SP2)
    swept = sweep_vector(A, (0.0, 0.5, 1.0), eye)
    assert swept.shape == (3, 3, 2, 2)
    assert np.allclose(swept, np.eye(2), atol=1e-12)


def test_family_separable_scalar():
    xs = [0.0, 0.7, 1.3]
    A, eye = family(pointwise(lambda x, v: np.array([[x]])), xs, SP1)
    for v in (0.0, 1.5):
        for x, got in zip(xs, sweep_vector(A, (0.5, v), eye)[-1]):
            assert got[0, 0] == pytest.approx(math.exp(x * (v - 0.5)),
                                              rel=1e-9)


def test_family_rotation_closed_form():
    # A(x, v) = v R commutes across v: the sweep is a rotation by
    # (v^2 - v0^2)/2, independent of x
    A, eye = family(pointwise(lambda x, v: v * ROT), [0.0, 1.0], SP2)
    for v in (2.0, 0.5):
        expected = scipy.linalg.expm(0.5 * (v * v - 1.0) * ROT)
        for got in sweep_vector(A, (1.0, v), eye)[-1]:
            assert np.max(np.abs(got - expected)) <= 1e-9


# ---------------------------------------------------------------------------
# the one-sweep two-parameter operator


def test_query_at_equal_times_is_exact_identity():
    ev = EvolutionOperator(scalar_cos_path(), [0.0, 5.0])
    assert np.array_equal(ev.query(2.7, 2.7), np.eye(1))


def test_query_matches_closed_form_and_laws():
    rng = np.random.default_rng(3)
    pairs = [tuple(rng.uniform(0.0, 15.0, size=2)) for _ in range(20)]
    s, t, u = 1.0, 6.5, 12.0
    times = [tau for pair in pairs for tau in pair] + [s, t, u]
    ev = EvolutionOperator(scalar_cos_path(), times, tol=1e-10)
    for s_, t_ in pairs:
        x = ev.query(t_, s_)[0, 0]
        assert x == pytest.approx(math.exp(math.sin(t_) - math.sin(s_)),
                                  abs=1e-8)
    q = ev.query
    assert matrix_norm(q(t, s) @ q(s, t) - np.eye(1),
                       "euclidean") <= 1e-8
    assert matrix_norm(q(u, t) @ q(t, s) - q(u, s),
                       "euclidean") <= 1e-8


def test_concurrent_queries_match_sequential():
    pairs = [(0.5 * i, 0.25 * i + 0.1) for i in range(16)]
    times = [tau for pair in pairs for tau in pair]
    seq_op = EvolutionOperator(scalar_cos_path(), times)
    sequential = [seq_op.query(t, s).copy() for s, t in pairs]
    par_op = EvolutionOperator(scalar_cos_path(), times)
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda p: par_op.query(p[1], p[0]),
                                 pairs))
    for a, b in zip(sequential, parallel):
        assert np.array_equal(a, b)


def test_query_outside_declared_times_is_rejected():
    ev = EvolutionOperator(scalar_cos_path(), [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        ev.query(1.5, 0.0)
    # query_stack refuses an undeclared time as query does, in either slot
    # and after a declared pair
    for t, s in ((0.5, 0.0), (1.0, 0.5)):
        for query in (ev.query,
                      lambda t, s: ev.query_stack([2.0, t], [1.0, s])):
            with pytest.raises(ValueError, match=r"^t = 0\.5 is not one of "
                               r"the sweep's times$"):
                query(t, s)


def _example39_sweep(n_pairs=40, seed=1):
    A = assemble_A(make_system("example39"))
    rng = np.random.default_rng(seed)
    pairs = np.sort(rng.uniform(0.0, 100.0, size=(n_pairs, 2)), axis=1)
    return A, pairs, EvolutionOperator(A, pairs.ravel(), tol=1e-10)


def test_sweep_matches_per_pair_evolve_on_example39():
    A, pairs, ev = _example39_sweep()
    for s, t in pairs:
        ref = evolve(A, s, t, 1e-10)
        for got, want in ((ev.query(t, s), ref),
                          (ev.query(s, t), np.linalg.inv(ref))):
            n_want = matrix_norm(want, "euclidean")
            assert abs(matrix_norm(got, "euclidean") - n_want) <= 1e-7 * n_want


def test_sweep_cost_on_example39():
    # one sweep of the endpoints' hull, which no breakpoint splits: one
    # segment.  Measured with Python 3.11 and numpy 2.4: 3,510 coefficient
    # values from 22 calls.  The sweep that clipped its steps to land on
    # every stop took 2,817 values from 313 calls, one per attempted step
    A, pairs, _ = _example39_sweep()
    calls, many = _counted(A.eval)
    ev = EvolutionOperator(CoefficientPath(eval=many, space=A.space),
                           pairs.ravel(), tol=1e-10)
    assert ev.step_stats.segments == 1
    assert ev.step_stats.rhs_evals <= 25_000
    assert calls["n"] <= 31


def _step_stream(stats):
    # what the step control decides: the same for any stops on one hull
    return stats.steps, stats.rejected, stats.windows, stats.segments


def _three_by_three(breakpoints=()):
    # not skew, and scipy's expm: A = skew part + cos(t) diag(0.3, -0.1, 0.2)
    return CoefficientPath(
        eval=lambda ts: _skew3(ts) + np.cos(ts)[:, None, None] * np.diag(
            [0.3, -0.1, 0.2]),
        space=VectorSpaceSpec(3), breakpoints=breakpoints)


def test_query_does_not_depend_on_the_other_stops():
    # the steps depend on (A, hull, tol) alone and a stop is reached by a
    # side step, so 40 more stops on the same hull change no bit of X(t, s)
    # and no count of the step stream: example39, and a 3x3 coefficient
    # with a breakpoint, whose exponentials are scipy's
    for A, s, t in ((assemble_A(make_system("example39")), 10.0, 60.0),
                    (_three_by_three((3.0,)), 0.5, 9.0)):
        extra = np.random.default_rng(5).uniform(s, t, size=40)
        alone = EvolutionOperator(A, [s, t], tol=1e-10)
        among = EvolutionOperator(A, [s, t, *extra], tol=1e-10)
        for x, y in ((t, s), (s, t)):
            assert alone.query(x, y).tobytes() == \
                among.query(x, y).tobytes()
        assert among.step_stats.steps == alone.step_stats.steps
        assert _step_stream(among.step_stats) == _step_stream(
            alone.step_stats)
        assert among.step_stats.rhs_evals > alone.step_stats.rhs_evals


def _constant(m, breakpoints=()):
    return CoefficientPath(eval=lambda ts: np.tile(m, (len(ts), 1, 1)),
                           space=VectorSpaceSpec(len(m)),
                           breakpoints=breakpoints)


@pytest.mark.parametrize("t0, t1, breakpoints, attempted", [
    # far from 0, where 0.3 is not a float step: after the first-step cut
    # h = 0.03, and the 11 steps' last boundary is t1 itself
    (1e6, 1e6 + 0.3, (), 12),
    # segments of 3 and 2 ulps on either side of a breakpoint: one step each
    (1.0 - 3 * math.ulp(1.0), 1.0 + 2 * math.ulp(1.0), (1.0,), 2),
    # 16 h (1 + 2^-52) for the cut's h = 1: one window of 16 steps, not 16
    # steps and a sliver, and no cut of a step stretched by rounding
    (0.0, 16.0 * (1.0 + 2.0 ** -52), (), 17),
])
def test_window_ends_on_the_segment_end(t0, t1, breakpoints, attempted):
    # a constant A = w J: every step is exact, so the attempts are the
    # first-step cut (h = 1 / w) and the windows that cross the span
    w = 100.0 / 3.0 if t0 == 1e6 else 1.0
    ev = EvolutionOperator(_constant(w * ROT, breakpoints), [t0, t1])
    stats = ev.step_stats
    assert stats.steps + stats.rejected == attempted
    assert stats.segments == 1 + len(breakpoints)
    want = scipy.linalg.expm((t1 - t0) * w * ROT)
    assert np.max(np.abs(ev.query(t1, t0) - want)) <= 1e-12


@pytest.mark.parametrize("r", [2, 3])
def test_non_finite_coefficient_ends_the_sweep_in_mid_window(r):
    # A = NaN from t = 1 on, no breakpoint there.  The whole hull's first
    # step has no node past 0.99; its cut gives h = 1/1.6, and the window
    # of two steps that follows meets the NaN in its second step.  The
    # sweep then ends within one step's overshoot of t = 1: the stops
    # before stay queryable, the later ones raise
    base = 0.4 * np.eye(r)
    base[0, r - 1] = 1.2

    def ev(ts):
        calls.append(np.array(ts))
        out = np.tile(base, (len(ts), 1, 1))
        out[np.asarray(ts) >= 1.0, 0, r - 1] = math.nan
        return out

    calls = []
    A = CoefficientPath(eval=ev, space=VectorSpaceSpec(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = EvolutionOperator(A, [0.0, 0.3, 0.6, 0.9, 1.02, 1.05])
    # the first call past t = 1 is the cut's window: it samples the nine
    # nodes of both its steps, and only the second step's reach t = 1
    seen = next(ts for ts in calls if np.any(ts >= 1.0))
    assert seen is calls[1]
    nine = np.concatenate((_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS))
    for start, past in ((0.0, False), (0.525, True)):
        nodes = start + 0.525 * nine
        assert np.all(np.min(np.abs(seen[:, None] - nodes), axis=0) <= 1e-15)
        assert np.any(nodes >= 1.0) == past
    for s, t in ((0.0, 0.9), (0.3, 0.6), (0.9, 0.3)):
        want = scipy.linalg.expm((t - s) * base)
        assert np.max(np.abs(op.query(t, s) - want)) <= 1e-12
    for s, t in ((0.0, 1.02), (1.05, 0.3)):
        with pytest.raises(IntegrationError) as err:
            op.query(t, s)
        assert 1.0 - 1e-12 <= err.value.location <= 1.0 + 0.06 * 0.525


def test_non_finite_side_step_ends_the_sweep():
    # A = NaN on (0.63, 0.735) only.  The hull [0, 1.05] is one step, whose
    # nodes miss that island and which is accepted; the side step to 0.735
    # samples it at 0.652.  Stops up to 0.5 stay queryable, the later ones
    # raise, and the failure names the step's start
    base = np.array([[0.1, 0.3], [0.0, 0.1]])

    def ev(ts):
        out = np.tile(base, (len(ts), 1, 1))
        ts = np.asarray(ts)
        out[(0.63 < ts) & (ts < 0.735)] = math.nan
        return out

    A = CoefficientPath(eval=ev, space=SP2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = EvolutionOperator(A, [0.0, 0.5, 0.735, 1.05])
    assert op.step_stats.steps == 1
    want = scipy.linalg.expm(0.5 * base)
    assert np.max(np.abs(op.query(0.5, 0.0) - want)) <= 1e-14
    for t in (0.735, 1.05):
        with pytest.raises(IntegrationError, match="non-finite") as err:
            op.query(t, 0.0)
        assert err.value.location == 0.0


def test_first_step_cut_is_not_undone_by_the_last_window_stretch():
    # intro-cos (x' = cos(t) x) on a window whose span lies in (16 h, 18 h]
    # for the cut's h: a last window stretched by up to 9/8 gave back the
    # step that the cut had just shrunk, and the same window repeated
    # until the step budget (21.7 M coefficient values and no row)
    from evostab.harness import run_scenario
    window = [float.fromhex("0x1.098caed65bdd5p+1"),
              float.fromhex("0x1.293e515ff6500p+4")]
    report = run_scenario("verify", {"system": {"builtin": "intro-cos"},
                                     "window": window, "num_pairs": 5})
    assert report.summary["pass"] and len(report.rows) == 5
    assert report.summary["cost"]["rhs_evals"] <= 1_000
    for s, t, norm_x, *_ in report.rows:
        assert norm_x == pytest.approx(math.exp(math.sin(t) - math.sin(s)),
                                       rel=1e-8)


def test_descending_sweep_locates_failures_in_the_callers_t():
    # a descending sweep runs on t -> -A(-t) over the negated stops, but
    # its failures name t: the step size underflows at the NaN below
    # c = 0.3, and a side step into a NaN island on (1.265, 1.37) names
    # its stop and the start of its step
    base = np.array([[0.1, 0.3], [-0.2, 0.1]])

    def path(bad):
        def ev(ts):
            out = np.tile(base, (len(ts), 1, 1))
            out[bad(np.asarray(ts))] = math.nan
            return out
        return CoefficientPath(eval=ev, space=SP2)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            sweep_vector(path(lambda ts: ts < 0.3), [2.0, 1.5, 0.5, -1.0],
                         [1.0, 0.5])
        assert abs(err.value.location - 0.3) <= 1e-12
        island = path(lambda ts: (1.265 < ts) & (ts < 1.37))
        with pytest.raises(IntegrationError, match=r"non-finite propagator "
                           r"at the stop 1\.265, reached from t = 2\.0") as err:
            sweep_vector(island, [2.0, 1.5, 1.265, 0.95], [1.0, 0.5])
        assert err.value.location == 2.0


def test_descending_sweep_is_the_reflected_forward_sweep():
    # bit for bit, breakpoints included: X(tau, s) v for descending stops
    # is the forward sweep of -A(-t) over the negated stops
    omega = make_extension_problem("extension-twist").omega
    A = CoefficientPath(eval=lambda vs: -omega.omega2(0.37, vs),
                        space=omega.space, breakpoints=(0.25,))
    reflected = CoefficientPath(eval=lambda vs: -A.eval(-vs),
                                space=A.space, breakpoints=(-0.25,))
    stops = [1.9, 1.2, 0.25, -0.4, -1.5]
    v = np.array([0.8, -0.3])
    down = sweep_vector(A, stops, v, 1e-10)
    up = sweep_vector(reflected, [-t for t in stops], v, 1e-10)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(down, up))


def test_vector_sweeps_do_not_depend_on_the_other_stops():
    # stops P alone and among more stops Q on the same hull give the same
    # bits at P and the same step stream, up or down, for sweep_vector (a
    # 2x2 coefficient, and a 3x3 one with a breakpoint) and for a (k, r, r)
    # family of coefficients alike
    omega = make_extension_problem("extension-twist").omega
    twist = CoefficientPath(eval=lambda vs: -omega.omega2(0.37, vs),
                            space=omega.space)
    p_stops = [-1.5, -0.2, 0.9, 1.9]
    q_stops = list(np.random.default_rng(11).uniform(-1.5, 1.9, size=9))
    both = sorted(p_stops + q_stops)
    for A, v in ((twist, np.array([0.8, -0.3])),
                 (_three_by_three((0.4,)), np.array([0.8, -0.3, 0.5])),
                 family(lambda x, u: -omega.omega2(x, u), [-1.7, 0.05, 1.6],
                        omega.space)):
        for order in (1, -1):
            stats = StepStats(), StepStats()
            alone = sweep_vector(A, p_stops[::order], v, 1e-10, stats[0])
            among = dict(zip(both[::order], sweep_vector(
                A, both[::order], v, 1e-10, stats[1])))
            for t, x in zip(p_stops[::order], alone):
                assert x.tobytes() == among[t].tobytes()
            assert _step_stream(stats[0]) == _step_stream(stats[1])


@pytest.mark.parametrize("name", ["extension-gauge", "extension-twist"])
def test_sweep_vector_matches_per_hop_propagation(name):
    omega = make_extension_problem(name).omega
    A = CoefficientPath(eval=lambda vs: -omega.omega2(0.37, vs),
                        space=omega.space)
    v = np.array([0.8, -0.3])
    up = list(np.linspace(-1.5, 1.9, 13))
    for stops in (up, up[::-1]):
        swept = sweep_vector(A, stops, v, 1e-10)
        want = v
        for a, b, got in zip(stops, stops[1:], swept[1:]):
            want = sweep_vector(A, (a, b), want, 1e-10)[-1]
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_sweep_restarts_at_a_breakpoint_between_stops():
    # piecewise-constant scalar coefficient with a jump at t = 1, which
    # lies strictly between two stops (and is a stop in the second list)
    def ev(t):
        return np.array([[1.0 if t < 1.0 else -2.0]])

    def exponent(t):
        return min(t, 1.0) - 2.0 * max(t - 1.0, 0.0)

    A = CoefficientPath(eval=stacked(ev), space=SP1, breakpoints=(1.0,))
    for stops in ([0.0, 0.4, 1.7, 2.5], [0.0, 1.0, 2.0]):
        for t, got in zip(stops, sweep_vector(A, stops, [1.0])):
            assert got[0] == pytest.approx(math.exp(exponent(t)), rel=1e-8)
    # nothing carries across the jump: the sweep is exactly two sweeps
    # that meet at the breakpoint, in either direction
    for stops, cut in (([0.0, 0.4, 1.7, 2.5], 2), ([2.5, 1.7, 0.4, 0.0], 2)):
        whole = sweep_vector(A, stops, [1.0])
        before = sweep_vector(A, stops[:cut] + [1.0], [1.0])
        after = sweep_vector(A, [1.0] + stops[cut:], before[-1])
        assert np.array_equal(whole, np.concatenate((before[:-1],
                                                     after[1:])))
    # a sweep crosses its stops in one direction
    with pytest.raises(ValueError, match="monotone"):
        sweep_vector(A, [0.0, 2.0, 1.0], [1.0])


@pytest.mark.parametrize("sweep", [
    # the identity came back, as if the sweep had reached t = nan
    lambda A: evolve(A, 0.0, math.nan),
    # one state came back for three stops
    lambda A: sweep_vector(A, [0.0, math.nan, 1.0], [1.0]),
    # v came back twice
    lambda A: sweep_vector(A, [math.nan, 1.0], [1.0]),
    # "cannot convert float NaN to integer" from the first window's size
    lambda A: sweep_vector(A, [0.0, math.inf], [1.0]),
    # the query raised TypeError, with no failure to raise
    lambda A: EvolutionOperator(A, [0.0, math.nan, 1.0]).query(1.0, 0.0),
], ids=["evolve-nan", "nan-inside", "nan-first", "inf-last", "operator"])
def test_non_finite_stops_are_refused(sweep):
    with pytest.raises(ValueError, match="stops of a sweep must be finite"):
        sweep(scalar_cos_path())


@pytest.mark.parametrize("name", ["extension-gauge", "extension-twist"])
def test_stacked_family_matches_per_column_evolve(name):
    omega = make_extension_problem(name).omega
    xs = [-1.7, -0.4, 0.05, 0.9, 1.6]
    A, eye = family(lambda x, v: -omega.omega2(x, v), xs, omega.space)
    # one sweep up from 0.3 and one down
    for stops in ([0.3, 0.6, 1.3, 1.9], [0.3, -0.2, -1.1, -1.8]):
        swept = sweep_vector(A, stops, eye, 1e-10)
        for ix, x in enumerate(xs):
            column = CoefficientPath(
                eval=stacked(lambda v, _x=x: -omega.omega2(_x, v)),
                space=omega.space)
            for v, got in zip(stops, swept[:, ix]):
                want = evolve(column, 0.3, v, 1e-10)
                assert np.linalg.norm(got - want) <= \
                    1e-9 * np.linalg.norm(want)


def test_step_stats_accumulate():
    stats = StepStats()
    A = scalar_cos_path()
    evolve(A, 0.0, 1.0, stats=stats)
    assert stats.steps > 0 and stats.rhs_evals > stats.steps
    steps = stats.steps
    evolve(A, 1.0, 2.0, stats=stats)
    assert stats.steps > steps


def _counted(fn):
    calls = {"n": 0}

    def counted(*args):
        calls["n"] += 1
        return fn(*args)

    return calls, counted


def test_one_batched_coefficient_call_per_window():
    # the coefficients of a window of up to 64 steps come from one call
    # over the 9 nodes of each step (the whole step's and its two
    # halves'); t is a boundary, not a side step, and nothing else calls A
    A = assemble_A(make_system("example39", f_name="sin"))
    sizes = []

    def many(ts):
        sizes.append(len(ts))
        return A.eval(ts)

    stats = StepStats()
    x = evolve(CoefficientPath(eval=many, space=A.space), 0.0, 30.0, 1e-10,
               stats)
    attempted = stats.steps + stats.rejected
    assert stats.segments == 1 and stats.rejected > 0
    assert all(size % 9 == 0 and 9 <= size <= 9 * 64 for size in sizes)
    assert len(sizes) < attempted / 4
    assert sum(sizes) == stats.rhs_evals == 9 * attempted
    assert np.array_equal(x, evolve(A, 0.0, 30.0, 1e-10))


def _sine_transport():
    # the sine-curve transport of gauge-twist, whose windows of 32 and 64
    # steps meet rejections
    return curve_coefficient(make_connection("gauge-twist"),
                             _sine_paths(-1.0, -1e-3))


@pytest.mark.parametrize("source, span, tol", [
    (lambda: assemble_A(make_system("example39", f_name="sin")),
     (0.0, 30.0), 1e-10),
    (_sine_transport, (-1.0, -1e-3), 1e-8),
], ids=["example39", "sine-transport"])
def test_windows_grow_while_the_step_size_holds(source, span, tol):
    # a window whose steps were all accepted, and after which the step
    # grew by at most 1.25, makes the next one up to twice as long, to 64
    # steps; a rejection (a first-step cut among them) brings it back to
    # 16.  Each window is one coefficient call over the 9 nodes of each
    # of its steps, the first Gauss nodes of the whole steps first
    A = source()
    stats = StepStats()
    sizes, lengths, rejected = [], [], []

    def many(ts):
        sizes.append(len(ts))
        # the first step's last Gauss node less its first
        span = ts[len(ts) * 2 // 3] - ts[0]
        lengths.append(span / (_GAUSS[2] - _GAUSS[0]))
        rejected.append(stats.rejected)  # as of the window before
        return A.eval(ts)

    evolve(CoefficientPath(eval=many, space=A.space,
                           breakpoints=A.breakpoints), *span, tol, stats)
    rejected.append(stats.rejected)
    assert stats.windows == len(sizes)
    assert max(sizes) == 9 * 64
    for i in range(len(sizes) - 1):
        if rejected[i + 1] > rejected[i]:
            assert sizes[i + 1] <= 9 * 16
        elif lengths[i + 1] > 1.25 * lengths[i] * (1.0 + 1e-12) and \
                i + 2 < len(sizes):  # the last window may stretch its steps
            assert sizes[i + 1] <= sizes[i]
        else:
            assert sizes[i + 1] <= 2 * sizes[i]


def test_pointwise_fallback_evaluates_nine_nodes_per_step():
    # a pointwise source under stacked is called at the 9 nodes of each
    # attempted step
    A = assemble_A(make_system("example39", f_name="sin"))
    calls, one = _counted(A)
    stats = StepStats()
    x = evolve(CoefficientPath(eval=stacked(one), space=A.space), 0.0, 30.0,
               1e-10, stats)
    attempted = stats.steps + stats.rejected
    assert calls["n"] == 9 * attempted
    assert stats.rhs_evals == 9 * attempted
    assert np.array_equal(x, evolve(A, 0.0, 30.0, 1e-10))


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_closed_form_2x2_exp_matches_scipy():
    # seeded stacks of the size of Magnus exponents (scipy's own error
    # grows past 1e-14 for entries of order 1 and more), one per sign of
    # the discriminant q = ((a - d)/2)^2 + bc, near q = 0 on both sides of
    # the series cutoff, and nilpotent N = M - tr(M)/2 I with q = 0 exactly
    rng = np.random.default_rng(7)
    stacks = {}
    m = 0.5 * rng.standard_normal((200, 2, 2))
    m[:, 1, 0] = -m[:, 0, 1] * rng.uniform(1.5, 3.0, 200)
    m[:, 1, 1] = m[:, 0, 0]
    stacks["complex"] = m
    m = 0.5 * rng.standard_normal((200, 2, 2))
    m[:, 1, 0] = m[:, 0, 1]
    stacks["real"] = m
    m = 0.5 * rng.standard_normal((200, 2, 2))
    p = 0.5 * (m[:, 0, 0] - m[:, 1, 1])
    q = np.concatenate((rng.uniform(-2e-2, 2e-2, 100),
                        rng.uniform(-1e-10, 1e-10, 100)))
    m[:, 1, 0] = (q - p * p) / m[:, 0, 1]
    stacks["near-zero"] = m
    m = np.zeros((5, 2, 2))
    m[:, 0, 1] = (1.0, -3.0, 0.5, 0.0, 2.0)
    m[:, 0, 0] = m[:, 1, 1] = (0.0, 1.0, -2.0, 0.3, 0.0)
    stacks["nilpotent"] = m
    for name, m in stacks.items():
        got = expm(m)
        assert got.shape == m.shape
        for g, w in zip(got, scipy.linalg.expm(m)):
            assert _rel(g, w) <= 1e-14, name
    # any leading stack shape, as the (nx, 2, 2) extension sweeps have
    m = stacks["real"][:24].reshape(2, 3, 4, 2, 2)
    assert np.array_equal(expm(m).reshape(24, 2, 2), expm(m.reshape(24, 2, 2)))


def _expm2_all_branches(m):
    # the closed form as it was before it was split by regime: every
    # branch over the whole stack, then selected by np.where
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    half = 0.5 * (a + d)
    p = 0.5 * (a - d)
    q = p * p + b * c
    small = np.abs(q) < 1e-2
    root = np.sqrt(np.where(small, 1.0, np.abs(q)))
    grows = q > 0.0
    ch = np.where(grows, np.cosh(root), np.cos(root))
    sh = np.where(grows, np.sinh(root), np.sin(root)) / root
    ch = np.where(small, 1.0 + q * (1 / 2 + q * (1 / 24 + q * (
        1 / 720 + q / 40320))), ch)
    sh = np.where(small, 1.0 + q * (1 / 6 + q * (1 / 120 + q * (
        1 / 5040 + q / 362880))), sh)
    scale = np.exp(half)
    ch = scale * ch
    sh = scale * sh
    out = np.empty(m.shape)
    out[..., 0, 0] = ch + sh * p
    out[..., 0, 1] = sh * b
    out[..., 1, 0] = sh * c
    out[..., 1, 1] = ch - sh * p
    return out


def _with_discriminants(q, rng):
    # 2x2 matrices whose q = ((a - d)/2)^2 + bc are the given ones
    m = rng.standard_normal((len(q), 2, 2))
    m[:, 0, 1] = rng.uniform(0.5, 2.0, len(q))
    p = 0.5 * (m[:, 0, 0] - m[:, 1, 1])
    m[:, 1, 0] = (np.asarray(q) - p * p) / m[:, 0, 1]
    return m


def test_expm2_regimes_keep_the_bits_of_all_branches():
    # the regime split skips whole branches, never an entry's own: every
    # stack below, of every mix of regimes, keeps the bits of the closed
    # form that computes all of them
    rng = np.random.default_rng(23)
    small = rng.uniform(-9e-3, 9e-3, 40)
    grows = rng.uniform(1e-2, 30.0, 40)
    turns = -rng.uniform(1e-2, 30.0, 40)
    stacks = {
        "all-small": small, "none-small": np.concatenate((grows, turns)),
        "mixed": np.concatenate((small, grows, turns)),
        "all-positive": grows, "all-negative": turns,
        # one sign throughout, small members included
        "small-and-positive": np.concatenate((np.abs(small[:5]), grows)),
        "small-and-negative": np.concatenate((turns, -np.abs(small[:5]))),
        "zero": np.zeros(3), "one-zero": np.concatenate(([0.0], grows)),
    }
    for name, q in stacks.items():
        m = _with_discriminants(q, rng)
        for shape in (m.shape, (len(q), 1, 2, 2)):
            want = _expm2_all_branches(m.reshape(shape))
            assert np.array_equal(expm(m.reshape(shape)), want), name
    # a nilpotent N: q = 0 exactly
    m = np.array([[[0.3, 2.0], [0.0, 0.3]], [[1.0, 0.0], [-4.0, 1.0]]])
    assert np.array_equal(expm(m), _expm2_all_branches(m))
    # one matrix, not a stack
    for q in (0.0, 5e-3, 2.0, -2.0):
        m = _with_discriminants([q], rng)[0]
        assert np.array_equal(expm(m), _expm2_all_branches(m))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_expm2_regimes_keep_the_bits_of_non_finite_entries(bad):
    # non-finite entries reach expm only inside the sweep, where numpy's
    # warnings are off: compare there, NaN for NaN, in every mix of
    # regimes.  Outside it, the split warns only where all branches did
    rng = np.random.default_rng(29)
    for q in ([1.0, 2.0], [-1.0, -2.0], [1e-3, -1e-3], [1e-3, 3.0, -3.0]):
        for entry in ((0, 0), (0, 1), (1, 0), (1, 1)):
            m = _with_discriminants(q, rng)
            m[0][entry] = bad
            with np.errstate(all="ignore"):
                want = _expm2_all_branches(m)
                assert np.array_equal(expm(m), want, equal_nan=True)
            try:
                _expm2_all_branches(m)
            except RuntimeWarning:
                continue
            assert np.array_equal(expm(m), want, equal_nan=True)


def _two_by_two(ts):
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.shape + (2, 2))
    out[..., 0, 0] = np.sin(ts)
    out[..., 0, 1] = 1.0 + 0.5 * np.cos(2.0 * ts)
    out[..., 1, 0] = -1.0 + 0.3 * ts
    out[..., 1, 1] = -0.2 * np.cos(ts)
    return out


def test_a_nan_error_is_the_worst_error_of_its_window():
    # A is NaN past t = 1.  The first window after the cut takes steps of
    # 1/8 from 0 and rejects its 9th, whose error is NaN: that NaN, not
    # the roundoff-sized errors of the accepted steps before it, is the
    # worst error, so the next window's steps are a fifth as long.  The
    # counts are the sweep's when this verdict ran on numpy arrays; a
    # NaN left out of the worst error lets the next step grow instead,
    # which costs 28 more rejected steps (3,042 coefficient values)
    base = 20.0 * np.array([[0.1, 0.3], [-0.2, 0.1]])

    def ev(ts):
        out = np.tile(base, (len(ts), 1, 1))
        out[np.asarray(ts) > 1.0] = math.nan
        return out

    stats = StepStats()
    with pytest.raises(IntegrationError, match="underflow") as err:
        sweep_vector(CoefficientPath(eval=ev, space=SP2), [0.0, 3.0],
                     [1.0, 0.5], 1e-10, stats)
    assert err.value.location == 1.0
    assert stats == StepStats(steps=8, rejected=302, rhs_evals=2790,
                              segments=1, windows=21)


def _pin_path(breakpoints=()):
    return CoefficientPath(eval=_two_by_two, space=SP2,
                           breakpoints=breakpoints)


def _pin_stack(ts):
    # three coefficients swept together: a (len(ts), 3, 2, 2) stack
    ts = np.asarray(ts, dtype=float)
    return np.stack([_two_by_two(c * ts) for c in (1.0, 0.5, -0.7)], axis=1)


# stop layouts of the windowed sweep, with the sha256 of the bytes of
# their states and the sweep's (steps, rejected, rhs_evals, segments), as
# the sweep gave them when its window control ran on numpy arrays
STOP_LAYOUTS = {
    "duplicate-stops": (
        _pin_path(), [0.0, 1.5, 1.5, 3.0, 3.0],
        "8d197b7ae48c29f1182ad5873eb3034cd3c6b77964e7bf1179cfc1560df1e3dd",
        "982546bc0f3c3bbcd0c61a4514f2346be4a08404306c12d25b3504154604bec8",
        (24, 7, 291, 1)),
    # on [0, 6] the window after the first-step cuts ends at
    # 2.008330818639583, and 3.134975776403193 is a step boundary inside
    # the next window: past the cuts neither takes a side step (the 12
    # values over the 495 of the stops (0, 6) are the cut windows')
    "on-window-boundaries": (
        _pin_path(), [0.0, 2.008330818639583, 3.134975776403193, 6.0],
        "66d1db67d79f33cac9e52b4af9be5425cf858dc9f71d184f694ce8db019b3ed6",
        "666de82c348864609cd2eea9cfd2c639ca2593da4efe63fc23338604479bfe11",
        (43, 12, 507, 1)),
    "hull-end-on-a-breakpoint": (
        _pin_path((6.0,)), [0.0, 5.9, 6.0],
        "52f7d51589160de1de4f522f3aa30513e37eba5ffcffd960db3c2737bcd2e7fc",
        "88bae134640b0d549497ddbf737f67f5496b141a7737bda62f075fec239fb38a",
        (43, 12, 504, 1)),
    "one-stop": (
        _pin_path(), [2.0],
        "20e3c1076fa828cd3a7aafa7fd891ec746567cb51755be34c4f384a0929c9eb6",
        "07ea47b9b2dfc1615fd554ebd45ff7ab2a36b5ab674c8e37f22df1ccf74f8422",
        (0, 0, 0, 0)),
    "descending": (
        _pin_path((1.2,)), [5.0, 3.0, 0.5, -1.0],
        "c4db688cecfbc8ac882d126883555c36b558ec90f4132900432de3f61faffce1",
        "4a89479de8b733d2ca51dd7551c9e635a3d1482456cae8fcd573a35f09bb15ef",
        (46, 13, 549, 2)),
    "breakpoint-between-stops": (
        _pin_path((1.2,)), [0.0, 1.0, 2.0, 3.5],
        "d5fe74108cc9055905bc8fd3d9160650dc962f24998aef652aba2018b3778df4",
        "ef5cc32945edd411ac397889d9be4db772c75630c41e577ecdff2c2823ab01e9",
        (26, 9, 333, 2)),
    "stacked-state": (
        CoefficientPath(eval=_pin_stack, space=SP2), [0.0, 0.7, 0.7, 2.9],
        "76b81f5127a6301fa4d301a3d52a5bd1ba82c4048b14dcf2e0876480c3fc2798",
        None,
        (23, 7, 288, 1)),
}


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _layout_digests(name):
    A, stops = STOP_LAYOUTS[name][:2]
    stacked_state = A.eval is _pin_stack
    v = (0.1 * np.arange(12.0).reshape(3, 2, 2) - 0.4 if stacked_state
         else np.array([[0.8, 0.2], [-0.3, 1.1]]))
    stats = StepStats()
    states = _digest(sweep_vector(A, stops, v, 1e-10, stats))
    pairs = None
    if not stacked_state:
        ev = EvolutionOperator(A, stops, 1e-10)
        # the same steps, whatever the side steps
        assert (ev.step_stats.steps, ev.step_stats.rejected) == (
            stats.steps, stats.rejected)
        # Phi and Phi^{-1} at every stop, in the order of the stops
        assert len(ev._phi) == len(ev._inv) == len(set(stops))
        pairs = _digest(x for pair in zip(ev._phi, ev._inv) for x in pair)
    return states, pairs, (stats.steps, stats.rejected, stats.rhs_evals,
                           stats.segments)


@pytest.mark.parametrize("name", sorted(STOP_LAYOUTS))
def test_stop_layouts_keep_their_bytes(name):
    assert _layout_digests(name) == STOP_LAYOUTS[name][2:]


def test_fixed_step_magnus_is_sixth_order():
    # whole-step exponents at a fixed h on a non-commuting coefficient:
    # halving h divides the error by 2^6 = 64
    A = CoefficientPath(eval=_two_by_two, space=SP2)

    def fixed(n):
        h, x = 2.0 / n, np.eye(2)
        for i in range(n):
            coef = A.eval(i * h + _GAUSS * h)
            x = expm(_bcr_exponent(coef[0], coef[1], coef[2], h)) @ x
        return x

    want = evolve(A, 0.0, 2.0, 1e-14)
    errs = [np.max(np.abs(fixed(n) - want)) for n in (8, 16, 32)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 56.0 <= coarse / fine <= 72.0


def test_determinant_follows_the_trace_integral():
    # det X(t, 0) = exp(int_0^t tr A) holds to roundoff: the commutators
    # are traceless, and the Gauss nodes integrate this linear trace exactly
    def ev(ts):
        ts = np.asarray(ts, dtype=float)
        tr = -0.01 + 2e-4 * ts
        out = np.empty(ts.shape + (2, 2))
        out[..., 0, 0] = 0.5 * tr + 0.1 * np.sin(ts)
        out[..., 0, 1] = np.cos(ts) + 0.2
        out[..., 1, 0] = -np.cos(ts) - 0.1 * np.sin(3.0 * ts)
        out[..., 1, 1] = 0.5 * tr - 0.1 * np.sin(ts)
        return out

    stops = list(np.linspace(0.0, 100.0, 21))
    A = CoefficientPath(eval=ev, space=SP2)
    for t, x in zip(stops, sweep_vector(A, stops, np.eye(2))):
        want = math.exp(-0.01 * t + 1e-4 * t * t)
        assert abs(np.linalg.det(x) - want) <= 1e-13 * want


def _skew3(ts):
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.shape + (3, 3))
    out[..., 0, 1] = np.sin(ts)
    out[..., 0, 2] = np.cos(0.7 * ts) + 0.5
    out[..., 1, 2] = 0.3 * np.sin(2.1 * ts)
    return out - np.swapaxes(out, -1, -2)


@pytest.mark.parametrize("r", [2, 3])
def test_skew_coefficient_gives_orthogonal_propagators(r):
    A = CoefficientPath(eval=lambda ts: _skew3(ts)[..., :r, :r],
                        space=VectorSpaceSpec(r))
    stops = list(np.linspace(0.0, 100.0, 21))
    for x in sweep_vector(A, stops, np.eye(r)):
        assert np.max(np.abs(x.T @ x - np.eye(r))) <= 1e-13


def test_three_by_three_sweep_goes_through_scipy_expm(monkeypatch):
    # A(t) = cos(t) B commutes with itself, so X(t, 0) = expm(sin(t) B);
    # every exponential of the 3x3 sweep is scipy's, and none of a 2x2 one
    calls = {"expm": 0, "eval": 0}
    scipy_expm = scipy.linalg.expm

    def counted(m):
        calls["expm"] += 1
        return scipy_expm(m)

    def ev(ts):
        calls["eval"] += 1
        return np.cos(ts)[:, None, None] * B

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    B = np.array([[0.1, 1.0, -0.3], [-0.8, 0.0, 0.4], [0.2, -0.5, -0.2]])
    A = CoefficientPath(eval=ev, space=VectorSpaceSpec(3))
    stops = [0.0, 1.0, 2.5, 4.0]
    stats = StepStats()
    for t, x in zip(stops, sweep_vector(A, stops, np.eye(3), stats=stats)):
        want = scipy_expm(math.sin(t) * B)
        assert np.max(np.abs(x - want)) <= 1e-9
    # three windows, one coefficient call each: the first-step cut, then
    # two windows of steps with one expm call each (the first cut short
    # by a rejection, whose 6 later steps count as rejected too)
    assert stats == StepStats(steps=10, rejected=7, rhs_evals=171, segments=1,
                              windows=3)
    assert calls == {"expm": 2, "eval": 3}
    evolve(CoefficientPath(eval=_two_by_two, space=SP2), 0.0, 3.0)
    assert calls["expm"] == 2


@pytest.mark.parametrize("r", [2, 3])
def test_non_finite_matrix_coefficient_ends_in_integration_error(r):
    # closed-form and scipy exponentials of NaN exponents alike give a
    # non-finite error estimate, rejections, then the failure: no warning.
    # The Gauss nodes are interior, so the last accepted step may end a
    # little past t = 1 (by at most 6% of its length)
    base = 0.1 * np.eye(r)
    base[0, 1] = 0.3

    def ev(ts):
        out = np.tile(base, (len(ts), 1, 1))
        out[np.asarray(ts) >= 1.0, 0, r - 1] = math.nan
        return out

    A = CoefficientPath(eval=ev, space=VectorSpaceSpec(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            evolve(A, 0.0, 2.0)
    assert 0.9 < err.value.location < 1.01
