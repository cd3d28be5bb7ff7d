import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from evostab.calculus import (Interval, OperatorField, Partition, ScalarPath,
                              integrate, pointwise, stacked,
                              tv_l1_upper_bound)
from evostab.errors import (DomainViolationError, ExpressionError,
                            IntegrationError, InvalidOperatorError,
                            QuadratureError)
from evostab.evolution import CoefficientPath, EvolutionOperator, evolve
from evostab.cli import main as cli_main
from evostab.harness import _SYSTEM, _read, run_scenario
from evostab.library import (constant_matrix, expression_system,
                             make_scalar_path, make_system)
from evostab.operators import NORM_KINDS, Operator, VectorSpaceSpec, matrix_norm
from evostab.stability import (
    BoundCertificate,
    SeparableSystem,
    assemble_A,
    certify,
    frozen_system,
    substitution_check,
    verify_certificate,
)

SP1 = VectorSpaceSpec(1)
SP2 = VectorSpaceSpec(2)
ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def unit_field(space=SP1):
    return OperatorField(
        eval=pointwise(lambda t, u: np.eye(space.dim)), space=space,
        partial_t=pointwise(lambda t, u: np.zeros((space.dim, space.dim))),
        u_independent=True,
    )


def sin_path():
    return ScalarPath(eval=stacked(math.sin), deriv=stacked(math.cos))


# ---------------------------------------------------------------------------
# coefficient assembly


def test_assemble_constant_path_gives_zero():
    f = ScalarPath(eval=stacked(lambda t: 0.3), deriv=stacked(lambda t: 0.0))
    sys = SeparableSystem(G=unit_field(), f=f, I=Interval(0, 10),
                          J=Interval(0, 1), space=SP1)
    A = assemble_A(sys)
    for t in (0.0, 1.7, 9.9):
        assert np.array_equal(A(t), np.zeros((1, 1)))


def test_assemble_reproduces_scalar_cosine():
    sys = SeparableSystem(G=unit_field(), f=sin_path(), I=Interval(0, 100),
                          J=Interval(-1, 1), space=SP1)
    A = assemble_A(sys)
    for t in (0.0, 0.5, 2.0):
        assert A(t)[0, 0] == pytest.approx(math.cos(t), rel=1e-12)


def test_assemble_spot_checks_settling_field():
    field = make_system("example39").G
    sys = SeparableSystem(G=field, f=sin_path(), I=Interval(0, math.inf),
                          J=Interval(-1, 1), space=field.space)
    A = assemble_A(sys)
    for t in (0.0, 1.0, 10.0):
        expected = math.cos(t) * np.array([
            [2 * math.atan(t), math.sqrt(t + 1) - math.sqrt(t)],
            [-1.0 / (1 + t * t), 1 + math.exp(-t)],
        ])
        assert np.max(np.abs(A(t) - expected)) <= 1e-14


def test_assemble_rejects_path_escaping_J():
    f = ScalarPath(eval=stacked(lambda t: 2.0 * math.sin(t)),
                   deriv=stacked(lambda t: 2.0 * math.cos(t)))
    sys = SeparableSystem(G=unit_field(), f=f, I=Interval(0, 10),
                          J=Interval(-1, 1), space=SP1)
    A = assemble_A(sys)
    with pytest.raises(DomainViolationError):
        A(math.pi / 2)


@pytest.mark.parametrize("field", ["example39", "intro-cos", "rotation"])
def test_assembled_stack_with_sin_is_the_pointwise_stack_bit_for_bit(field):
    # f = sin is batched (numpy's float64 sin and cos agree with math's
    # bit for bit on x86-64, numpy 2.4); G is evaluated at each (t, f(t)).
    # The reference is the pointwise f'(t) G(t, f(t)) through math
    sys = make_system(field, f_name="sin")
    G = sys.G
    A = assemble_A(sys)
    rng = np.random.default_rng(8)
    ts = np.concatenate([rng.uniform(0.0, 100.0, 500), [0.0, math.pi]])
    want = np.array([math.cos(t) * np.asarray(G.eval(t, math.sin(t)),
                                              dtype=float)
                     for t in ts.tolist()])
    assert A.eval(ts).tobytes() == want.tobytes()


def test_assembled_stack_rejects_the_first_stage_escaping_J():
    f = ScalarPath(eval=lambda ts: 2.0 * np.sin(ts),
                   deriv=lambda ts: 2.0 * np.cos(ts))
    sys = SeparableSystem(G=unit_field(), f=f, I=Interval(0, 10),
                          J=Interval(-1, 1), space=SP1)
    A = assemble_A(sys)
    A(0.1)
    with pytest.raises(DomainViolationError) as batched:
        A.eval(np.array([0.1, 1.0, 1.5]))
    # the same path from a pointwise source, one time at a time
    looped = assemble_A(dataclasses.replace(sys, f=dataclasses.replace(
        f, eval=stacked(lambda t: 2.0 * math.sin(t)),
        deriv=stacked(lambda t: 2.0 * math.cos(t)))))
    with pytest.raises(DomainViolationError) as pointwise:
        looped.eval(np.array([0.1, 1.0, 1.5]))
    assert str(batched.value) == str(pointwise.value)
    assert "f(1.0)" in str(batched.value)



def test_replaced_path_evaluator_reaches_every_caller():
    # a ScalarPath has one evaluator per quantity, so a field replaced by
    # dataclasses.replace leaves no stale batched twin behind
    sin = make_scalar_path("sin", Interval(0.0, 10.0))
    G = OperatorField(eval=pointwise(lambda t, u: np.array([[u]])), space=SP1,
                      partial_t=pointwise(lambda t, u: np.array([[0.0]])))
    ts = np.array([0.3, 1.1, 2.0])
    half = dataclasses.replace(sin, eval=lambda ts: 0.5 * np.sin(ts))
    assert half(0.3) == 0.5 * math.sin(0.3)
    A = assemble_A(SeparableSystem(G=G, f=half, I=Interval(0, 10),
                                   J=Interval(-1, 1), space=SP1))
    assert np.array_equal(A.eval(ts)[:, 0, 0], np.cos(ts) * 0.5 * np.sin(ts))
    # a replaced deriv reaches d, d_many and the stack
    slow = dataclasses.replace(sin, deriv=lambda ts: 0.25 * np.cos(ts))
    assert np.array_equal(slow.d_many(ts), 0.25 * np.cos(ts))
    assert slow.d(1.1) == 0.25 * math.cos(1.1)
    A = assemble_A(SeparableSystem(G=G, f=slow, I=Interval(0, 10),
                                   J=Interval(-1, 1), space=SP1))
    assert np.array_equal(A.eval(ts)[:, 0, 0], 0.25 * np.cos(ts) * np.sin(ts))


def test_replaced_field_evaluator_reaches_certify_assemble_and_verify():
    # an OperatorField has one evaluator, so the certificate and the
    # propagators it bounds read the same G after dataclasses.replace
    bag = []
    sys = _read(_SYSTEM, {"G": [["u", "0"], ["0", "1"]], "f": "sin(t)",
                          "J": [-1.0, 1.0]}, bag)
    assert not bag
    five = lambda ts, us: 5.0 * np.broadcast_to(
        np.eye(2), np.broadcast_shapes(np.shape(ts), np.shape(us)) + (2, 2))
    sys = dataclasses.replace(sys, G=dataclasses.replace(sys.G, eval=five))
    cert = certify(sys, Interval(0.0, 1.0))
    assert cert.gain == pytest.approx(math.exp(10.0), rel=1e-12)
    assert cert.variation == 0.0
    np.testing.assert_allclose(assemble_A(sys)(0.3),
                               5.0 * math.cos(0.3) * np.eye(2), rtol=1e-9)
    report = verify_certificate(sys, cert, [(0.0, 1.0)])
    assert report.passed
    assert report.rows[0].norm_X == pytest.approx(
        math.exp(5.0 * math.sin(1.0)), rel=1e-9)

# ---------------------------------------------------------------------------
# certificates


def test_certificate_unit_field_forced_values():
    f = ScalarPath(eval=stacked(lambda t: 0.5 + 0.4 * math.sin(t)),
                   deriv=stacked(lambda t: 0.4 * math.cos(t)))
    sys = SeparableSystem(G=unit_field(), f=f, I=Interval(0, 50),
                          J=Interval(0, 1), space=SP1)
    cert = certify(sys, Interval(0, 20))
    assert cert.gain == pytest.approx(math.e, rel=1e-12)
    assert cert.variation == 0.0
    assert cert.bound == pytest.approx(math.e ** 2, rel=1e-12)
    assert not cert.overflow


def test_certificate_time_independent_field_has_zero_variation():
    m = np.array([[0.2, 0.1], [0.0, -0.3]])
    G = OperatorField(eval=pointwise(lambda t, u: m), space=SP2,
                      partial_t=pointwise(lambda t, u: np.zeros((2, 2))),
                      u_independent=True)
    f = ScalarPath(eval=stacked(lambda t: 0.5 * math.sin(t)),
                   deriv=stacked(lambda t: 0.5 * math.cos(t)))
    sys = SeparableSystem(G=G, f=f, I=Interval(0, 100), J=Interval(-1, 1),
                          space=SP2)
    cert = certify(sys, Interval(0, 30))
    assert cert.variation == pytest.approx(0.0, abs=1e-12)
    assert cert.bound == pytest.approx(cert.gain ** 2, rel=1e-12)


def test_certificate_stores_are_consistent():
    # the bound is computed from (gain, variation), never passed in
    cert = BoundCertificate(gain=2.0, variation=0.1, window=Interval(0, 1),
                            sup_grid=17)
    assert cert.bound == pytest.approx(
        4.0 * math.exp(2.0 ** 7 * 0.1), rel=1e-12)
    assert cert.log_bound == pytest.approx(math.log(cert.bound), rel=1e-12)
    assert not cert.overflow
    for name in ("bound", "log_bound", "overflow"):
        with pytest.raises(TypeError, match=name):
            BoundCertificate(gain=2.0, variation=0.1, window=Interval(0, 1),
                             sup_grid=17, **{name: 1.0})
    # a copy with another variation recomputes its bound
    assert dataclasses.replace(cert, variation=0.0).bound == 4.0


def test_certificate_overflow_saturates_with_flag():
    cert = BoundCertificate(gain=500.0, variation=5.0, window=Interval(0, 1),
                            sup_grid=17)
    assert cert.bound == math.inf
    assert cert.overflow


def test_an_infinite_gain_carries_its_log():
    # N = e^800 overflows: the certificate keeps ln N and saturates C
    cert = BoundCertificate(gain=math.inf, variation=5.0,
                            window=Interval(0, 1), sup_grid=17, log_gain=800.0)
    assert cert.log_gain == 800.0
    assert cert.bound == math.inf and cert.overflow
    assert cert.log_log_bound == math.inf
    # V = 0: C = N^2, and the exponent's log is -inf, not inf - inf
    assert dataclasses.replace(cert, variation=0.0).log_log_bound == -math.inf
    # a finite gain's log is its own, whatever was passed
    assert dataclasses.replace(cert, gain=2.0).log_gain == math.log(2.0)
    for log_gain in (None, 700.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="log_gain"):
            BoundCertificate(gain=math.inf, variation=5.0,
                             window=Interval(0, 1), sup_grid=17,
                             log_gain=log_gain)


def test_certificate_settling_field_matches_double_resolution_oracle():
    sys = make_system("example39")
    window = Interval(0.0, 100.0)
    cert = certify(sys, window)
    # brute-force recomputation on dense uniform grids
    ts = np.linspace(0.0, 100.0, 8193)
    mats = np.stack([sys.G.eval(t, 0.0) for t in ts])
    norms = np.linalg.svd(mats, compute_uv=False)[:, 0]
    gain_oracle = math.exp(2.0 * float(norms.max()))
    variation_oracle = 2.0 * float(sum(
        np.linalg.svd(b - a, compute_uv=False)[0]
        for a, b in zip(mats[:-1], mats[1:])))
    assert cert.gain == pytest.approx(gain_oracle, rel=1e-3)
    assert cert.variation == pytest.approx(variation_oracle, rel=1e-3)
    assert cert.overflow and cert.bound == math.inf


def test_certificate_ignores_the_scalar_path():
    # certificates depend on (G, J, window) only
    base = make_system("example39", f_name="sin")
    other = make_system("example39", f_name="sawtooth")
    c1 = certify(base, Interval(0, 10))
    c2 = certify(other, Interval(0, 10))
    assert c1.gain == c2.gain and c1.variation == c2.variation


def _sigma_max(a, b, c, d):
    """The largest singular value of [[a, b], [c, d]]."""
    return 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))


def test_u_independent_expression_field_certifies_its_exact_variation():
    # no entry has a u in it, so the field is u-independent and its exact
    # d/dt G puts it in derivative mode; V = |J| int_0^10 ||d/dt G||,
    # against scipy's quad of the analytic derivative (error estimate
    # 7e-13), from one integral of 45 panels in t
    config = {"system": {"G": [["atan(t)", "0.1"], ["sin(t)", "exp(-t)"]],
                         "f": "t", "J": [-1, 1]},
              "window": [0, 10]}
    summary = run_scenario("certify", config).summary
    assert summary["variation_mode"] == "derivative"
    assert summary["cost"] == {"quad_panels": 45, "quad_nodes": 675}
    oracle = 2.0 * scipy.integrate.quad(
        lambda t: _sigma_max(1.0 / (1.0 + t * t), 0.0, math.cos(t),
                             -math.exp(-t)),
        0.0, 10.0, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    assert oracle == pytest.approx(14.374632584185628, abs=1e-11)
    assert abs(summary["variation"] - oracle) <= 1e-8


def test_expression_field_that_reads_u_takes_the_double_integral():
    # G = [[u]] reads u, so the variation is the double integral (0 here)
    # and the gain is exp(int_-1^1 |u| du) = e: C = e^2.  The shortcut of
    # a u-independent field would take G(t, mid J) = 0 and C = 1, which
    # the propagators below exceed (||X|| = 1.608)
    config = {"system": {"G": [["u"]], "f": "sin(t)", "J": [-1, 1]},
              "window": [0, 5]}
    report = run_scenario("certify", config)
    assert report.summary["variation_mode"] == "double-integral"
    assert report.rows[0][:3] == (2.7182818284590367, 0.0, 7.389056098930604)
    verify = run_scenario("verify", dict(config, num_pairs=20), seed=7)
    assert verify.passed
    assert 1.6 < verify.summary["max_observed"] <= 7.389056098930604
    # the flag is read off the entries: one u anywhere, even 0*u, clears it
    for G, free in (([["t", "0.1"], ["sin(t)", "exp(-t)"]], True),
                    ([["t", "0.1"], ["sin(t)", "0*u"]], False)):
        bag = []
        system = _read(_SYSTEM, {"G": G, "f": "t", "J": [-1, 1]}, bag)
        assert not bag and system.G.u_independent is free


# expressions in t alone whose d/dt stays below about 1e3 on [0, 2]: the
# quadrature's tolerances are absolute, and a much larger integrand puts
# them below the rounding of its own sums, in either route
_T_LEAVES = st.sampled_from(["t", "pi", "0.5", "2", "exp(-t)"]) | st.floats(
    0.1, 2.0).map(lambda x: repr(round(x, 3)))
_U_FREE = st.recursive(_T_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+-*"), inner).map(
        lambda x: f"({x[0]} {x[1]} {x[2]})"),
    st.tuples(st.sampled_from(["sin", "cos", "atan"]), inner).map(
        lambda x: f"{x[0]}({x[1]})")), max_leaves=5)


@settings(max_examples=30, deadline=None)
@given(st.lists(_U_FREE, min_size=4, max_size=4))
def test_derived_u_independence_keeps_the_double_integral_variation(entries):
    # an expression field with no u in it takes the variation in
    # derivative mode, |J| int ||d/dt G(t, mid J)|| dt; the double integral
    # of the same field, built with u_independent=False, agrees.  Below it
    # by at most tol, the unsafe side of an upper bound.  Above it by up
    # to 100 tol: the tolerance applies before the factor |J|, and the
    # Kronrod-Gauss gap is an estimate, not a bound, where ||d/dt G|| has
    # a kink (an entry's d/dt crossing 0); there the derivative route has
    # come out up to 13 tol above the double integral, which was within
    # 2e-10 of the exact V, and never more than 0.43 tol below it
    bag = []
    system = _read(_SYSTEM, {"G": [entries[:2], entries[2:]], "f": "t",
                             "J": [-1, 1]}, bag)
    assert not bag and system.G.u_independent
    I, J, tol = Interval(0.0, 2.0), system.J, 1e-8
    derived = tv_l1_upper_bound(system.G, I, J, tol)
    double = tv_l1_upper_bound(
        dataclasses.replace(system.G, u_independent=False), I, J, tol)
    assert double - tol <= derived <= double + 100.0 * tol


def test_expression_field_certifies_a_long_window(tmp_path):
    # the benchmark's u-dependent field on [0, 10]: with the exact
    # derivative the inner u-integrals settle, and certify exits 0; V
    # against nested scipy quads of the analytic d/dt G
    config = {"system": {"G": [["atan(t)*u", "0.1*u"],
                               ["sin(t*u)", "exp(-t)"]],
                         "f": "sin(t)", "J": [-1, 1]},
              "window": [0, 10]}
    path = tmp_path / "certify.json"
    path.write_text(json.dumps(config))
    assert cli_main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    summary = json.loads(
        (tmp_path / "out" / "summary.json").read_text())["summary"]
    assert summary["variation_mode"] == "double-integral"

    def inner(t):
        return scipy.integrate.quad(
            lambda u: _sigma_max(u / (1.0 + t * t), 0.0, u * math.cos(t * u),
                                 -math.exp(-t)),
            -1.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    oracle = scipy.integrate.quad(inner, 0.0, 10.0, epsabs=1e-11,
                                  epsrel=1e-13, limit=200)[0]
    assert abs(summary["variation"] - oracle) <= 1e-8


def test_certificate_u_dependent_field_uses_double_integral_route():
    # G(t, u) = 0.4 + 0.1 sin(t) u on J = [-1, 1]:
    #   ||G(t)||_L1 = int_-1^1 |0.4 + 0.1 sin(t) u| du, maximal at sin t = +-1
    #   d/dt G = 0.1 cos(t) u, so the variation bound is
    #   int_I |cos t| dt * int_-1^1 0.1 |u| du = 0.1 * int |cos|
    G = OperatorField(
        eval=pointwise(lambda t, u: np.array([[0.4 + 0.1 * math.sin(t) * u]])),
        space=SP1,
        partial_t=pointwise(lambda t, u: np.array([[0.1 * math.cos(t) * u]])),
    )
    f = ScalarPath(eval=stacked(lambda t: 0.9 * math.sin(t)),
                   deriv=stacked(lambda t: 0.9 * math.cos(t)))
    sys = SeparableSystem(G=G, f=f, I=Interval(0, 10), J=Interval(-1, 1),
                          space=SP1)
    cert = certify(sys, Interval(0, 4), tol=1e-8)
    assert cert.variation_mode == "double-integral"
    # compare against dense independent recomputations of both numbers
    l1 = lambda s: integrate(
        lambda u: abs(0.4 + 0.1 * s * u), Interval(-1, 1), tol=1e-12)
    sup_l1 = max(l1(math.sin(t)) for t in np.linspace(0, 4, 2001))
    assert cert.gain == pytest.approx(math.exp(sup_l1), rel=1e-6)
    tv_exact = 0.1 * integrate(lambda t: abs(math.cos(t)), Interval(0, 4),
                               breakpoints=(math.pi / 2,), tol=1e-12)
    assert cert.variation == pytest.approx(tv_exact, rel=1e-4)
    report = verify_certificate(sys, cert, [(0.0, 2.0), (1.0, 4.0)])
    assert report.passed



# ---------------------------------------------------------------------------
# refinements that do not settle

_TIP = 1.0 / 3.0  # never a point of a dyadic grid on [0, 1]


def _unsettled_system(G_eval, partial_t):
    G = OperatorField(eval=pointwise(G_eval), space=SP1,
                      partial_t=pointwise(partial_t), u_independent=True)
    return SeparableSystem(G=G, f=make_scalar_path("constant", Interval(0, 1)),
                           I=Interval(0, 1), J=Interval(-1, 1), space=SP1)


def test_certify_reports_a_sup_unsettled_at_the_grid_cap():
    # the cusp 2 - |t - 1/3|^0.1 (flat within 1e-5 of its tip) raises the
    # sampled sup by more than 0.1% at every dyadic level: sampling stops
    # at 4097 points with the last grid's sup, unconverged
    def cusp(t, u):
        return np.array([[2.0 - max(abs(t - _TIP), 1e-5) ** 0.1]])

    def cusp_dt(t, u):
        x = t - _TIP
        if abs(x) <= 1e-5:
            return np.array([[0.0]])
        return np.array([[-0.1 * math.copysign(abs(x) ** -0.9, x)]])

    cert = certify(_unsettled_system(cusp, cusp_dt), Interval(0.0, 1.0))
    assert cert.sup_grid == 4097 and not cert.sup_converged
    assert cert.variation_mode == "derivative"
    assert cert.gain.hex() == "0x1.9075860a1513fp+4"
    assert cert.variation.hex() == "0x1.3948d2709173ep+1"


def test_certify_of_an_unbounded_variation_raises_quadrature_error():
    # (t - 1/3) sin(1/(t - 1/3)) has unbounded variation: its derivative's
    # norm is not integrable at the tip, so the variation quadrature homes
    # in on the tip itself, where the slope is not defined (NaN), and no
    # certificate comes out
    def wobble(t, u):
        x = t - _TIP
        return np.array([[1.0 + x * math.sin(1.0 / x)]])

    def wobble_dt(t, u):
        x = t - _TIP
        if x == 0.0:
            return np.array([[math.nan]])
        return np.array([[math.sin(1.0 / x) - math.cos(1.0 / x) / x]])

    with pytest.raises(QuadratureError, match=r"non-finite integrand on the "
                                              r"panel \[0\.333"):
        certify(_unsettled_system(wobble, wobble_dt), Interval(0.0, 1.0))
    # the expression parser's derivative takes the panels to the tip as
    # well, where the value faults, and its error names the tip
    config = {"system": {"G": [["1 + (t - 1/3)*sin(1/(t - 1/3))"]],
                         "f": "t", "J": [-1, 1], "I": [0, 1]},
              "window": [0, 1]}
    with pytest.raises(ExpressionError, match=r"at \(t=0\.3333333333333333, "
                                              r"u=0\.0\): divide by zero"
                                              r" encountered in divide"):
        run_scenario("certify", config)

# ---------------------------------------------------------------------------
# frozen systems


def _example_system_window(window_hi=8.0):
    sys = make_system("example39")
    return sys, Interval(0.0, window_hi)


def test_frozen_single_segment_of_time_independent_field_matches():
    m = np.array([[0.1, 0.0], [0.2, -0.1]])
    G = OperatorField(eval=pointwise(lambda t, u: m), space=SP2,
                      partial_t=pointwise(lambda t, u: np.zeros((2, 2))),
                      u_independent=True)
    f = ScalarPath(eval=stacked(lambda t: 0.5 * math.sin(t)),
                   deriv=stacked(lambda t: 0.5 * math.cos(t)))
    sys = SeparableSystem(G=G, f=f, I=Interval(0, 10), J=Interval(-1, 1),
                          space=SP2)
    frozen = frozen_system(sys, Partition((0.0, 10.0)))
    direct = assemble_A(sys)
    for t in (0.0, 3.3, 10.0):
        assert np.allclose(frozen(t), direct(t), atol=1e-15)


def test_frozen_segment_uses_left_endpoint_field():
    sys, _ = _example_system_window()
    part = Partition((0.0, 2.0, 4.0))
    frozen = frozen_system(sys, part)
    t = 3.0  # midpoint of [2, 4): field frozen at t = 2
    expected = math.cos(t) * sys.G.eval(2.0, math.sin(t))
    assert np.max(np.abs(frozen(t) - expected)) <= 1e-14
    # final partition point takes the last segment's value
    expected_end = math.cos(4.0) * sys.G.eval(2.0, math.sin(4.0))
    assert np.max(np.abs(frozen(4.0) - expected_end)) <= 1e-14


def test_builtin_paths_satisfy_the_derivative_invariant():
    # declared derivatives must match central differences to 1e-6 at
    # random interior points away from breakpoints; sampled where the
    # difference quotient itself resolves to that accuracy (the truncation
    # term h^2 f'''/6 outgrows 1e-6 for fast oscillation at large t)
    rng = np.random.default_rng(8)
    window = Interval(0.0, 50.0)
    for name in ("sin", "sin2t", "sin-t-squared", "sawtooth", "constant"):
        path = make_scalar_path(name, window)
        checked = 0
        while checked < 25:
            t = float(rng.uniform(0.5, 8.0))
            if any(abs(t - b) < 1e-3 for b in path.breakpoints):
                continue
            h = 1e-6 * max(1.0, abs(t))
            fd = (path(t + h) - path(t - h)) / (2.0 * h)
            assert path.d(t) == pytest.approx(fd, abs=1e-6)
            checked += 1


def test_frozen_defect_decreases_along_dyadic_meshes():
    sys, window = _example_system_window(4.0)
    direct = assemble_A(sys)
    kind = sys.space.norm_kind
    defects = []
    for k in range(0, 5):
        n = int(window.length() * 2 ** k)
        part = Partition(tuple(np.linspace(window.lo, window.hi, n + 1)))
        frozen = frozen_system(sys, part)
        defect = integrate(
            lambda t: matrix_norm(direct(t) - frozen(t), kind),
            window, breakpoints=part.points[1:-1], tol=1e-9,
            max_segments=16384)
        defects.append(defect)
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(defects, defects[1:]))
    assert defects[-1] <= 0.25 * defects[0]


# ---------------------------------------------------------------------------
# substitution identity


def test_substitution_identity_path_is_trivially_exact():
    f = ScalarPath(eval=stacked(lambda t: t), deriv=stacked(lambda t: 1.0))
    d = substitution_check(stacked(lambda u: np.array([[0.3]])), f, 0.0, 2.0,
                           SP1)
    assert d <= 1e-8


def test_substitution_scalar_cosine_closed_form():
    d = substitution_check(stacked(lambda u: np.array([[1.0]])), sin_path(),
                           0.0, 2.5, SP1, tol=1e-10)
    assert d <= 1e-8
    # both routes also match the closed form
    A = CoefficientPath(eval=stacked(lambda t: np.array([[math.cos(t)]])),
                        space=SP1)
    x = evolve(A, 0.0, 2.5)
    assert x.entries[0, 0] == pytest.approx(math.exp(math.sin(2.5)),
                                            abs=1e-8)


def test_substitution_rotation_family_closed_form():
    f = ScalarPath(eval=lambda t: t * t, deriv=lambda t: 2.0 * t)
    B = lambda u: u * ROT
    d = substitution_check(stacked(B), f, 0.0, 1.2, SP2, tol=1e-10)
    assert d <= 1e-8
    A = CoefficientPath(eval=stacked(lambda t: f.d(t) * B(f(t))), space=SP2)
    x = evolve(A, 0.0, 1.2)
    angle = 0.5 * (f(1.2) ** 2 - f(0.0) ** 2)
    assert np.max(np.abs(x.entries - scipy.linalg.expm(angle * ROT))) <= 1e-8


def test_substitution_non_monotone_path():
    B = lambda us: np.stack([np.stack([us, np.full_like(us, 0.2)], -1),
                             np.stack([np.full_like(us, -0.2), -us], -1)], -2)
    assert np.array_equal(B(np.array([0.5])), [[[0.5, 0.2], [-0.2, -0.5]]])
    d = substitution_check(B, sin_path(), 0.0, 7.0, SP2, tol=1e-10)
    assert d <= 1e-8


# ---------------------------------------------------------------------------
# verification


def test_verify_zero_system_max_is_one():
    f = ScalarPath(eval=stacked(lambda t: 0.5), deriv=stacked(lambda t: 0.0))
    sys = SeparableSystem(G=unit_field(), f=f, I=Interval(0, 10),
                          J=Interval(0, 1), space=SP1)
    cert = certify(sys, Interval(0, 10))
    report = verify_certificate(sys, cert, [(0.0, 5.0), (1.0, 9.0)])
    assert report.passed
    assert report.max_observed == pytest.approx(1.0, abs=1e-9)


def test_verify_scalar_cosine_hits_paper_extremes():
    sys = SeparableSystem(G=unit_field(), f=sin_path(),
                          I=Interval(0, 100), J=Interval(-1, 1), space=SP1)
    cert = certify(sys, Interval(0, 40))
    assert cert.bound == pytest.approx(math.e ** 4, rel=1e-10)
    # pairs hitting sin s = -1, sin t = +1 realize the extreme growth e^2
    s = 3 * math.pi / 2
    t = 4 * math.pi + math.pi / 2
    report = verify_certificate(sys, cert, [(s, t), (0.0, 10.0)])
    assert report.passed
    assert report.max_observed == pytest.approx(math.e ** 2, rel=1e-7)
    assert report.max_ratio <= 1.0


def test_verify_rejects_bad_pairs():
    sys = make_system("intro-cos")
    cert = certify(sys, Interval(0, 10))
    with pytest.raises(ValueError):
        verify_certificate(sys, cert, [(5.0, 2.0)])
    with pytest.raises(ValueError):
        verify_certificate(sys, cert, [(0.0, 11.0)])


def test_verify_abort_keeps_rows_before_first_unreached_pair():
    sys = SeparableSystem(G=unit_field(), f=sin_path(), I=Interval(0, 10),
                          J=Interval(-1, 1), space=SP1)
    cert = certify(sys, Interval(0, 10))
    # a coefficient that is undefined past t = 5 stops the sweep there
    broken = CoefficientPath(
        eval=stacked(
            lambda t: np.array([[math.cos(t) if t < 5.0 else math.nan]])),
        space=SP1)
    pairs = [(1.0, 2.0), (0.0, 1.0), (1.0, 6.0), (0.0, 2.0)]
    report = verify_certificate(sys, cert, pairs, coefficient=broken)
    assert [(r.s, r.t) for r in report.rows] == pairs[:2]
    assert report.rows[0].norm_X == pytest.approx(
        math.exp(math.sin(2.0) - math.sin(1.0)), rel=1e-8)
    assert "(1.0, 6.0)" in report.aborted
    assert not report.passed


def test_verify_accepts_frozen_coefficient_override():
    sys, window = _example_system_window(4.0)
    cert = certify(sys, window)
    part = Partition(tuple(np.linspace(0.0, 4.0, 9)))
    frozen = frozen_system(sys, part)
    rng = np.random.default_rng(17)
    pairs = np.sort(rng.uniform(0.0, 4.0, size=(20, 2)), axis=1)
    report = verify_certificate(sys, cert, pairs, coefficient=frozen)
    assert report.passed


def _rows_one_pair_at_a_time(A, cert, pairs, kind, tol):
    """The verify rows as they were formed before the stacked products:
    two queries and two norms per pair, and the abort at the first pair
    whose query raised.  The oracle of the stacked rows."""
    ends = (cert.window.lo, cert.window.hi)
    ev = EvolutionOperator(A, [*ends, *(tau for pair in pairs
                                        for tau in pair)], tol=tol)
    rows = []
    for s, t in pairs:
        try:
            x, x_inv = ev.query(t, s), ev.query(s, t)
        except IntegrationError as exc:
            return rows, f"integration failure at pair ({s}, {t}): {exc}"
        rows.append((s, t, matrix_norm(x.entries, kind),
                     matrix_norm(x_inv.entries, kind)))
    return rows, None


def _bits(rows):
    return [tuple(float(x).hex() for x in row) for row in rows]


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from([1, 2, 3]), kind=st.sampled_from(NORM_KINDS),
       entries=st.lists(st.floats(-2.0, 2.0), min_size=18, max_size=18),
       picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                      max_size=12),
       nan_from=st.one_of(st.none(), st.floats(0.2, 2.9)))
def test_stacked_verify_rows_match_one_query_per_pair(r, kind, entries,
                                                      picks, nan_from):
    # pairs of the window's ends, repeated times and s == t, on
    # A(t) = M0 + cos(3 t) M1, which may turn NaN from nan_from on: the
    # stacked rows have the bits of two queries and two norms per pair,
    # and an abort comes after the same rows, with the same message
    m0 = np.reshape(entries[:r * r], (r, r))
    m1 = np.reshape(entries[9:9 + r * r], (r, r))
    space = VectorSpaceSpec(r, kind)

    def coefficient(ts):
        a = m0 + np.cos(3.0 * ts)[:, None, None] * m1
        if nan_from is not None:
            a = np.where((ts < nan_from)[:, None, None], a, math.nan)
        return a

    A = CoefficientPath(eval=coefficient, space=space)
    times = [0.0, 3.0, 0.4, 1.1, 1.1 + 2.0 ** -40, 1.7, 2.3, 2.95]
    pairs = [tuple(sorted((times[i], times[j]))) for i, j in picks]
    sys = expression_system(constant_matrix(np.eye(r)),
                            make_scalar_path("sin", Interval(0.0, 3.0)),
                            Interval(0.0, 3.0), Interval(-1.0, 1.0), kind)
    cert = BoundCertificate(gain=2.0, variation=0.1,
                            window=Interval(0.0, 3.0), sup_grid=0)
    report = verify_certificate(sys, cert, pairs, 1e-8, coefficient=A)
    rows, aborted = _rows_one_pair_at_a_time(A, cert, pairs, kind, 1e-8)
    assert _bits((row.s, row.t, row.norm_X, row.norm_Xinv)
                 for row in report.rows) == _bits(rows)
    assert report.aborted == aborted
    assert report.max_observed == max([0.0] + [max(row[2:])
                                                for row in rows])


def test_verify_raises_on_a_non_finite_product_as_a_query_does():
    # x' = -690 x on [0, 1], then +690 x: Phi(3) = e^690 and Phi(1)^-1 =
    # e^690 are finite, but X(3, 1) = e^1380 is not, and both routes raise
    # InvalidOperatorError.  The breakpoints keep each window's own step
    # product within 690 e-folds
    A = CoefficientPath(
        eval=lambda ts: np.where(ts < 1.0, -690.0, 690.0)[:, None, None],
        space=SP1, breakpoints=(1.0, 2.0))
    sys = SeparableSystem(G=unit_field(), f=sin_path(), I=Interval(0, 3),
                          J=Interval(-1, 1), space=SP1)
    cert = BoundCertificate(gain=2.0, variation=0.1,
                            window=Interval(0.0, 3.0), sup_grid=0)
    pairs = [(0.0, 0.5), (1.0, 3.0), (0.0, 2.0)]
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidOperatorError, match="non-finite"):
            _rows_one_pair_at_a_time(A, cert, pairs, "euclidean", 1e-10)
        with pytest.raises(InvalidOperatorError, match="non-finite"):
            verify_certificate(sys, cert, pairs, 1e-10, coefficient=A)


def test_verify_takes_two_norm_calls_and_no_operator_per_pair(monkeypatch):
    # 40 pairs took 80 matrix_norm calls and 80 Operators; the stacked
    # rows take two norm calls, whatever the number of pairs, and build
    # no Operator
    from evostab import stability
    norms, operators = [], []
    monkeypatch.setattr(stability, "matrix_norm",
                        lambda a, kind: norms.append(a.shape) or
                        matrix_norm(a, kind))
    build = Operator.__post_init__
    monkeypatch.setattr(Operator, "__post_init__",
                        lambda self: operators.append(1) or build(self))
    sys = make_system("example39")
    cert = BoundCertificate(gain=2.0, variation=0.1,
                            window=Interval(0.0, 100.0), sup_grid=0)
    rng = np.random.default_rng(1)
    pairs = np.sort(rng.uniform(0.0, 100.0, size=(40, 2)), axis=1)
    report = verify_certificate(sys, cert, pairs)
    assert len(report.rows) == 40
    assert norms == [(40, 2, 2), (40, 2, 2)] and operators == []
