import numpy as np
import pytest

from evostab.errors import InvalidOperatorError, SingularOperatorError
from evostab.operators import (
    EUCLIDEAN,
    INF_NORM,
    NORM_KINDS,
    ONE_NORM,
    Operator,
    Vector,
    VectorSpaceSpec,
    invert,
    matrix_norm,
    op_norm,
    vector_norm,
)


def test_identity_norm_is_one_for_every_kind():
    for kind in NORM_KINDS:
        sp = VectorSpaceSpec(3, kind)
        assert op_norm(Operator.identity(sp)) == 1.0


def test_diagonal_inf_norm():
    sp = VectorSpaceSpec(2, INF_NORM)
    m = Operator(np.diag([2.0, -3.0]), sp)
    assert op_norm(m) == 3.0


def test_nilpotent_euclidean_norm():
    sp = VectorSpaceSpec(2, EUCLIDEAN)
    m = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), sp)
    assert op_norm(m) == pytest.approx(1.0, rel=1e-12)


def test_one_norm_is_max_column_sum():
    a = np.array([[1.0, -4.0], [2.0, 0.5]])
    assert matrix_norm(a, ONE_NORM) == 4.5
    assert matrix_norm(a, INF_NORM) == 5.0


def test_vector_norms():
    v = np.array([3.0, -4.0])
    assert vector_norm(v, EUCLIDEAN) == 5.0
    assert vector_norm(v, ONE_NORM) == 7.0
    assert vector_norm(v, INF_NORM) == 4.0


def test_non_finite_entries_rejected():
    sp = VectorSpaceSpec(2)
    with pytest.raises(InvalidOperatorError):
        Operator(np.array([[1.0, np.nan], [0.0, 1.0]]), sp)
    with pytest.raises(InvalidOperatorError):
        Vector(np.array([np.inf, 0.0]), sp)


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidOperatorError):
        Operator(np.zeros((2, 3)), VectorSpaceSpec(2))
    with pytest.raises(InvalidOperatorError):
        Operator(np.zeros((3, 3)), VectorSpaceSpec(2))


def test_submultiplicativity_random_operators():
    rng = np.random.default_rng(7)
    for kind in NORM_KINDS:
        sp = VectorSpaceSpec(4, kind)
        for _ in range(25):
            a = Operator(rng.standard_normal((4, 4)), sp)
            b = Operator(rng.standard_normal((4, 4)), sp)
            lhs = op_norm(a @ b)
            rhs = op_norm(a) * op_norm(b)
            assert lhs <= rhs * (1.0 + 1e-12)


def test_invert_diagonal():
    sp = VectorSpaceSpec(2)
    m = Operator(np.diag([2.0, 4.0]), sp)
    inv = invert(m)
    assert np.allclose(inv.entries, np.diag([0.5, 0.25]), rtol=0, atol=1e-15)


def test_invert_identity():
    sp = VectorSpaceSpec(3)
    assert np.array_equal(invert(Operator.identity(sp)).entries, np.eye(3))


def test_invert_residual_random_well_conditioned():
    rng = np.random.default_rng(11)
    sp = VectorSpaceSpec(4)
    for _ in range(20):
        m = Operator(rng.standard_normal((4, 4)) + 3.0 * np.eye(4), sp)
        inv = invert(m)
        resid = matrix_norm(m.entries @ inv.entries - np.eye(4), EUCLIDEAN)
        assert resid <= 1e-10 * op_norm(m)


def test_double_inversion_roundtrip():
    rng = np.random.default_rng(5)
    sp = VectorSpaceSpec(3)
    for _ in range(20):
        base = rng.standard_normal((3, 3)) + 2.5 * np.eye(3)
        m = Operator(base, sp)
        sv = np.linalg.svd(base, compute_uv=False)
        if sv[0] / sv[-1] > 1e6:
            continue
        back = invert(invert(m))
        assert np.max(np.abs(back.entries - base)) <= 1e-9 * op_norm(m)


def test_singular_raises_with_condition_estimate():
    sp = VectorSpaceSpec(2)
    m = Operator(np.array([[1.0, 1.0], [1.0, 1.0]]), sp)
    with pytest.raises(SingularOperatorError) as err:
        invert(m)
    assert err.value.cond_estimate > 1e12


def test_conditioning_cap_is_configurable():
    sp = VectorSpaceSpec(2)
    m = Operator(np.diag([1.0, 1e-8]), sp)
    invert(m)  # cond 1e8 is below the default cap
    with pytest.raises(SingularOperatorError):
        invert(m, cond_cap=1e6)


def test_space_validation():
    with pytest.raises(ValueError):
        VectorSpaceSpec(0)
    with pytest.raises(ValueError):
        VectorSpaceSpec(2, "spectral")


@pytest.mark.parametrize("kind", NORM_KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
def test_stacked_matrix_norm_equals_per_matrix_calls(kind, dim):
    rng = np.random.default_rng(77 + dim)
    stack = rng.standard_normal((15, dim, dim)) * 10.0 ** rng.uniform(-3, 3, (15, 1, 1))
    norms = matrix_norm(stack, kind)
    assert norms.shape == (15,)
    assert norms.tolist() == [matrix_norm(m, kind) for m in stack]
