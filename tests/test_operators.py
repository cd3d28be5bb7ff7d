import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evostab.library import make_connection
from evostab.operators import (
    EUCLIDEAN,
    INF_NORM,
    NORM_KINDS,
    ONE_NORM,
    VectorSpaceSpec,
    matrix_norm,
    vector_norm,
)
from evostab.transport import sine_curve_scenario


def test_identity_norm_is_one_for_every_kind():
    for kind in NORM_KINDS:
        assert matrix_norm(np.eye(3), kind) == 1.0


def test_diagonal_inf_norm():
    assert matrix_norm(np.diag([2.0, -3.0]), INF_NORM) == 3.0


def test_nilpotent_euclidean_norm():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert matrix_norm(m, EUCLIDEAN) == pytest.approx(1.0, rel=1e-12)


def test_one_norm_is_max_column_sum():
    a = np.array([[1.0, -4.0], [2.0, 0.5]])
    assert matrix_norm(a, ONE_NORM) == 4.5
    assert matrix_norm(a, INF_NORM) == 5.0


def test_vector_norms():
    v = np.array([3.0, -4.0])
    assert vector_norm(v, EUCLIDEAN) == 5.0
    assert vector_norm(v, ONE_NORM) == 7.0
    assert vector_norm(v, INF_NORM) == 4.0


@pytest.mark.parametrize("v", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]],
                               [np.inf, 0.0], [0.0, np.nan]])
def test_sine_curve_scenario_rejects_a_malformed_vector(v):
    # the transported vector is a bare array: one of the wrong length or
    # with a non-finite entry is refused before any sweep
    with pytest.raises(ValueError, match="v must be a finite vector"):
        sine_curve_scenario(make_connection("zero"), -1.0, [-0.5], v)


def test_submultiplicativity_random_operators():
    rng = np.random.default_rng(7)
    for kind in NORM_KINDS:
        for _ in range(25):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            lhs = matrix_norm(a @ b, kind)
            rhs = matrix_norm(a, kind) * matrix_norm(b, kind)
            assert lhs <= rhs * (1.0 + 1e-12)


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


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_stacked_vector_norm_matches_per_vector_calls(kind):
    rng = np.random.default_rng(31)
    stack = rng.standard_normal((4, 6, 3)) * 10.0 ** rng.uniform(-3, 3, (4, 6, 1))
    norms = vector_norm(stack, kind)
    assert norms.shape == (4, 6)
    for i in range(4):
        for j in range(6):
            assert norms[i, j] == pytest.approx(vector_norm(stack[i, j], kind),
                                                rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    leading=st.sampled_from([(), (3,), (2, 4)]),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-150.0, 150.0),
)
def test_closed_form_2x2_norm_matches_svd(leading, seed, log_scale):
    rng = np.random.default_rng(seed)
    # entries of mixed magnitudes around 10^log_scale, rank-deficient
    # and exactly-zero members included
    a = rng.standard_normal(leading + (2, 2)) * 10.0 ** (
        log_scale + rng.uniform(-3.0, 3.0, leading + (2, 2)))
    a[rng.random(leading + (2, 2)) < 0.15] = 0.0
    norms = matrix_norm(a, EUCLIDEAN)
    want = np.linalg.svd(a, compute_uv=False)[..., 0]
    assert np.shape(norms) == leading
    np.testing.assert_allclose(norms, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_matrix_norm_of_non_finite_entry_is_non_finite(dim, bad):
    # a stack keeps its finite members' norms; every kind is non-finite
    # on the bad member, and a single matrix gives the same
    rng = np.random.default_rng(dim)
    stack = rng.standard_normal((4, dim, dim))
    want = [matrix_norm(m, EUCLIDEAN) for m in stack]
    stack[2, dim - 1, 0] = bad
    for kind in NORM_KINDS:
        norms = matrix_norm(stack, kind)
        assert not np.isfinite(norms[2])
        assert not np.isfinite(matrix_norm(stack[2], kind))
    norms = matrix_norm(stack, EUCLIDEAN)
    assert [norms[i] for i in (0, 1, 3)] == [want[i] for i in (0, 1, 3)]
