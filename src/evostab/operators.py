"""Finite-dimensional normed spaces R^r, their operators, and induced norms.

Everything downstream works on a normed space fixed by a
:class:`VectorSpaceSpec` (dimension + norm choice).  Operators are dense
r-by-r matrices; r is expected to be small, so norms are computed exactly
(the euclidean operator norm through a full singular value decomposition
rather than iteration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidOperatorError, SingularOperatorError

EUCLIDEAN = "euclidean"
ONE_NORM = "one-norm"
INF_NORM = "inf-norm"
NORM_KINDS = (EUCLIDEAN, ONE_NORM, INF_NORM)

#: refuse to invert above this condition number unless the caller overrides
DEFAULT_COND_CAP = 1e12


@dataclass(frozen=True)
class VectorSpaceSpec:
    """R^dim equipped with one of the three standard norms."""

    dim: int
    norm_kind: str = EUCLIDEAN

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(
                f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}"
            )


def _as_matrix(entries, dim):
    a = np.asarray(entries, dtype=float)
    if a.shape != (dim, dim):
        raise InvalidOperatorError(
            f"expected a {dim}x{dim} matrix, got shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise InvalidOperatorError("operator has non-finite entries")
    return a


@dataclass(frozen=True)
class Operator:
    """A linear map on R^r, stored as a dense matrix."""

    entries: np.ndarray
    space: VectorSpaceSpec

    def __post_init__(self):
        a = _as_matrix(self.entries, self.space.dim).copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @staticmethod
    def identity(space: VectorSpaceSpec) -> "Operator":
        return Operator(np.eye(space.dim), space)

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.space != self.space:
            raise InvalidOperatorError("operators live in different spaces")
        return Operator(self.entries @ other.entries, self.space)


@dataclass(frozen=True)
class Vector:
    """An element of R^r."""

    entries: np.ndarray
    space: VectorSpaceSpec

    def __post_init__(self):
        v = np.asarray(self.entries, dtype=float)
        if v.shape != (self.space.dim,):
            raise InvalidOperatorError(
                f"expected a length-{self.space.dim} vector, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidOperatorError("vector has non-finite entries")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "entries", v)


def matrix_norm(a: np.ndarray, kind: str = EUCLIDEAN):
    """Operator norm of a bare matrix, induced by the given vector norm.

    one-norm: max absolute column sum; inf-norm: max absolute row sum;
    euclidean: largest singular value.  A (n, r, r) stack of matrices
    gives the (n,) array of their norms.
    """
    stacked = a.ndim == 3
    if kind == EUCLIDEAN:
        if a.shape[-2:] == (1, 1):
            return np.abs(a[:, 0, 0]) if stacked else abs(a[0, 0])
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    elif kind == ONE_NORM:
        norms = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    elif kind == INF_NORM:
        norms = np.max(np.sum(np.abs(a), axis=-1), axis=-1)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return norms if stacked else float(norms)


def vector_norm(v: np.ndarray, kind: str = EUCLIDEAN) -> float:
    if kind == EUCLIDEAN:
        return float(np.linalg.norm(v))
    if kind == ONE_NORM:
        return float(np.sum(np.abs(v)))
    if kind == INF_NORM:
        return float(np.max(np.abs(v))) if len(v) else 0.0
    raise ValueError(f"unknown norm kind {kind!r}")


def op_norm(m: Operator) -> float:
    """Norm of an operator, induced by its space's vector norm."""
    if not np.all(np.isfinite(m.entries)):
        raise InvalidOperatorError("operator has non-finite entries")
    return matrix_norm(m.entries, m.space.norm_kind)


def invert_matrix(a: np.ndarray, cond_cap: float = DEFAULT_COND_CAP) -> np.ndarray:
    """Invert a bare matrix, refusing when the 2-norm condition number
    exceeds ``cond_cap``."""
    if not np.all(np.isfinite(a)):
        raise InvalidOperatorError("operator has non-finite entries")
    if a.shape == (1, 1):
        x = a[0, 0]
        if x == 0.0:
            raise SingularOperatorError("singular 1x1 operator", np.inf)
        return np.array([[1.0 / x]])
    sv = np.linalg.svd(a, compute_uv=False)
    cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    if cond > cond_cap:
        raise SingularOperatorError(
            f"condition number {cond:.3e} exceeds cap {cond_cap:.3e}", cond
        )
    x = np.linalg.inv(a)
    # Newton polish: x <- x (2 id - a x) squares the residual, so a couple
    # of steps push ||a x - id|| down to the 1e-10 * ||a|| contract even
    # close to the conditioning cap.
    eye = np.eye(a.shape[0])
    target = 1e-10 * max(1.0, float(sv[0]))
    for _ in range(3):
        r = a @ x - eye
        if float(np.max(np.abs(r))) <= target:
            break
        x = x @ (eye - r)
    return x


def invert(m: Operator, cond_cap: float = DEFAULT_COND_CAP) -> Operator:
    """Inverse of an operator, with a conditioning guard and a residual
    polish so that ||M M^-1 - id|| <= 1e-10 * ||M||."""
    return Operator(invert_matrix(m.entries, cond_cap), m.space)
