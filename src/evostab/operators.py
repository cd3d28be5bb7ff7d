"""Finite-dimensional normed spaces R^r, their operators, and induced norms.

Everything downstream works on a normed space fixed by a
:class:`VectorSpaceSpec` (dimension + norm choice).  Operators are dense
r-by-r matrices; r is expected to be small, so norms are computed exactly
(the euclidean operator norm in closed form for r = 2, and through a full
singular value decomposition rather than iteration for r >= 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidOperatorError

EUCLIDEAN = "euclidean"
ONE_NORM = "one-norm"
INF_NORM = "inf-norm"
NORM_KINDS = (EUCLIDEAN, ONE_NORM, INF_NORM)


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


def _sigma_max_2x2(a: np.ndarray) -> np.ndarray:
    """Largest singular value of 2x2 matrices, in closed form:
    1/2 (|(a + d, b - c)| + |(a - d, b + c)|), the two hypotenuses being
    the singular values' sum and difference."""
    p, q = a[..., 0, 0], a[..., 0, 1]
    r, s = a[..., 1, 0], a[..., 1, 1]
    return 0.5 * (np.hypot(p + s, q - r) + np.hypot(p - s, q + r))


def matrix_norm(a: np.ndarray, kind: str = EUCLIDEAN):
    """Operator norm of a bare matrix, induced by the given vector norm.

    one-norm: max absolute column sum; inf-norm: max absolute row sum;
    euclidean: largest singular value, in closed form for 2x2 matrices
    and from a singular value decomposition for larger ones.  A stack of
    matrices, of shape (..., r, r), gives the array of their norms, of
    shape (...).  A matrix with a non-finite entry has a non-finite norm.
    """
    stacked = a.ndim >= 3
    if kind == EUCLIDEAN:
        if a.shape[-2:] == (1, 1):
            return np.abs(a[..., 0, 0]) if stacked else abs(a[0, 0])
        if a.shape[-2:] == (2, 2):
            norms = _sigma_max_2x2(a)
        else:
            # the SVD gives NaN for an inf entry and raises on a NaN one;
            # such matrices take their (inf or NaN) sum of |entries|
            finite = np.isfinite(a).all(axis=(-2, -1))
            norms = np.linalg.svd(np.where(finite[..., None, None], a, 0.0),
                                  compute_uv=False)[..., 0]
            if not finite.all():
                norms = np.where(finite, norms,
                                 np.sum(np.abs(a), axis=(-2, -1)))
    elif kind == ONE_NORM:
        norms = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    elif kind == INF_NORM:
        norms = np.max(np.sum(np.abs(a), axis=-1), axis=-1)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return norms if stacked else float(norms)


def vector_norm(v: np.ndarray, kind: str = EUCLIDEAN):
    """Norm of a vector.  A (..., r) stack of vectors gives the array of
    their norms."""
    if np.ndim(v) > 1:
        if kind == EUCLIDEAN:
            return np.linalg.norm(v, axis=-1)
        if kind == ONE_NORM:
            return np.sum(np.abs(v), axis=-1)
        if kind == INF_NORM:
            return np.max(np.abs(v), axis=-1, initial=0.0)
        raise ValueError(f"unknown norm kind {kind!r}")
    if kind == EUCLIDEAN:
        return float(np.linalg.norm(v))
    if kind == ONE_NORM:
        return float(np.sum(np.abs(v)))
    if kind == INF_NORM:
        return float(np.max(np.abs(v))) if len(v) else 0.0
    raise ValueError(f"unknown norm kind {kind!r}")
