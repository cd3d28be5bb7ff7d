"""Shared test helpers: independent oracles and a random smooth corpus.

The fixed-step RK4 oracle is deliberately written from scratch (classical
Runge-Kutta, no shared code with the adaptive integrator) so the two
routes stay independent.
"""

import math

import numpy as np
import pytest

from evostab.calculus import stacked
from evostab.evolution import CoefficientPath
from evostab.operators import VectorSpaceSpec


def rk4_fixed(rhs, t0, t1, y0, h):
    """Classical fixed-step RK4 from t0 to t1 (h > 0 is the magnitude)."""
    n = max(1, int(math.ceil(abs(t1 - t0) / h)))
    step = (t1 - t0) / n
    t, y = t0, np.array(y0, dtype=float)
    for _ in range(n):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * step, y + 0.5 * step * k1)
        k3 = rhs(t + 0.5 * step, y + 0.5 * step * k2)
        k4 = rhs(t + step, y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
    return y


def rk4_propagator(A: CoefficientPath, s: float, t: float, h: float) -> np.ndarray:
    """Fixed-step oracle for the propagator matrix."""
    rhs = lambda tau, y: A(tau) @ y
    return rk4_fixed(rhs, s, t, np.eye(A.space.dim), h)


def random_smooth_coefficient(rng, dim, norm_kind="euclidean"):
    """A bounded smooth random coefficient path

        A(t) = C0 + C1 sin(w1 t) + C2 cos(w2 t),

    entries scaled so that ||A|| stays O(1) for every dimension."""
    scale = 0.6 / dim
    C0, C1, C2 = (scale * rng.standard_normal((dim, dim)) for _ in range(3))
    w1, w2 = rng.uniform(0.5, 2.0, size=2)

    def eval_A(t):
        return C0 + C1 * math.sin(w1 * t) + C2 * math.cos(w2 * t)

    return CoefficientPath(
        eval=stacked(eval_A),
        space=VectorSpaceSpec(dim, norm_kind),
    )


def smooth_corpus(seed, count, dims=(1, 2, 3, 4), norm_kind="euclidean"):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        out.append(random_smooth_coefficient(rng, dims[i % len(dims)],
                                             norm_kind))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    """Three small random systems for unit-level law checks."""
    return smooth_corpus(seed=1234, count=3, dims=(1, 2, 3))


# ---------------------------------------------------------------------------
# the built-in fields and connections one point at a time, transcribed
# from their definitions with math: independent oracles of the built-ins'
# expressions, which compute the same values in another order (numpy's
# atan and exp where these take math's, gauge-twist's omega2 written out
# entry by entry where this multiplies e S e^T)

# each entry of a built-in is within ULPS ulps of the largest entry of its
# formula's matrix (of the path's value) at the same point
ULPS = 8


def assert_within_ulps(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if want.ndim >= 2 and want.shape[-1] == want.shape[-2]:
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    else:
        scale = np.abs(want)
    assert np.all(np.abs(got - want) <= ULPS * np.spacing(scale))


_R = np.array([[0.0, 1.0], [-1.0, 0.0]])
_S = np.array([[0.3, 0.1], [0.1, -0.2]])
_Z = np.zeros((2, 2))


def _twist_frame(x):
    """e S e^T with e = exp(0.2 x R)."""
    c, s = math.cos(0.2 * x), math.sin(0.2 * x)
    e = np.array([[c, s], [-s, c]])
    return e @ _S @ e.T


def _twist_d1(x, u):
    m = _twist_frame(x)
    return -0.15 * 0.2 * (_R @ m - m @ _R)


def _example39(t, u):
    return np.array([[2.0 * math.atan(t), math.sqrt(t + 1.0) - math.sqrt(t)],
                     [-1.0 / (1.0 + t * t), 1.0 + math.exp(-t)]])


def _example39_dt(t, u):
    root = 0.5 / math.sqrt(t + 1.0) - (0.5 / math.sqrt(t) if t > 0 else 0.0)
    return np.array([[2.0 / (1.0 + t * t), root],
                     [2.0 * t / (1.0 + t * t) ** 2, -math.exp(-t)]])


# name -> (G, dG/dt) at (t, u)
POINTWISE_FIELDS = {
    "example39": (_example39, _example39_dt),
    "intro-cos": (lambda t, u: np.array([[1.0]]),
                  lambda t, u: np.array([[0.0]])),
    "rotation": (lambda t, u: _R, lambda t, u: _Z),
}

# name -> (omega1, omega2, d/dx omega2) at (x, u)
POINTWISE_CONNECTIONS = {
    "zero": (lambda x, u: _Z, lambda x, u: _Z, lambda x, u: _Z),
    "scalar-decay": (lambda x, u: _Z, lambda x, u: 0.3 * np.eye(2),
                     lambda x, u: _Z),
    "gauge-rotation": (lambda x, u: -0.1 * u * _R, lambda x, u: -0.1 * x * _R,
                       lambda x, u: -0.1 * _R),
    "gauge-twist": (lambda x, u: -0.2 * _R,
                    lambda x, u: -0.15 * _twist_frame(x), _twist_d1),
    "mixed-bounded": (
        lambda x, u: 0.3 * np.array([[math.sin(u), 0.2 * math.cos(x)],
                                     [-0.2 * math.cos(x), math.cos(u)]]),
        lambda x, u: 0.15 * np.array([[math.cos(x), math.sin(x)],
                                      [math.sin(x), -math.cos(x)]]),
        lambda x, u: 0.15 * np.array([[-math.sin(x), math.cos(x)],
                                      [math.cos(x), math.sin(x)]])),
}

# omega2 of the extension problems' connections
POINTWISE_EXTENSION_OMEGA2 = {
    "extension-gauge": lambda x, u: -0.25 * x * _R,
    "extension-twist": POINTWISE_CONNECTIONS["gauge-twist"][1],
}
