"""Shared test helpers: independent oracles and a random smooth corpus.

The fixed-step RK4 oracle is deliberately written from scratch (classical
Runge-Kutta, no shared code with the adaptive integrator) so the two
routes stay independent.
"""

import math

import numpy as np
import pytest

from evostab.calculus import Interval
from evostab.evolution import CoefficientPath, stacked
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
        domain=Interval(-math.inf, math.inf),
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
