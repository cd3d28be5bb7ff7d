"""The four benchmark workloads: seeded inputs and one timed pass each.

``inputs(seed)`` builds plain data only (configs, pairs, vectors), so that
everything the program constructs from it happens inside a pass, where
the tracer can see it.  ``run_pass`` runs the program on those inputs,
writes its report like the ``evostab`` command does, and returns the
outputs the oracles check.

Program functions are always looked up as module attributes at call time
(``harness.run_scenario``, ``extension.build_sigma``...), so that the
tracer's hooks, installed by replacing those attributes, see the calls.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from evostab import extension, harness, library

# Every pass is sized to about a second, so that a run times many of them
# and its median is not at the mercy of one slow stretch of a shared host.

# the built-in example39 verify scenario's window, with 40 seeded pairs
# instead of its 1000
EXAMPLE39_WINDOW = (0.0, 100.0)
EXAMPLE39_PAIRS = 40

# the built-in sine-curve scenario without b = -1e-4 (which alone takes
# ten times the other three); only the transported vector is seeded
SINE_A = -1.0
SINE_B_LIST = (-1e-1, -1e-2, -1e-3)

# the extend runner's grid recipe, refined from the built-in 16 x 13
EXTEND_GRID = {"nx_left": 10, "nx_right": 16, "nv": 21, "x_floor": 1e-3}
EXTEND_TOL = harness.DEFAULT_TOLS["extend"]

CERTIFY_G = [["atan(t)*u", "0.1*u"], ["sin(t*u)", "exp(-t)"]]
CERTIFY_J = (-1.0, 1.0)
CERTIFY_WINDOW = (0.0, 2.0)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _plane_vector(rng: np.random.Generator) -> list:
    """A vector of norm 0.5..1.5 in a random direction."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(0.5, 1.5)
    return [radius * math.cos(angle), radius * math.sin(angle)]


# ---------------------------------------------------------------------------
# inputs


def verify_inputs(seed: int) -> dict:
    draws = _rng(seed, 39).uniform(*EXAMPLE39_WINDOW, size=(EXAMPLE39_PAIRS, 2))
    pairs = [[float(s), float(t)] for s, t in np.sort(draws, axis=1)]
    return {
        "system": {"builtin": "example39", "norm": "euclidean"},
        "window": list(EXAMPLE39_WINDOW),
        "pairs": pairs,
    }


def sine_inputs(seed: int) -> dict:
    return {
        "connection": {"builtin": "gauge-twist"},
        "a": SINE_A,
        "b_list": list(SINE_B_LIST),
        "v": _plane_vector(_rng(seed, 1)),
    }


def extend_inputs(seed: int) -> dict:
    # the section's value at the reference point; the grid stays fixed
    return {
        "problem": "extension-gauge",
        "grid": dict(EXTEND_GRID),
        "sigma_seed": _plane_vector(_rng(seed, 2)),
    }


def certify_inputs(seed: int) -> dict:
    # the certificate depends on G, J and the window only; the seed picks
    # the scalar path f, which it must ignore
    k = float(_rng(seed, 3).integers(1, 9))
    return {
        "system": {"G": CERTIFY_G, "f": f"sin({k:g}*t)",
                   "J": list(CERTIFY_J), "norm": "euclidean"},
        "window": list(CERTIFY_WINDOW),
    }


# ---------------------------------------------------------------------------
# passes


def _scenario_pass(kind: str, inputs: dict, out_dir) -> dict:
    """One run of a scenario kind, as the ``evostab`` command makes it."""
    report = harness.run_scenario(kind, inputs, seed=0)
    harness.emit_report(report, out_dir)
    return {"rows": report.rows, "row_pass": report.row_pass,
            "summary": report.summary}


def extend_pass(inputs: dict, out_dir) -> dict:
    """The ``extend`` runner's steps, on a finer grid and a seeded
    section, keeping the section values so they can be checked."""
    problem = library.make_extension_problem(inputs["problem"], "euclidean")
    problem = dataclasses.replace(
        problem, sigma_seed=np.array(inputs["sigma_seed"], dtype=float))
    g = inputs["grid"]
    M, J = problem.omega.m_interval, problem.omega.j_interval
    pad_m, pad_j = 0.05 * M.length(), 0.05 * J.length()
    xs_left = np.linspace(M.lo + pad_m, problem.a - pad_m, g["nx_left"])
    xs_right = np.linspace(problem.a + g["x_floor"], M.hi - pad_m,
                           g["nx_right"])
    xs = np.concatenate([xs_left, xs_right])
    vs = np.linspace(J.lo + pad_j, J.hi - pad_j, g["nv"])
    sigma = extension.build_sigma(problem, xs, vs, EXTEND_TOL)
    result = extension.extend_section(problem, sigma, EXTEND_TOL)
    theta0 = np.empty((len(xs), len(vs)))
    theta1 = np.empty((len(xs), len(vs)))
    for sl, block in ((slice(0, g["nx_left"]), xs_left),
                      (slice(g["nx_left"], None), xs_right)):
        theta0[sl] = extension.parallel_residual(
            problem.omega, result.xi0[sl], block, vs, 1).values
        theta1[sl] = extension.parallel_residual(
            problem.omega, result.xi1[sl], block, vs, 1).values
    rows = [(x, v, float(result.gap[ix, iv]), float(theta0[ix, iv]),
             float(theta1[ix, iv]))
            for ix, x in enumerate(result.x_grid)
            for iv, v in enumerate(result.v_grid)]
    row_pass = [r[2] <= 100.0 * EXTEND_TOL for r in rows]
    summary = {
        "pass": bool(result.accepted and sigma.verified),
        "rows": len(rows),
        "max_gap": result.max_gap,
        "accepted": result.accepted,
        "sigma_verified": sigma.verified,
    }
    report = harness.Report(
        kind="extend",
        scenario={"kind": "extend", "config": inputs, "seed": 0,
                  "tol": EXTEND_TOL},
        columns=harness.COLUMNS["extend"], rows=rows, row_pass=row_pass,
        summary=summary,
        provenance={"tool": "evostab", "tol": EXTEND_TOL,
                    "loop_defect": sigma.loop_defect,
                    "probe_residual": sigma.probe_residual},
    )
    harness.emit_report(report, out_dir)
    return {"rows": rows, "row_pass": row_pass, "summary": summary,
            "x_ref": problem.p_ref, "seed_vector": problem.sigma_seed,
            "x_grid": np.asarray(result.x_grid),
            "v_grid": np.asarray(result.v_grid),
            "sigma": sigma.values, "xi0": result.xi0, "xi1": result.xi1}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]             # seed -> plain-data inputs
    run_pass: Callable[[dict, object], dict]  # (inputs, report dir) -> outputs


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-example39", verify_inputs,
                 functools.partial(_scenario_pass, "verify")),
        Workload("sine-curve", sine_inputs,
                 functools.partial(_scenario_pass, "sine-curve")),
        Workload("extend-gauge", extend_inputs, extend_pass),
        Workload("certify-expr", certify_inputs,
                 functools.partial(_scenario_pass, "certify")),
    )
}
