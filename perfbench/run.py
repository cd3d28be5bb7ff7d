"""evostab benchmark: one workload, timed untraced or traced per module.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout; evostab is imported from its ``src/``.
One untimed warm-up pass runs first; then the workload's pass is
repeated, whole, until ``--seconds`` have elapsed, in one process and one
thread (BLAS and OpenMP pools are held to one thread).  The outputs of the
warm-up pass are checked against independent computations (oracles.py)
outside the timed region; every pass must reproduce them exactly.

--trace 0 reports the end-to-end metrics: wall_vs_ref, setup_s and
peak_rss_mb.  A shared host's speed drifts by 20-30% over tens of
seconds, so a raw pass time says more about the neighbours than about
the program.  Each pass is therefore timed between two runs of a fixed
reference kernel (``reference_kernel``: small numpy products and math
calls, no evostab), and wall_vs_ref is the median over passes of the pass
time (report writing included) over the mean time of the two kernels
beside it.  A program change moves it in proportion; host drift moves
both sides alike.  setup_s is the median of SETUP_PROBES fresh
interpreters importing evostab and building the inputs, spread evenly
over the run; peak_rss_mb is the benchmark process's peak resident memory.
--trace 1 repeats untraced passes for a quarter of ``--seconds``, installs
the per-module hooks of tracing.py, repeats traced passes for the rest,
writes the spans to .perfbench-trace/ and reports the per-layer metrics,
with the tracing overhead of the median traced pass over the median
untraced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
TRACE_DIR = ROOT / ".perfbench-trace"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _import_program():
    """Import evostab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    for var in ONE_THREAD:    # read by numpy's BLAS at import, and by probes
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import evostab
    origin = Path(evostab.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"evostab imported from {origin}, not from {src}")
    import workloads
    return workloads


def _setup_probe(workload: str, seed: int) -> float:
    """Launch-to-exit time of one fresh interpreter running probe.py."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: "
                           + proc.stderr.decode(errors="replace"))
    return elapsed


def reference_kernel(steps: int = 60_000) -> float:
    """Seconds taken by a fixed loop of the kind evostab's hot paths run
    (2x2 numpy products, math calls, float conversions): about a quarter
    of a second on a 2-vCPU Xeon host.  It never touches evostab, so only
    the machine's speed moves it."""
    import numpy as np
    a = np.array([[0.3, 0.1], [0.2, -0.4]])
    y = np.array([1.0, 0.5])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(steps):
        t = i * 1e-4
        y = a @ y * math.cos(t) + y
        acc += math.sin(t) * float(y[0])
        if abs(y[0]) > 1e6:
            y = y / 1e6
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel diverged")
    return elapsed


def _passes(w, inputs, seconds, first=None, before_each=None,
            after_each=None):
    """Whole passes until ``seconds`` have elapsed.

    Without ``first``, an untimed warm-up pass runs before them, so that
    lazy imports and caches fill outside the timing.  ``before_each()``
    and ``after_each(pass_seconds)`` run outside the timing.  Returns the
    pass times, the warm-up output (or ``first``) and whether every pass
    reproduced its rows.  Later outputs are dropped at once, so memory
    does not grow with the number of passes.
    """
    times, same = [], True
    if first is None:
        first = w.run_pass(inputs, OUT_DIR / w.name)
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if before_each:
            before_each()
        t0 = time.perf_counter()
        out = w.run_pass(inputs, OUT_DIR / w.name)
        times.append(time.perf_counter() - t0)
        if after_each:
            after_each(times[-1])
        same = same and out["rows"] == first["rows"]
    return times, first, same


def _check(name, inputs, seed, out, same):
    """Oracle verdict on one pass's outputs: (correct, failed rows)."""
    import oracles
    reference, compare = oracles.REFERENCES[name]
    ref = reference(inputs, seed)
    verdict = compare(inputs, out, ref)
    missed = oracles.check_the_checks(name, inputs, out, ref)
    flagged = {i for i, ok in enumerate(out["row_pass"]) if not ok}
    failed_rows = flagged | verdict.bad_rows
    for key, err in sorted(verdict.agreement.items()):
        _log(f"agreement {key}: {err:.3e}")
    for problem in verdict.problems:
        _log(f"CHECK FAILED: {problem}")
    for label in missed:
        _log(f"CHECK TOO LOOSE: accepted a perturbed output ({label})")
    if not same:
        _log("CHECK FAILED: passes gave different rows")
    if failed_rows:
        _log(f"failed rows: {len(flagged)} flagged by the program, "
             f"{len(verdict.bad_rows)} rejected by checks")
    return not verdict.problems and not missed and same, len(failed_rows)


def run_untraced(workloads, name, seed, seconds):
    w = workloads.WORKLOADS[name]
    inputs = w.inputs(seed)
    setup, refs, ratios = [], [], []
    start = time.perf_counter()

    def before_each():
        # set-up probes at 0, 1/n, 2/n... of the run, each followed by a
        # fresh reference, so that they sample the host's drift as the
        # passes do
        due = len(setup) * seconds / SETUP_PROBES
        if len(setup) < SETUP_PROBES and time.perf_counter() - start >= due:
            setup.append(_setup_probe(name, seed))
            refs.clear()
        if not refs:
            refs.append(reference_kernel())

    def after_each(pass_s):
        refs.append(reference_kernel())
        ratios.append(pass_s / (0.5 * (refs[-2] + refs[-1])))

    times, out, same = _passes(w, inputs, seconds, before_each=before_each,
                               after_each=after_each)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_probe(name, seed))
    _log(f"{name}: {len(times)} passes, "
         + ", ".join(f"{t:.3f}" for t in times) + " s; over the reference "
         + ", ".join(f"{r:.3f}" for r in ratios) + "; set-up "
         + ", ".join(f"{t:.3f}" for t in setup) + " s")
    _log(f"{name}: median pass {statistics.median(times):.4f} s")
    correct, failed = _check(name, inputs, seed, out, same)
    metrics = {
        "wall_vs_ref": (statistics.median(ratios), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    n = len(times) + 1                  # the warm-up pass attempts them too
    return correct, n * len(out["rows"]), n * failed, metrics


def run_traced(workloads, name, seed, seconds):
    import tracing
    w = workloads.WORKLOADS[name]
    inputs = w.inputs(seed)
    plain, out, same_plain = _passes(w, inputs, seconds / 4)
    untraced = statistics.median(plain)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    snaps = []
    times, _, same = _passes(w, inputs, seconds * 3 / 4, first=out,
                             before_each=tracer.reset,
                             after_each=lambda _: snaps.append(tracer.snapshot()))
    _log(f"{name}: untraced " + ", ".join(f"{t:.3f}" for t in plain)
         + " s, traced "
         + ", ".join(f"{t:.3f}" for t in times) + " s")
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"{name}-seed{seed}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "pass_s": times,
                    "untraced_pass_s": plain, "passes": snaps},
                   indent=1) + "\n", encoding="utf-8")
    correct, failed = _check(name, inputs, seed, out, same and same_plain)
    per_pass = [tracing.metrics(s) for s in snaps]
    metrics = {}
    for key, (value, unit) in per_pass[0].items():
        if unit == "count":
            if any(m[key][0] != value for m in per_pass[1:]):
                _log(f"CHECK FAILED: count {key} differs between passes")
                correct = False
        else:
            value = statistics.median(m[key][0] for m in per_pass)
        metrics[key] = (value, unit)
    wall = statistics.median(times)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_pct"] = (100.0 * (wall / untraced - 1.0), "%")
    n = len(times) + len(plain) + 1     # the warm-up pass attempts them too
    return correct, n * len(out["rows"]), n * failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = _import_program()
    except ImportError as exc:
        _log(f"cannot import the program: {exc}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        _log(f"unknown workload {args.workload!r} "
             f"(have {sorted(workloads.WORKLOADS)})")
        return 2
    run = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics = run(
        workloads, args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
