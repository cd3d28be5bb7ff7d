import contextlib
import copy
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evostab import transport
from evostab.cli import main as cli_main
from evostab.errors import ConfigError, ExpressionError
from evostab.expressions import (expression_matrix, expression_path,
                                 parse_expression)
from evostab.harness import (
    BUILTIN_SCENARIOS,
    COLUMNS,
    KINDS,
    Report,
    _CONNECTION,
    _MAX_GRID_COUNT,
    _MAX_PAIRS,
    _SCENARIOS,
    _Object,
    _read,
    emit_report,
    run_scenario,
)
from evostab.operators import NORM_KINDS

TINY_EVOLVE = {
    "A": [["cos(t)"]],
    "norm": "euclidean",
    "pairs": [[0.0, 1.0], [2.0, 0.5]],
}

TINY_VERIFY = {
    "system": {"builtin": "intro-cos", "norm": "euclidean"},
    "window": [0.0, 10.0],
    "num_pairs": 5,
}


def test_every_kind_has_documented_columns():
    assert set(COLUMNS) == set(KINDS)


def test_readme_csv_headers_match_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("CSV headers per kind:", 1)[1]
    block = block.split("```", 2)[1]
    documented = dict(line.split() for line in block.strip().splitlines())
    assert documented == {k: ",".join(v) for k, v in COLUMNS.items()}


def _table_keys():
    """{object: its keys} of the config tables: each kind, and each object
    nested in one under the key that holds it (``curves[i]`` for a list's
    items); an object with an alternative table has the keys of both."""
    keys = {}

    def walk(name, table):
        for t in (table, *table.alt[1:]):
            for key, _, kind in t.rows:
                keys.setdefault(name, set()).add(key)
                if isinstance(kind, _Object):
                    walk(key, kind)
                elif isinstance(kind, list):
                    walk(f"{key}[i]", kind[0])

    for kind, (_, table) in _SCENARIOS.items():
        walk(kind, table)
    return keys


def test_readme_config_keys_match_the_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    documented = {
        name: set(re.findall(r"^\| `([^`]+)` \|", body, re.M))
        for name, body in re.findall(r"^#### `([^`]+)`\n(.*?)(?=^#### |\Z)",
                                     section, re.M | re.S)}
    assert set(KINDS) <= set(documented)
    assert documented == _table_keys()
    # every norm row documents the values the validator accepts
    norm_rows = re.findall(r"^\| `norm` \| ([^|]*) \|", section, re.M)
    assert len(norm_rows) == sum("norm" in keys for keys in documented.values())
    for values in norm_rows:
        assert tuple(re.findall(r"`([^`]+)`", values)) == NORM_KINDS


def test_readme_example_and_builtin_scenarios_pass_the_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = json.loads(readme.split("```json", 1)[1].split("```", 1)[0])
    configs = [("verify", example), *BUILTIN_SCENARIOS.values()]
    for kind, config in configs:
        bag = []
        assert _read(_SCENARIOS[kind][1], config, bag) is not None, bag
        assert not bag


def test_readme_class_attributes_resolve():
    # every backticked `Class.attr` in the README whose head is a class of
    # evostab names a method, property, attribute or dataclass field of it
    import evostab
    classes = {}
    for info in pkgutil.iter_modules(evostab.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"evostab.{info.name}")
        classes.update((name, obj) for name, obj in vars(module).items()
                       if inspect.isclass(obj)
                       and obj.__module__.startswith("evostab."))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    refs = [(head, attr) for head, attr
            in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)", readme)
            if head in classes]
    assert refs
    for head, attr in refs:
        cls = classes[head]
        fields = ({f.name for f in dataclasses.fields(cls)}
                  if dataclasses.is_dataclass(cls) else set())
        assert hasattr(cls, attr) or attr in fields, f"{head}.{attr}"
    # every backticked bare name in a layout-table row is an attribute of
    # (one of) the row's evostab.<module>, so a deleted function cannot
    # stay named there
    rows = re.findall(r"^\| (`evostab\.[^|]*)\|(.*)\|$", readme, re.M)
    assert len(rows) >= 9
    for head, contents in rows:
        modules = [importlib.import_module(f"evostab.{name}")
                   for name in re.findall(r"`evostab\.(\w+)`", head)]
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            assert any(hasattr(m, name) for m in modules), (head, name)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        run_scenario("bogus", {})


def test_validation_collects_every_offending_field():
    bad = {
        "system": {"builtin": "no-such-field", "norm": "max"},
        "window": [5.0, 1.0],
        "num_pairs": -3,
    }
    with pytest.raises(ConfigError) as err:
        run_scenario("verify", bad)
    text = "; ".join(err.value.problems)
    assert "builtin" in text
    assert "window" in text
    assert "num_pairs" in text
    assert len(err.value.problems) >= 3


def test_evolve_zero_coefficient_reports_identity(tmp_path):
    report = run_scenario("evolve", {
        "A": [["0"]], "norm": "euclidean",
        "pairs": [[0.0, 2.0], [1.0, 5.0]],
    })
    assert report.passed
    for row in report.rows:
        assert row[2] == pytest.approx(1.0, abs=1e-12)
        assert row[3] == pytest.approx(1.0, abs=1e-12)


def test_evolve_scalar_cosine_rows_pass():
    report = run_scenario("evolve", TINY_EVOLVE)
    assert report.passed
    assert report.columns == COLUMNS["evolve"]
    assert len(report.rows) == 2


@pytest.mark.parametrize("tol", [1e-10, 1e-11])
def test_evolve_example39_passes_every_row(tol):
    # X(t, s) X(s, t) = I within 100 tol on [0, 30]: the worst defects are
    # 3.2e-9 and 3.6e-10.  The per-state stepper that evolve had before
    # the windowed sweep failed 2 and 5 of these 40 rows
    report = run_scenario("evolve", {"system": {"builtin": "example39"},
                                     "window": [0, 30], "num_pairs": 40},
                          seed=1, tol=tol)
    assert len(report.rows) == 40
    assert all(row[-1] for row in report.rows)
    assert report.passed


def test_evolve_summary_reports_cost():
    # one StepStats counts every pair's forward and backward integration
    report = run_scenario("evolve", TINY_EVOLVE)
    cost = report.summary["cost"]
    assert set(cost) == {"steps", "rejected", "rhs_evals", "segments",
                         "windows"}
    assert cost["rhs_evals"] > cost["steps"] > 0
    assert cost["segments"] == 2 * len(TINY_EVOLVE["pairs"])


def test_verify_builtin_system_passes():
    report = run_scenario("verify", TINY_VERIFY, seed=11)
    assert report.passed
    assert report.summary["bound"] == pytest.approx(math.e ** 4, rel=1e-9)
    assert report.summary["max_ratio"] <= 1.0
    assert report.summary["vacuous"] is False
    assert "log_log_bound" not in report.summary


def test_verify_row_does_not_depend_on_the_other_pairs(tmp_path):
    # the sweep covers the certificate window whatever the pairs, so the
    # rows of pairs P are the same bytes alone and among 30 more pairs Q
    def rows(pairs, name):
        report = run_scenario("verify", {
            "system": {"builtin": "example39", "norm": "euclidean"},
            "window": [0.0, 100.0], "pairs": pairs,
        })
        csv_path, _ = emit_report(report, tmp_path / name)
        return csv_path.read_text().splitlines()[1:]

    p = [[10.0, 60.0], [0.0, 100.0], [37.25, 37.25], [3.5, 91.0]]
    q = np.sort(np.random.default_rng(4).uniform(0.0, 100.0, (30, 2)),
                axis=1).tolist()
    alone = rows(p, "p")
    among = rows(q[:15] + p + q[15:], "pq")
    assert alone == among[15:15 + len(p)]


def test_certify_row_schema():
    report = run_scenario("certify", {
        "system": {"builtin": "intro-cos"}, "window": [0.0, 10.0]})
    assert report.columns == COLUMNS["certify"]
    n, v, c = report.rows[0][:3]
    assert n == pytest.approx(math.e ** 2, rel=1e-9)
    assert v == 0.0
    assert c == pytest.approx(math.e ** 4, rel=1e-9)
    assert report.summary["vacuous"] is False
    assert "log_log_bound" not in report.summary


def test_certify_reports_vacuous_certificate():
    # example39 over [0, 100]: N is in the hundreds, so C overflows
    report = run_scenario("certify", {
        "system": {"builtin": "example39"}, "window": [0.0, 100.0]})
    s = report.summary
    assert s["bound"] == math.inf and s["vacuous"] is True
    n, v = s["gain"], s["variation"]
    assert s["log_log_bound"] == pytest.approx(
        (3 + 2 * n) * math.log(n) + math.log(v), rel=1e-12)


def test_a_config_path_takes_one_array_call():
    # f over an array of times is one guarded numpy evaluation of its
    # expression, within an ulp of the scalar one; a constant's one value
    # is spread to the times' shape, and a domain fault raises the scalar
    # call's ExpressionError
    ts = np.linspace(0.0, 2.0, 7)
    f = parse_expression("sin(3*t) + t")
    calls = []
    counted = SimpleNamespace(
        many=lambda t, u: calls.append(len(t)) or f.many(t, u), dt=f.dt)
    got = expression_path(counted).eval(ts)
    assert calls == [7]
    assert np.allclose(got, [f(t) for t in ts.tolist()], rtol=1e-15, atol=0)
    constant = expression_path(parse_expression("0.5"))
    assert np.array_equal(constant.eval(ts), np.full(7, 0.5))
    assert np.array_equal(constant.deriv(ts), np.zeros(7))
    with pytest.raises(ExpressionError, match="t=-1.0"):
        expression_path(parse_expression("sqrt(t)")).eval(
            np.array([1.0, -1.0]))


# a field whose gain N overflows: the sup of its L1 norm is e^{e^2} > 709
OVERFLOW_SYSTEM = {"G": [["u*exp(exp(t))"]], "f": "0.5", "J": [-1, 1]}


@pytest.mark.parametrize("kind, extra", [
    ("certify", {}), ("verify", {"num_pairs": 3})])
def test_an_overflowing_gain_is_a_vacuous_pass(tmp_path, capsys, kind, extra):
    # N = +inf, its finite ln N in the summary, and exit 0: no traceback
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(
        {"system": OVERFLOW_SYSTEM, "window": [0, 2], **extra}))
    out = tmp_path / "o"
    assert cli_main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"PASS (vacuous) {kind}")
    s = json.loads((out / "summary.json").read_text())["summary"]
    assert s["vacuous"] is True and s["overflow"] is True
    assert s["gain"] == "inf" and s["bound"] == "inf"
    assert s["log_gain"] == pytest.approx(math.exp(math.exp(2.0)), rel=1e-3)


# a field whose inner integral outgrows the absolute tolerance: the
# Kronrod-Gauss gap of 0.05 e^{50 t}, up to 3.3e4 on the window, is 15.5 eps
# of it, above the inner tolerance 1e-10, so that only the roundoff floor
# lets the variation converge
ROUNDOFF_SYSTEM = {"G": [["u + 0.001*exp(50*t)"]], "f": "sin(t)",
                   "J": [-0.5, 0.5]}


def test_a_large_inner_integral_certifies_at_its_roundoff_floor(tmp_path):
    cfg = tmp_path / "roundoff.json"
    cfg.write_text(json.dumps({"system": ROUNDOFF_SYSTEM,
                               "window": [0, 0.268]}))
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["certify", "--config", str(cfg),
                         "--out", str(out)]) == 0
    report = json.loads((out / "summary.json").read_text())
    tolerances = report["provenance"]["tolerances"]
    # V = int_0^0.268 int_J 0.05 e^{50 t} du dt, as |J| = 1
    exact = 0.001 * math.expm1(13.4)
    assert tolerances["roundoff_floor"] > 1e-10
    assert abs(report["summary"]["variation"] - exact) <= min(
        tolerances.values())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stepping_benchmark_configurations_agree_with_a_tighter_run(seed):
    # the benchmark's example39 verify (40 pairs) and sine-curve (b down
    # to -1e-3) configurations: the largest relative error of the
    # propagator norms against a run at tol / 1000, in units of tol, at
    # seeds 1-3, was for example39 at most 24.6 with windows of at most
    # 16 steps and 3.6 with windows of up to 64, for sine-curve at most
    # 1.6 and 3.7.  The bounds are about twice the worst of either
    v = np.random.default_rng(seed).normal(size=2).tolist()
    for kind, config, tol, columns, bound in [
        ("verify", {"system": {"builtin": "example39", "norm": "euclidean"},
                    "window": [0.0, 100.0], "num_pairs": 40},
         1e-10, (2, 3), 50.0),
        ("sine-curve", {"connection": {"builtin": "gauge-twist"}, "a": -1.0,
                        "b_list": [-1e-1, -1e-2, -1e-3], "v": v},
         1e-8, (1,), 10.0),
    ]:
        run = run_scenario(kind, config, seed=seed)
        ref = run_scenario(kind, config, seed=seed, tol=tol / 1000)
        assert run.passed and ref.passed
        err = max(abs(r[c] - q[c]) / abs(q[c])
                  for r, q in zip(run.rows, ref.rows) for c in columns)
        assert err <= bound * tol, (kind, err / tol)


def test_verify_expression_system_with_u_dependence():
    report = run_scenario("verify", {
        "system": {
            "f": "sin(t)",
            "G": [["0.4 + 0.1*sin(t)*u"]],
            "I": [0.0, 20.0], "J": [-1.0, 1.0], "norm": "euclidean",
        },
        "window": [0.0, 6.0], "num_pairs": 4,
    }, seed=9)
    assert report.passed
    assert report.summary["variation"] > 0.0
    assert math.isfinite(report.summary["bound"])


def test_substitution_scenario_with_expressions():
    report = run_scenario("substitution", {
        "B": [["1"]], "f": "sin(t)", "norm": "euclidean",
        "pairs": [[0.0, 1.0], [0.5, 3.0]],
    })
    assert report.passed
    assert report.summary["max_defect"] <= 1e-8
    cost = report.summary["cost"]
    assert set(cost) == {"steps", "rejected", "rhs_evals", "segments",
                         "windows"}
    assert cost["rhs_evals"] > cost["steps"] > 0


def test_cov_check_scenario_with_vector_expression():
    report = run_scenario("cov-check", {
        "f": "sin(t)", "y": ["u", "u^2"],
        "pairs": [[0.0, 1.5], [2.0, 0.5]],
    })
    assert report.passed
    assert report.summary["max_defect"] <= 1e-9


def test_transport_scenario_expression_curves():
    report = run_scenario("transport", {
        "connection": {"builtin": "mixed-bounded", "M": [-2.0, 2.0],
                       "J": [-1.5, 1.5]},
        "curves": [
            {"gamma1": "t", "gamma2": "0.5*sin(3*t)", "domain": [0.0, 1.0]},
            {"gamma1": "t - 1", "gamma2": "0.3*cos(2*t)",
             "domain": [0.0, 1.5]},
        ],
    })
    assert report.passed
    assert report.columns == COLUMNS["transport"]
    assert len(report.rows) == 2
    cost = report.summary["cost"]
    assert set(cost) == {"steps", "rejected", "rhs_evals", "segments",
                         "windows"}
    assert cost["rhs_evals"] > cost["steps"] > 0


def test_sine_curve_scenario_zero_connection():
    report = run_scenario("sine-curve", {
        "connection": {"builtin": "zero"},
        "a": -1.0, "b_list": [-0.5, -0.01], "v": [1.0, 0.0],
    })
    assert report.passed
    for row in report.rows:
        assert row[1] == pytest.approx(1.0, abs=1e-8)  # norm preserved
    assert report.summary["vacuous"] is False
    cost = report.summary["cost"]
    assert set(cost) == {"steps", "rejected", "rhs_evals", "segments",
                         "windows"}
    assert cost["segments"] == 1 and cost["rhs_evals"] > cost["steps"] > 0


def test_extend_scenario_summary_contract():
    report = run_scenario("extend", {
        "problem": {"builtin": "extension-gauge"},
        "grid": {"nx_left": 4, "nx_right": 6, "nv": 9},
    })
    assert report.passed
    assert report.summary["max_gap"] <= 1e-7
    assert report.columns == COLUMNS["extend"]
    cost = report.summary["cost"]
    assert set(cost) == {"steps", "rejected", "rhs_evals", "segments",
                         "windows"}
    assert cost["rhs_evals"] > cost["steps"] > 0


@pytest.mark.parametrize("grid, field", [
    ({"nx_left": "six"}, "grid.nx_left"),
    ({"x_floor": "tiny"}, "grid.x_floor"),
    ({"nx_left": 2.9}, "grid.nx_left"),
    ({"nv": True}, "grid.nv"),
    ({"nv": 1}, "grid.nv"),
    ({"nx_right": "10"}, "grid.nx_right"),
    ({"x_floor": 100}, "grid.x_floor"),  # past M.hi = 2
    ({"x_floor": 1e308}, "grid.x_floor"),
    ({"nx_left": 1001}, "grid.nx_left"),
    ({"nx_right": 10 ** 12}, "grid.nx_right"),
    ({"nv": 1e300}, "grid.nv"),
])
def test_extend_rejects_non_numeric_grid(tmp_path, capsys, grid, field):
    config = {"problem": {"builtin": "extension-gauge"}, "grid": grid}
    with pytest.raises(ConfigError, match=field):
        run_scenario("extend", config)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main(["extend", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("kind, config", [
    ("verify", dict(TINY_VERIFY, num_pairs=_MAX_PAIRS + 1)),
    ("evolve", {"A": [["0"]], "window": [0.0, 1.0], "num_pairs": 10 ** 15}),
])
def test_huge_num_pairs_is_refused_before_drawing(tmp_path, capsys, kind,
                                                  config):
    with pytest.raises(ConfigError, match="num_pairs: expected at most"):
        run_scenario(kind, config)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([kind, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert "num_pairs" in capsys.readouterr().err


def test_readme_states_the_count_caps():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for key in ("nx_left", "nx_right", "nv"):
        assert re.search(rf"^\| `{key}` \|.*\| 2 to {_MAX_GRID_COUNT} \|$",
                         readme, re.M)
    rows = re.findall(r"^\| `num_pairs` \|.*$", readme, re.M)
    assert rows and all(f"| 1 to {_MAX_PAIRS};" in r for r in rows)


def test_expression_connection_from_config():
    report = run_scenario("transport", {
        "connection": {
            "omega1": [["0", "0"], ["0", "0"]],
            "omega2": [["0.2", "0"], ["0", "0.2"]],
            "M": [-1.0, 1.0], "J": [-1.0, 1.0], "norm": "euclidean",
        },
        "curves": [
            {"gamma1": "0", "gamma2": "t", "domain": [-1.0, 1.0]},
        ],
    })
    assert report.passed
    # omega1 = 0: transport along the fiber is exp(-0.2 * 2)
    assert report.rows[0][2] == pytest.approx(math.exp(-0.4), rel=1e-8)


# ---------------------------------------------------------------------------
# emission


def test_emit_report_writes_header_only_for_empty_rows(tmp_path):
    report = Report(kind="verify", scenario={}, columns=COLUMNS["verify"],
                    rows=[], row_pass=[], summary={"pass": True, "rows": 0},
                    provenance={})
    csv_path, summary_path = emit_report(report, tmp_path)
    assert csv_path.read_text() == "s,t,norm_X,norm_Xinv,C,ratio\n"
    payload = json.loads(summary_path.read_text())
    assert payload["summary"]["rows"] == 0


def test_emit_report_formats_booleans_and_floats(tmp_path):
    report = run_scenario("evolve", TINY_EVOLVE)
    csv_path, _ = emit_report(report, tmp_path / "out")
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "s,t,norm_X,norm_Xinv,inv_defect,pass"
    assert lines[1].endswith(",true")
    # floats are shortest round-trip representations
    assert "0.0,1.0," in lines[1]


def test_emit_report_cell_formats_by_type(tmp_path):
    # np.float64 is a float whose repr is "np.float64(0.1)": it must still
    # be written as its value
    cells = [True, np.bool_(False), 3, np.int64(3), np.float64(0.1), -0.0,
             math.nan, math.inf, "tag"]
    report = Report(kind="verify", scenario={},
                    columns=tuple(f"c{i}" for i in range(len(cells))),
                    rows=[cells], row_pass=[True], summary={}, provenance={})
    csv_path, _ = emit_report(report, tmp_path)
    assert csv_path.read_text().splitlines()[1] == (
        "true,false,3,3,0.1,-0.0,nan,inf,tag")


def test_emit_report_handles_infinite_bound(tmp_path):
    report = run_scenario("verify", {
        "system": {"builtin": "example39"}, "window": [0.0, 5.0],
        "num_pairs": 3,
    }, seed=1)
    csv_path, summary_path = emit_report(report, tmp_path)
    assert "inf" in csv_path.read_text()
    payload = json.loads(summary_path.read_text())  # strict JSON remains valid
    summary = payload["summary"]
    assert summary["bound"] == "inf"
    # the pass proves nothing, and says so with a finite magnitude
    assert summary["vacuous"] is True
    n, v = summary["gain"], summary["variation"]
    assert summary["log_log_bound"] == pytest.approx(
        (3.0 + 2.0 * n) * math.log(n) + math.log(v), rel=1e-12)
    cost = summary["cost"]
    assert set(cost) == {"steps", "rejected", "rhs_evals", "segments",
                         "windows", "quad_panels", "quad_nodes"}
    assert cost["rhs_evals"] > cost["steps"] > 0
    # example39 is u-independent: its only quadrature is the
    # derivative-mode variation, one integrand value per node
    assert cost["quad_nodes"] == 15 * cost["quad_panels"] > 0


def test_rows_csv_byte_identical_for_fixed_seed(tmp_path):
    outs = []
    for sub in ("a", "b"):
        report = run_scenario("verify", TINY_VERIFY, seed=123)
        csv_path, _ = emit_report(report, tmp_path / sub)
        outs.append(csv_path.read_bytes())
    assert outs[0] == outs[1]


def test_seed_changes_sampled_pairs(tmp_path):
    r1 = run_scenario("verify", TINY_VERIFY, seed=1)
    r2 = run_scenario("verify", TINY_VERIFY, seed=2)
    assert r1.rows != r2.rows


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_exit_code_contract(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_EVOLVE))
    assert cli_main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "rows.csv").is_file()
    assert (tmp_path / "ok" / "summary.json").is_file()


def test_cli_exit_one_when_rows_fail(tmp_path):
    # a deliberately too-small user certificate cannot dominate e^2 growth
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": {"builtin": "intro-cos"},
        "window": [0.0, 20.0],
        "pairs": [[3 * math.pi / 2, 4 * math.pi + math.pi / 2]],
        "certificate": {"gain": 1.5, "variation": 0.0},
    }))
    code = cli_main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "fail")])
    assert code == 1
    payload = json.loads((tmp_path / "fail" / "summary.json").read_text())
    assert payload["summary"]["pass"] is False
    assert payload["summary"]["max_ratio"] > 1.0


def test_verify_rejects_bad_user_certificate():
    with pytest.raises(ConfigError, match="certificate"):
        run_scenario("verify", {
            "system": {"builtin": "intro-cos"},
            "window": [0.0, 10.0], "num_pairs": 2,
            "certificate": {"gain": 0.5, "variation": 0.0},
        })


def test_constant_builtin_field_with_matrix(tmp_path):
    report = run_scenario("verify", {
        "system": {"builtin": "constant", "norm": "euclidean",
                   "matrix": [[0.0, 0.5], [-0.5, 0.0]]},
        "window": [0.0, 10.0], "num_pairs": 5,
    }, seed=4)
    assert report.passed
    # time-independent field: variation 0, bound = gain^2
    assert report.summary["variation"] == pytest.approx(0.0, abs=1e-12)
    assert report.summary["bound"] == pytest.approx(
        report.summary["gain"] ** 2, rel=1e-12)


def test_cli_rejects_bad_config_with_code_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"A": [["cos(t"]], "pairs": [[0, 1]]}))
    code = cli_main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_file_and_wrong_builtin_kind(tmp_path, capsys):
    assert cli_main(["evolve", "--config", "/does/not/exist.json",
                     "--out", str(tmp_path)]) == 2
    assert cli_main(["evolve", "--config", "builtin:sine-curve",
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("data, problem", [
    (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 200_000, "maximum recursion depth exceeded"),
])
def test_cli_undecodable_or_too_deep_config_exits_2(tmp_path, capsys, data,
                                                     problem):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(data)
    assert cli_main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: config: invalid JSON in "
                             f"{str(cfg)!r}: ")
    assert problem in err[0]


def test_cli_builtin_listing(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_SCENARIOS:
        assert name in out


def test_cli_tol_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_EVOLVE))
    assert cli_main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "t"), "--tol", "1e-8"]) == 0
    payload = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert payload["provenance"]["tol"] == 1e-8


def test_console_script_runs_in_subprocess(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_EVOLVE))
    proc = subprocess.run(
        [sys.executable, "-m", "evostab.cli", "evolve",
         "--config", str(cfg), "--out", str(tmp_path / "sp")],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_python_dash_m_evostab_runs_from_a_checkout():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "evostab", "list"],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "sine-curve  (sine-curve)" in proc.stdout.splitlines()


def test_importing_evostab_leaves_scipy_linalg_unloaded():
    # the evolution module imports scipy.linalg only when it exponentiates
    # a matrix larger than 2x2; loading it costs every run its import time
    root = Path(__file__).resolve().parents[1]
    mods = [m.name for m in pkgutil.iter_modules([str(root / "src/evostab")])
            if m.name != "__main__"]
    code = ("import sys\n"
            + "".join(f"import evostab.{m}\n" for m in mods)
            + "print('scipy.linalg' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_harness_loads_no_scipy():
    # the scenarios' modules use numpy and math alone; scipy's import
    # (about 0.3 s) is left to the exponentials larger than 2x2
    code = ("import sys\nimport evostab.harness\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_certify_complex_expression_exits_3(tmp_path, capsys):
    cfg = tmp_path / "complex.json"
    cfg.write_text(json.dumps({
        "system": {"G": [["(0-8)^0.5"]], "f": "sin(t)", "J": [-1.0, 1.0]},
        "window": [0.0, 1.0]}))
    assert cli_main(["certify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "evaluation of '(0-8)^0.5' failed" in err


def test_certify_of_an_overflowing_entry_exits_3_without_warnings(
        tmp_path, capsys):
    # t*1e300*t overflows from t of about 1.34e4: the panel that reaches
    # it raises the entry's ExpressionError, not a non-finite certificate
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({
        "system": {"G": [["atan(t) + 0*(t*1e300*t)"]], "f": "sin(t)",
                   "J": [-1, 1]},
        "window": [0, 20000]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["certify", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"^error: evaluation of 'atan\(t\) \+ 0\*\(t\*1e300\*t\)'"
                     r" failed at \(t=[0-9.]+, u=0\.0\): overflow", err, re.M)
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_expression_matrix_stack_faults_like_its_faulting_entry():
    rows = [["1", "exp(-t)"], ["sqrt(u)", "t*u"]]
    G = expression_matrix(rows)
    us = np.array([0.25, 4.0, 9.0])
    stack = G(0.5, us)
    for i, j in np.ndindex(2, 2):
        entry = parse_expression(rows[i][j]).many(0.5, us)
        assert np.array_equal(stack[:, i, j], np.broadcast_to(entry, (3,)))
    with pytest.raises(ExpressionError) as scalar:
        parse_expression("sqrt(u)")(0.5, -1.0)
    with pytest.raises(ExpressionError) as batch:
        G(0.5, np.array([1.0, -1.0]))
    assert str(batch.value) == str(scalar.value)


def test_expression_connection_stacks_over_paired_points():
    # a config-defined connection takes its omega stacks from the
    # expression matrices' numpy evaluators, over points of any shape: the
    # values of the entries' scalar math evaluators to rounding
    bag = []
    cfg = {"omega1": [["sin(u)", "0.2*cos(t)"], ["-0.2*cos(t)", "cos(u)"]],
           "omega2": [["0.15", "t*u"], ["exp(-t)", "-0.15"]],
           "M": [-1.0, 1.0], "J": [-1.0, 1.0]}
    w = _read(_CONNECTION, cfg, bag)
    assert not bag
    rng = np.random.default_rng(4)
    xs, us = rng.uniform(-1.0, 1.0, (2, 5, 3))
    for rows, stack in ((cfg["omega1"], w.omega1), (cfg["omega2"], w.omega2)):
        entries = [[parse_expression(s) for s in row] for row in rows]
        want = np.array([[[e(x, u) for e in row] for row in entries]
                         for x, u in zip(xs.ravel().tolist(),
                                         us.ravel().tolist())])
        got = stack(xs, us)
        assert got.shape == (5, 3, 2, 2)
        np.testing.assert_allclose(got, want.reshape(got.shape), rtol=1e-15,
                                   atol=1e-15)
        assert stack(xs[:, :1], us[0]).shape == (5, 3, 2, 2)


def test_expression_connection_samples_its_exact_x_derivative():
    # omega2 = [[0, t u], [-t u, 0]] on [-1, 1]^2: d/dx omega2 is the
    # expression matrix's exact partial_t, [[0, u], [-u, 0]], of norm |u|,
    # so B12 is 1.05 * 1 exactly; omega2 itself is never differenced
    bag = []
    w = _read(_CONNECTION, {"omega1": [["0", "1"], ["-1", "0"]],
                            "omega2": [["0", "t*u"], ["-t*u", "0"]],
                            "M": [-1.0, 1.0], "J": [-1.0, 1.0]}, bag)
    assert not bag
    assert w.d1_omega2 is w.omega2.partial_t
    calls = []
    w = dataclasses.replace(
        w, omega2=lambda x, u, f=w.omega2: calls.append(1) or f(x, u))
    bounds = transport.sample_connection_bounds(w)
    assert bounds.B12 == 1.05
    # one omega2 call per level (17 and 33), none for d/dx omega2
    assert bounds.provenance == "grid-sampled(33x33)"
    assert len(calls) == 2


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, "1e-8"])
def test_run_scenario_rejects_bad_tolerance(tol):
    with pytest.raises(ConfigError, match="tol"):
        run_scenario("evolve", TINY_EVOLVE, tol=tol)


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_cli_bad_tolerance_exits_2(tmp_path, capsys, tol):
    assert cli_main(["verify", "--config", "builtin:intro-cos",
                     "--out", str(tmp_path), "--tol", tol]) == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
def test_run_scenario_rejects_bad_seed(seed):
    with pytest.raises(ConfigError, match="seed: expected a whole number"):
        run_scenario("evolve", TINY_EVOLVE, seed=seed)


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    # it used to reach numpy's random generator and end in a traceback
    assert cli_main(["verify", "--config", "builtin:intro-cos",
                     "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert "seed: expected a whole number >= 0, got -1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("kind, config, code, error", [
    ("verify", dict(TINY_VERIFY, num_pairs=0), 2, {
        "type": "ConfigError",
        "message": "invalid configuration: num_pairs: expected a "
                   "positive integer (or give pairs)"}),
    ("certify", {"system": {"G": [["atan(t) + 0*(t*1e300*t)"]],
                            "f": "sin(t)", "J": [-1, 1]},
                 "window": [0, 20000]}, 3, {
        "type": "ExpressionError",
        "message": "evaluation of 'atan(t) + 0*(t*1e300*t)' failed at "
                   "(t=13750.0, u=0.0): overflow encountered in multiply"}),
    ("evolve", {"A": [["0", "1"], ["-exp(t)", "0"]], "window": [0.0, 40.0],
                "num_pairs": 3}, 3, {
        "type": "IntegrationError", "location": 20.47286498801027,
        "message": "step size underflow at t = 20.47286498801027 "
                   "(stiffness or singularity)"}),
])
def test_a_failed_run_leaves_no_earlier_verdict(tmp_path, kind, config,
                                                code, error):
    # a passing run's rows.csv and summary.json used to survive a later
    # failed run into the same directory
    out = tmp_path / "d"
    assert cli_main(["verify", "--config", "builtin:intro-cos",
                     "--out", str(out)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([kind, "--config", str(cfg), "--out", str(out),
                     "--seed", "1"]) == code
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    text = (out / "summary.json").read_text()
    assert json.loads(text) == {"kind": kind, "summary": {
        "pass": False, "error": error}}
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=2) + "\n"


def test_failure_summary_that_cannot_be_written_keeps_the_exit_code(
        tmp_path, capsys):
    # --out names a file: neither the report nor the failure summary can
    # be written, and the run still exits 2 with its config error
    out = tmp_path / "file"
    out.write_text("x")
    assert cli_main(["verify", "--config", "builtin:intro-cos",
                     "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == \
        "config error: seed: expected a whole number >= 0, got -1\n"
    assert out.read_text() == "x"


@pytest.mark.parametrize("kind, config, field", [
    ("evolve", dict(TINY_EVOLVE, breakpoints=["x"]), "breakpoints"),
    ("certify", {"system": {"G": [["u"]], "f": "sin(t)", "J": [-1.0, 1.0],
                            "G_breakpoints": ["x"]},
                 "window": [0.0, 1.0]}, "G_breakpoints"),
    ("certify", {"system": {"G": [["u"]], "f": "sin(t)", "J": [-1.0, 1.0],
                            "f_breakpoints": [1.0, None]},
                 "window": [0.0, 1.0]}, "f_breakpoints"),
    ("transport", {"connection": {"builtin": "zero"},
                   "curves": [{"gamma1": "t", "gamma2": "0",
                               "domain": [-1.0, 1.0],
                               "gamma1_breakpoints": ["x"]}]},
     "gamma1_breakpoints"),
])
def test_breakpoint_lists_must_be_numbers(tmp_path, capsys, kind, config,
                                          field):
    with pytest.raises(ConfigError, match=field):
        run_scenario(kind, config)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([kind, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


def test_extend_accepts_whole_float_grid_counts():
    report = run_scenario("extend", {
        "problem": {"builtin": "extension-gauge"},
        "grid": {"nx_left": 4.0, "nx_right": 6, "nv": 9.0},
    })
    assert report.provenance["grid"]["nx"] == 10
    assert report.provenance["grid"]["nv"] == 9
    assert len(report.rows) == 90


SINE_ZERO = {"connection": {"builtin": "zero"}, "a": -1.0,
             "b_list": [-0.5], "v": [1.0, 0.0]}


@pytest.mark.parametrize("kind, config, field", [
    ("sine-curve", dict(SINE_ZERO, b_floor="x"), "b_floor"),
    ("sine-curve", dict(SINE_ZERO, b_floor=-2.0), "b_floor"),
    ("sine-curve", dict(SINE_ZERO, b_floor=-1.0), "b_floor"),
    ("sine-curve", dict(SINE_ZERO, b_floor=math.nan), "b_floor"),
    ("sine-curve", dict(SINE_ZERO, b_list=[-0.5, 0.5]), "b_list"),
    ("sine-curve", dict(SINE_ZERO, b_list=[-1.5]), "b_list"),
    ("verify", dict(TINY_VERIFY, certify_tol=-1), "certify_tol"),
    ("verify", dict(TINY_VERIFY, certify_tol="x"), "certify_tol"),
    ("verify", dict(TINY_VERIFY, certify_tol=math.inf), "certify_tol"),
])
def test_bad_sine_curve_and_certify_settings_exit_2(tmp_path, capsys, kind,
                                                    config, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([kind, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


INTRO_COS = '"system": {"builtin": "intro-cos"}'


@pytest.mark.parametrize("kind, text, problem", [
    ("verify", '{%s, "window": [0, 5], "pairs": [[0, 7]]}' % INTRO_COS,
     "pairs: pair (0.0, 7.0) outside the window [0, 5]"),
    ("verify", '{%s, "window": [0, 5], "pairs": [[NaN, 1]]}' % INTRO_COS,
     "pairs: expected a non-empty list of [s, t]"),
    ("verify", '{%s, "window": [0, 1e400], "num_pairs": 3}' % INTRO_COS,
     "window: expected finite bounds, got [0, inf]"),
    ("evolve", '{"A": [["cos(t)"]], "pairs": [[0, Infinity]]}',
     "pairs: expected a non-empty list of [s, t]"),
    ("evolve", '{"A": [["cos(t)"]], "pairs": [[0, true]]}',
     "pairs: expected a non-empty list of [s, t]"),
    ("verify", '{%s, "window": [0, 5], "num_pairs": 2, "certificate": '
               '{"gain": Infinity, "variation": 0}}' % INTRO_COS,
     "certificate: expected {gain >= 1, variation >= 0}, both finite"),
    ("verify", '{%s, "window": [0, 5], "num_pairs": 2, "certificate": '
               '{"gain": 3, "variation": Infinity}}' % INTRO_COS,
     "certificate: expected {gain >= 1, variation >= 0}, both finite"),
    ("certify", '{"system": {"G": [["u"]], "f": "sin(t)", "J": [-1, 1], '
                '"u_independent": true}, "window": [0, 5]}',
     "system.u_independent: unknown key (have ['G', 'G_breakpoints', 'f', "
     "'f_breakpoints', 'I', 'J', 'norm'])"),
    ("certify", '{"system": {"G": [["u"]], "f": "sin(t)", "J": [-1, 1], '
                '"I": [0, 1]}, "window": [0, 5]}',
     "window: [0, 5] does not lie inside the system's time interval "
     "I = [0.0, 1.0]"),
    ("certify", '{"system": {"G": [["u"]], "f": "sin(t)", "J": [-1, 1], '
                '"f_breakpoints": [0.5, 0.5]}, "window": [0, 1]}',
     "system.f_breakpoints: expected distinct breakpoints, got [0.5, 0.5]"),
    ("transport", '{"connection": {"builtin": "zero"}, "curves": [{"gamma1": '
                  '"t", "gamma2": "0", "domain": [-1, 1], '
                  '"gamma1_breakpoints": [0.5, 0.5]}]}',
     "curves[0].gamma1_breakpoints: expected distinct breakpoints, "
     "got [0.5, 0.5]"),
    ("evolve", '{"A": [["cos(t)"]], "breakpoints": [0.5, 0.5], '
               '"pairs": [[0, 1]]}',
     "breakpoints: expected distinct breakpoints, got [0.5, 0.5]"),
    ("evolve", '{"A": [["cos(t)"]], "domain": [0, 1], "pairs": [[5, 9]]}',
     "domain: unknown key (have ['A', 'breakpoints', 'norm', 'window', "
     "'pairs', 'num_pairs'])"),
])
def test_malformed_pairs_and_windows_exit_2(tmp_path, capsys, kind, text,
                                           problem):
    _assert_config_error_exits_2(tmp_path, capsys, kind, text, problem)


def _assert_config_error_exits_2(tmp_path, capsys, kind, text, problem):
    """The config text names ``problem`` in a ConfigError, and the
    command line prints it and exits 2."""
    with pytest.raises(ConfigError) as err:
        run_scenario(kind, json.loads(text))
    assert problem in err.value.problems
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert cli_main([kind, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {problem}" in capsys.readouterr().err


SINE_ZERO_TEXT = '"connection": {"builtin": "zero"}, "b_list": [-0.5]'


def _paths(node, path=()):
    """The paths (tuples of keys and indices) to every value in node."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_configs(draw):
    """A tiny valid config with one value dropped, retyped, or pushed out
    of range, or with one unknown key added; and whether a number was
    made non-finite."""
    kind, config = draw(st.sampled_from([
        ("evolve", TINY_EVOLVE), ("verify", TINY_VERIFY),
        ("verify", dict(TINY_VERIFY,
                        certificate={"gain": 3.0, "variation": 0.0})),
        ("certify", {"system": OVERFLOW_SYSTEM, "window": [0, 2]}),
        ("certify", {"system": ROUNDOFF_SYSTEM, "window": [0, 0.268]}),
        ("sine-curve", SINE_ZERO)]))
    config = copy.deepcopy(config)
    path = draw(st.sampled_from(list(_paths(config))))
    parent = config
    for step in path[:-1]:
        parent = parent[step]
    value = parent[path[-1]] if path else config
    how = draw(st.sampled_from(["drop", "retype", "range", "unknown"]))
    non_finite = False
    if how == "unknown" and isinstance(value, dict):
        value["bogus"] = 1
    elif how == "drop" and path:
        del parent[path[-1]]
    elif how == "range" and path and isinstance(value, (int, float)):
        parent[path[-1]] = draw(st.sampled_from(
            [-1, 0, math.nan, math.inf, -math.inf]))
        non_finite = not math.isfinite(parent[path[-1]])
    elif how == "retype" or how == "range":
        new = draw(st.sampled_from(["x", True, None, [], {}, [["x"]], 1.5]))
        if path:
            parent[path[-1]] = new
        else:
            config = new
    return kind, config, non_finite


@settings(max_examples=200, deadline=None)
@given(case=_mutated_configs())
def test_exit_code_contract_on_mutated_configs(case):
    # 0, 1, 2 or 3; 2 exactly when a config error is printed, and always
    # for a non-finite number (json reads NaN and Infinity); 1 only with
    # a failed row
    kind, config, non_finite = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([kind, "--config", str(cfg),
                             "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2, 3)
    assert (code == 2) == ("config error: " in err.getvalue()), err.getvalue()
    assert code == 2 or not non_finite, config
    if code == 1:
        assert not all(run_scenario(kind, config).row_pass)


@pytest.mark.parametrize("kind, text, problem", [
    ("certify", '{"system": {"builtin": "constant", "matrix": [[1, 2]]}, '
                '"window": [0, 3]}',
     "system.matrix: expected a square matrix of finite numbers, "
     "got [[1, 2]]"),
    ("verify", '{"system": {"builtin": "constant", "matrix": [[1, 2]]}, '
               '"window": [0, 3], "num_pairs": 2}',
     "system.matrix: expected a square matrix of finite numbers, "
     "got [[1, 2]]"),
    ("certify", '{"system": {"builtin": "constant", "matrix": [[NaN]]}, '
                '"window": [0, 3]}',
     "system.matrix: expected a square matrix of finite numbers, "
     "got [[nan]]"),
    ("sine-curve", '{%s, "a": -1e400, "v": [1.0, 0.0]}' % SINE_ZERO_TEXT,
     "a: expected a finite number, got -inf"),
    ("sine-curve", '{%s, "a": -1.0, "v": [NaN, 0.0]}' % SINE_ZERO_TEXT,
     "v: expected finite entries, got [nan, 0.0]"),
    ("certify", '{"system": {"builtin": ["x"]}, "window": [0, 1]}',
     "system.builtin: unknown field ['x'] "
     "(have ['constant', 'example39', 'intro-cos', 'rotation'])"),
    ("transport", '{"connection": {"builtin": ["zero"]}, "curves": '
                  '[{"gamma1": "t", "gamma2": "0", "domain": [-1, 1]}]}',
     "connection.builtin: unknown ['zero'] (have ['gauge-rotation', "
     "'gauge-twist', 'mixed-bounded', 'scalar-decay', 'zero'])"),
    ("sine-curve", '{"connection": {"builtin": "zero", "J": [0, 0.5]}, '
                   '"b_list": [-0.5], "a": -1.0, "v": [1.0, 0.0]}',
     "connection.J: [0.0, 0.5] must contain [-1, 1], the range of sin(1/t)"),
    ("sine-curve", '{"connection": {"builtin": "zero", "M": [-1.05, -0.6]}, '
                   '"b_list": [-0.5], "a": -1.0, "v": [1.0, 0.0]}',
     "connection.M: [-1.05, -0.6] must contain the curve's x-range "
     "[-1.0, -0.5]"),
    ("sine-curve", '{%s, "a": -1.0, "v": [1.0, 0.0], "b_flor": 3}'
                   % SINE_ZERO_TEXT,
     "b_flor: unknown key (have ['connection', 'a', 'b_list', 'v', "
     "'b_floor'])"),
])
def test_non_square_matrix_and_non_finite_sine_inputs_exit_2(
        tmp_path, capsys, kind, text, problem):
    _assert_config_error_exits_2(tmp_path, capsys, kind, text, problem)


@pytest.mark.parametrize("kind, text, problem", [
    ("verify", '{%s, "window": [0, 5], "num_pairs": true}' % INTRO_COS,
     "num_pairs: expected a positive integer (or give pairs)"),
    ("verify", '{%s, "window": [0, 5], "num_pairs": 2, "certificate": '
               '{"gain": true, "variation": false}}' % INTRO_COS,
     "certificate: expected {gain >= 1, variation >= 0}, both finite"),
    ("sine-curve", '{%s, "a": -1.0, "v": [true, false]}' % SINE_ZERO_TEXT,
     "v: expected a non-empty numeric vector"),
    ("certify", '{"system": {"builtin": "constant", "matrix": [[true]]}, '
                '"window": [0, 3]}',
     "system.matrix: expected a square matrix of finite numbers, "
     "got [[True]]"),
])
def test_booleans_are_not_read_as_numbers_or_flags(tmp_path, capsys, kind,
                                                   text, problem):
    _assert_config_error_exits_2(tmp_path, capsys, kind, text, problem)


def test_cli_tags_a_vacuous_pass(tmp_path, capsys):
    # the config of test_certify_reports_vacuous_certificate: C = inf
    cfg = tmp_path / "vacuous.json"
    cfg.write_text(json.dumps({"system": {"builtin": "example39"},
                               "window": [0.0, 100.0]}))
    assert cli_main(["certify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("PASS (vacuous) certify: 1 rows")
    # a finite bound keeps the plain verdict
    assert cli_main(["verify", "--config", "builtin:intro-cos",
                     "--out", str(tmp_path / "p")]) == 0
    assert capsys.readouterr().out.startswith("PASS verify: 100 rows")


def test_cov_check_summary_counts_its_quadrature_panels():
    # y = u on f = t over [0, 1] and back: each integral of a linear
    # integrand is one exact panel of 15 nodes
    report = run_scenario("cov-check", {
        "f": "t", "y": ["u"], "pairs": [[0.0, 1.0], [1.0, 0.0]]})
    assert report.passed
    assert report.summary["cost"] == {"quad_panels": 4, "quad_nodes": 60}


def test_certify_summary_counts_its_quadrature_panels():
    # G = [[t u]] on J = [0, 1]: the sup takes two levels, 17 times and
    # then 16 fresh midpoints, each level one family of u-integrals on
    # one exact panel; the variation int int |u| du dt takes one outer
    # panel, whose 15 times are one inner family on one panel
    report = run_scenario("certify", {
        "system": {"G": [["t*u"]], "f": "0.5", "J": [0.0, 1.0]},
        "window": [0.0, 1.0]})
    assert report.summary["gain"] == pytest.approx(math.exp(0.5), rel=1e-12)
    assert report.summary["variation"] == pytest.approx(0.5, rel=1e-9)
    assert report.summary["cost"] == {
        "quad_panels": 2 + 1 + 1,
        "quad_nodes": 15 * 17 + 15 * 16 + 15 + 15 * 15}
