import json
import math
import subprocess
import sys

import pytest

from evostab.cli import main as cli_main
from evostab.errors import ConfigError
from evostab.harness import (
    BUILTIN_SCENARIOS,
    COLUMNS,
    KINDS,
    Report,
    emit_report,
    run_scenario,
)

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


def test_verify_builtin_system_passes():
    report = run_scenario("verify", TINY_VERIFY, seed=11)
    assert report.passed
    assert report.summary["bound"] == pytest.approx(math.e ** 4, rel=1e-9)
    assert report.summary["max_ratio"] <= 1.0
    assert report.summary["vacuous"] is False
    assert "log_log_bound" not in report.summary


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


def test_sine_curve_scenario_zero_connection():
    report = run_scenario("sine-curve", {
        "connection": {"builtin": "zero"},
        "a": -1.0, "b_list": [-0.5, -0.01], "v": [1.0, 0.0],
    })
    assert report.passed
    for row in report.rows:
        assert row[1] == pytest.approx(1.0, abs=1e-8)  # norm preserved


def test_extend_scenario_summary_contract():
    report = run_scenario("extend", {
        "problem": {"builtin": "extension-gauge"},
        "grid": {"nx_left": 4, "nx_right": 6, "nv": 9},
    })
    assert report.passed
    assert report.summary["max_gap"] <= 1e-7
    assert report.columns == COLUMNS["extend"]
    cost = report.summary["cost"]
    assert set(cost) == {"steps", "rejected", "rhs_evals", "segments"}
    assert cost["rhs_evals"] > cost["steps"] > 0


@pytest.mark.parametrize("grid, field", [
    ({"nx_left": "six"}, "grid.nx_left"),
    ({"x_floor": "tiny"}, "grid.x_floor"),
    ({"nx_left": 2.9}, "grid.nx_left"),
    ({"nv": True}, "grid.nv"),
    ({"nv": 1}, "grid.nv"),
    ({"nx_right": "10"}, "grid.nx_right"),
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
    assert set(cost) == {"steps", "rejected", "rhs_evals", "segments"}
    assert cost["rhs_evals"] > cost["steps"] > 0


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
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_certify_complex_expression_exits_3(tmp_path, capsys):
    cfg = tmp_path / "complex.json"
    cfg.write_text(json.dumps({
        "system": {"G": [["(0-8)^0.5"]], "f": "sin(t)", "J": [-1.0, 1.0]},
        "window": [0.0, 1.0]}))
    assert cli_main(["certify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "evaluation of '(0-8)^0.5' failed" in err


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, "1e-8"])
def test_run_scenario_rejects_bad_tolerance(tol):
    with pytest.raises(ConfigError, match="tol"):
        run_scenario("evolve", TINY_EVOLVE, tol=tol)


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_cli_bad_tolerance_exits_2(tmp_path, capsys, tol):
    assert cli_main(["verify", "--config", "builtin:intro-cos",
                     "--out", str(tmp_path), "--tol", tol]) == 2
    assert "tol" in capsys.readouterr().err


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
