"""CLI dispatch, report emission, exit codes, determinism."""

import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polygreen import cli, giraud, mass, parametrix, torus

PI = math.pi


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_cli_commands():
    """The commands of the sh block under "## CLI" in README.md, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", "").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=lambda argv: "-".join(argv[1:3]))
def test_readme_command_is_deterministic(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.json"
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(argv[1:], capsys)
        runs.append((code, out, report.read_bytes() if report.exists() else None))
        report.unlink(missing_ok=True)
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


class TestKernelCommands:
    def test_eval_prints_value(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "eval", "--n", "3", "--k", "1", "--alpha", "100", "--r", "0.5"],
            capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(10 * math.exp(-5) / (20 * PI), rel=1e-12)

    def test_eval_format_writes_a_report_row(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "eval", "--n", "3", "--k", "1", "--alpha", "100", "--r", "0.5",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        [row] = cli.parse_report(out)
        assert (row["alpha"], row["d"]) == (100.0, 0.5)
        assert row["value"] == pytest.approx(10 * math.exp(-5) / (20 * PI), rel=1e-12)
        assert row["ratio"] == pytest.approx(row["value"] / row["envelope"], rel=1e-15)

    def test_deriv(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "deriv", "--n", "3", "--k", "1", "--alpha", "1", "--r", "1.0", "--l", "1"],
            capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(-2 * math.exp(-1) / (4 * PI), rel=1e-12)

    def test_asym_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "asym", "--n", "3", "--k", "1", "--alphas", "100",
             "--points", "8", "--format", "csv"],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("alpha,d,value,envelope,ratio,fitted_C")
        assert len(out.splitlines()) == 9


class TestGiraudCommands:
    def test_compose_roundtrip(self, capsys):
        x = json.dumps({"beta": "2", "p": "1", "rho": "1", "rate": "1", "support": "9/100"})
        code, out, _ = run_cli(
            ["giraud", "compose", "--x", x, "--y", x, "--n", "3"], capsys
        )
        assert code == 0
        composed = json.loads(out)
        assert composed["beta"] == {"const_alpha": "-1/2"}
        assert composed["p"] == "2" and composed["rho"] == "5"
        assert composed["support"] == "9/50"

    @pytest.mark.parametrize(
        "x, key",
        [
            ("{}", "beta"),
            ("[1]", "JSON object"),
            ('{"beta": "2", "p": "1"}', "rho"),
            ('{"beta": {"x": 1}, "p": "1", "rho": "1"}', "const_alpha"),
        ],
    )
    def test_malformed_envelope_exits_1(self, x, key, capsys):
        y = json.dumps({"beta": "2", "p": "1", "rho": "1"})
        code, out, err = run_cli(["giraud", "compose", "--n", "3", "--x", x, "--y", y], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err

    def test_compose_euclid_mode(self, capsys):
        # the README's two envelopes composed by the Euclidean rule
        x = json.dumps({"beta": "2", "p": "1", "rho": "1", "rate": "1", "support": "9/100"})
        code, out, _ = run_cli(
            ["giraud", "compose", "--n", "3", "--mode", "euclid", "--x", x, "--y", x], capsys
        )
        assert code == 0
        assert json.loads(out) == {"beta": "const", "p": "0", "rho": "5", "rate": "1", "support": "9/50"}

    def test_certify_failure_exits_2(self, monkeypatch, capsys):
        failed = giraud.CertificationReport(
            fitted={100.0: 0.5, 10000.0: 0.25}, passed=False, drift=3.25,
            counterexample={"alpha": 100.0, "r": 0.02},
        )
        monkeypatch.setattr(giraud, "certify_bound", lambda *a, **k: failed)
        code, out, err = run_cli(
            ["giraud", "certify", "--n", "3", "--k", "1",
             "--alphas", "100,10000", "--radii", "0.02,0.05,0.2", "--format", "json"],
            capsys,
        )
        assert code == 2
        assert err.splitlines() == [
            "certification failed: drift 3.25",
            "counterexample: {'alpha': 100.0, 'r': 0.02}",
        ]
        assert cli.parse_report(out) == [
            {"alpha": 100.0, "fitted_C": 0.5, "ratio": 3.25},
            {"alpha": 10000.0, "fitted_C": 0.25, "ratio": 3.25},
        ]

    def test_certify_passes(self, capsys):
        code, out, _ = run_cli(
            ["giraud", "certify", "--n", "3", "--k", "1",
             "--alphas", "100,10000", "--radii", "0.02,0.05,0.2", "--format", "json"],
            capsys,
        )
        assert code == 0


class TestTorusCommands:
    def test_green_value(self, capsys):
        code, out, _ = run_cli(
            ["torus", "green", "--n", "3", "--k", "1", "--alpha", "100", "--L", "1",
             "--x", "0,0,0", "--y", "0.5,0,0"],
            capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.0021528642328906954, rel=1e-10)

    def test_scan_deterministic(self, capsys):
        args = ["torus", "scan", "--n", "3", "--k", "1", "--alpha", "500",
                "--pairs", "20", "--seed", "11", "--format", "csv"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("out_name", [None, "scan.csv"])
    def test_scan_failure_writes_counterexamples(self, out_name, tmp_path, monkeypatch, capsys):
        # without --out the counterexamples go to scan.counterexamples.json
        monkeypatch.chdir(tmp_path)
        failures = [
            {"x": [0.0, 0.0, 0.0], "y": [0.25, 0.0, 0.0], "value": -1e-3},
            {"x": [0.1, 0.0, 0.0], "y": [0.0, 0.2, 0.0], "asymmetry": 0.5},
        ]
        failed = torus.ScanReport(
            pairs=20, min_value=-1e-3, max_asymmetry=0.5, underflow_pairs=0, failures=failures
        )
        monkeypatch.setattr(torus, "symmetry_positivity_scan", lambda *a, **k: failed)
        argv = ["torus", "scan", "--n", "3", "--k", "1", "--alpha", "500", "--pairs", "20",
                "--seed", "11", "--format", "csv"]
        code, out, err = run_cli(argv + (["--out", out_name] if out_name else []), capsys)
        assert code == 2
        assert err == "scan failed on 2 pairs\n"
        report = (tmp_path / out_name).read_text() if out_name else out
        assert report.splitlines() == ["alpha,d,value,envelope,ratio,fitted_C", "500.0,,-0.001,,0.5,0"]
        payload = json.loads((tmp_path / f"{out_name or 'scan'}.counterexamples.json").read_text())
        assert payload == {"schema": cli.REPORT_SCHEMA, "rows": failures}

    def test_verify_small_grid(self, capsys):
        code, out, _ = run_cli(
            ["torus", "verify", "--n", "3", "--k", "1", "--alpha", "2000",
             "--grid", "64", "--format", "csv"],
            capsys,
        )
        assert code == 0

    def test_verify_odd_grid_is_domain_error(self, capsys):
        code, _, err = run_cli(
            ["torus", "verify", "--n", "3", "--k", "1", "--alpha", "2000", "--grid", "63"],
            capsys,
        )
        assert code == 1
        assert "even grid" in err


    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-3"])
    def test_verify_tolerance_must_be_finite_positive(self, tol, capsys):
        code, out, err = run_cli(
            ["torus", "verify", "--n", "3", "--k", "1", "--alpha", "2000", "--grid", "16",
             f"--tol={tol}"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "tol" in err

    @pytest.mark.filterwarnings("ignore:error-field annulus:RuntimeWarning")
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_parametrix_tolerance_must_be_finite_positive(self, tol, capsys):
        code, out, err = run_cli(
            ["parametrix", "run", "--n", "3", "--k", "1", "--alpha", "2000", "--grid", "32",
             "--alias-limit", "1", "--pairs", "20", f"--tol={tol}"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "tol" in err

    def test_verify_nan_defect_fails(self, monkeypatch, capsys):
        # the verdict is "not worst <= tol", so a NaN defect cannot pass
        monkeypatch.setattr(cli.torus, "representation_check", lambda *a, **k: (math.nan, 0.0))
        code, _, err = run_cli(
            ["torus", "verify", "--n", "3", "--k", "1", "--alpha", "2000", "--grid", "16"], capsys
        )
        assert code == 2
        assert "verification failed" in err

    def test_green_nan_tolerance_names_tol(self, capsys):
        code, out, err = run_cli(
            ["torus", "green", "--n", "3", "--k", "1", "--alpha", "100",
             "--x", "0,0,0", "--y", "0.1,0,0", "--tol", "nan"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "tol" in err and "alpha" not in err


class TestDegenerateRuns:
    # a grid below 2, a check over no pairs, or a non-finite L or alpha is a
    # domain error, not a traceback, a pass or a printed nan
    @pytest.mark.parametrize(
        "argv",
        [
            ["torus", "green", "--L", "inf", "--x", "0,0,0", "--y", "0.1,0,0"],
            ["torus", "green", "--L", "nan", "--x", "0,0,0", "--y", "0.1,0,0"],
            ["torus", "scan", "--pairs", "5", "--L", "nan"],
            ["kernel", "eval", "--alpha", "inf", "--r", "0.1"],
            ["kernel", "eval", "--alpha", "nan", "--r", "0.1"],
            ["torus", "verify", "--grid", "0"],
            ["torus", "verify", "--grid", "-4"],
            ["parametrix", "run", "--grid", "0"],
            ["parametrix", "run", "--grid", "-8"],
            ["torus", "scan", "--pairs", "0"],
            pytest.param(
                ["parametrix", "run", "--grid", "32", "--alias-limit", "1", "--pairs", "0"],
                marks=pytest.mark.filterwarnings("ignore:error-field annulus:RuntimeWarning"),
            ),
        ],
    )
    def test_exit_1_with_error_line(self, argv, capsys):
        code, out, err = run_cli(
            argv[:2] + ["--n", "3", "--k", "1", "--alpha", "2000"] + argv[2:], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("limit", ["nan", "-1", "1.5"])
    def test_alias_limit_outside_unit_interval_exits_1(self, limit, capsys):
        # nan turned the guard off (tail > nan is False) and ran through to a
        # max_rel_error of 460; -1 refused every grid, blaming the grid
        code, out, err = run_cli(
            ["parametrix", "run", "--n", "3", "--k", "1", "--alpha", "2000", "--grid", "32",
             f"--alias-limit={limit}"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "alias_limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["parametrix", "run", "--grid", "128", "--alias-limit", "0.05"],
         ["torus", "scan", "--pairs", "1000"]],
    )
    def test_negative_seed_exits_1_before_any_work(self, argv, monkeypatch, capsys):
        # numpy's "expected non-negative integer" came only after the whole run
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(parametrix, "run_pipeline", refuse)
        monkeypatch.setattr(torus, "green_lattice_sum_many", refuse)
        code, out, err = run_cli(
            argv[:2] + ["--n", "3", "--k", "1", "--alpha", "2000", "--seed", "-1"] + argv[2:], capsys
        )
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    def test_empty_alpha_ladder_exits_1(self, capsys):
        code, out, err = run_cli(["mass", "sweep", "--n", "3", "--k", "1", "--alphas", ","], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "alpha" in err
        assert "Traceback" not in err

    def test_empty_radius_ladder_exits_1(self, capsys):
        # no radii certify nothing: no fitted constant, no drift
        code, out, err = run_cli(
            ["giraud", "certify", "--n", "3", "--k", "1", "--alphas", "100", "--radii", ","],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "radius" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "eval", "--alpha", "100", "--r", "nan"],
            ["kernel", "deriv", "--alpha", "100", "--r", "nan", "--l", "1"],
            ["torus", "green", "--alpha", "100", "--x", "0,0,nan", "--y", "0.1,0,0"],
        ],
    )
    def test_nan_radius_or_point_exits_1(self, argv, capsys):
        # NaN fails every comparison, so it must not pass a positivity check
        # and reach the underflow mask as an exact 0
        code, out, err = run_cli(argv[:2] + ["--n", "3", "--k", "1"] + argv[2:], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestParametrixCommand:
    @pytest.mark.slow
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.warns(RuntimeWarning, match="error-field annulus"):
            code, _, _ = run_cli(
                ["parametrix", "run", "--n", "3", "--k", "1", "--alpha", "2000",
                 "--grid", "64", "--tau0", "auto", "--pairs", "40",
                 "--alias-limit", "0.6", "--tol", "5e-2", "--out", str(out)],
                capsys,
            )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "polygreen-report/1"
        assert payload["N"] == 2
        assert payload["comparison"]["max_rel_error"] < 5e-2

    @pytest.mark.parametrize(
        "alpha, grid, limit",
        [("4000", "128", "0.05"), ("8000", "128", "0.05"),
         pytest.param("2000", "64", "0.6", marks=pytest.mark.filterwarnings(
             "ignore:error-field annulus:RuntimeWarning"))],
    )
    def test_runs_where_the_band_route_failed(self, alpha, grid, limit, capsys):
        # each exited 2 with the band-2 alias fold (max_rel_error 0.181, 1600
        # and 0.474): its fields carried ~1e-15 of their sup in absolute error
        # where the oracle falls below it, out to d = 0.45
        code, out, _ = run_cli(
            ["parametrix", "run", "--n", "3", "--k", "1", "--alpha", alpha, "--grid", grid,
             "--tau0", "auto", "--alias-limit", limit],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["comparison"]["max_rel_error"] <= 1e-2

    @pytest.mark.filterwarnings("ignore:error-field annulus:RuntimeWarning")
    def test_underflowing_oracle_is_domain_error(self, capsys):
        # pairs with sqrt(alpha) d > 700 have a lattice sum of exactly 0
        code, out, err = run_cli(
            ["parametrix", "run", "--n", "3", "--k", "1", "--alpha", "1e7", "--grid", "32",
             "--alias-limit", "1", "--pairs", "20"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "underflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tau0", ["nan", "inf", "-0.05"])
    def test_bad_tau0_is_domain_error(self, tau0, capsys):
        # rejected by the cutoff, naming tau0, before any precondition reads it
        code, out, err = run_cli(
            ["parametrix", "run", "--n", "3", "--k", "1", "--alpha", "2000", "--grid", "32",
             "--tau0", tau0, "--alias-limit", "1", "--pairs", "20"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: tau0 must be positive and finite")
        assert "precondition" not in err

    @pytest.mark.filterwarnings("ignore:error-field annulus:RuntimeWarning")
    def test_nan_score_fails(self, monkeypatch, capsys):
        run_pipeline = parametrix.run_pipeline

        def nan_remainder(*args, **kwargs):
            state = run_pipeline(*args, **kwargs)
            return dataclasses.replace(state, u=np.full_like(state.u, math.nan))

        monkeypatch.setattr(parametrix, "run_pipeline", nan_remainder)
        code, out, err = run_cli(
            ["parametrix", "run", "--n", "3", "--k", "1", "--alpha", "2000", "--grid", "32",
             "--alias-limit", "1", "--pairs", "20"],
            capsys,
        )
        assert code == 2
        assert math.isnan(json.loads(out)["comparison"]["max_rel_error"])
        assert "disagrees" in err

    def test_strict_gate_refuses_underresolved_grid(self, capsys):
        with pytest.warns(RuntimeWarning, match="error-field annulus"):
            code, _, err = run_cli(
                ["parametrix", "run", "--n", "3", "--k", "1", "--alpha", "2000",
                 "--grid", "64", "--tau0", "auto"],
                capsys,
            )
        assert code == 1
        assert "spectral tail" in err


class TestMassCommand:
    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            ["mass", "sweep", "--n", "3", "--k", "1", "--L", "1",
             "--alphas", "100,1000", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("alpha,")
        assert len(lines) == 3

    def test_sweep_json_file(self, tmp_path, capsys):
        out_path = tmp_path / "mass.json"
        code, _, _ = run_cli(
            ["mass", "sweep", "--n", "3", "--k", "1", "--L", "1",
             "--alphas", "100,1000", "--out", str(out_path), "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = cli.parse_report(out_path.read_text())
        assert len(rows) == 2
        assert rows[0]["ratio"] == pytest.approx(1 / (4 * PI), rel=1e-3)


    def test_sweep_failure_exits_2(self, monkeypatch, capsys):
        failed = mass.MassReport(
            alphas=[100.0, 1000.0], mu=[0.5, -1.0], scaled=[-0.05, 0.03], bracket=(-0.05, 0.03)
        )
        monkeypatch.setattr(mass, "mass_sweep", lambda *a, **k: failed)
        code, out, err = run_cli(
            ["mass", "sweep", "--n", "3", "--k", "1", "--L", "1",
             "--alphas", "100,1000", "--format", "json"],
            capsys,
        )
        assert code == 2
        assert err == "mass sweep failed: nonpositive -mu in range\n"
        assert cli.parse_report(out) == [
            {"alpha": 100.0, "value": 0.5, "ratio": -0.05, "fitted_C": 0.03},
            {"alpha": 1000.0, "value": -1.0, "ratio": 0.03, "fitted_C": 0.03},
        ]


class TestReports:
    def test_json_roundtrip(self):
        rows = [{"alpha": 1.0, "d": 0.5, "value": 2.0, "envelope": 3.0, "ratio": 0.66}]
        assert cli.parse_report(cli.emit_report(rows, "json")) == rows

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            cli.emit_report([], "csv")

    def test_csv_column_order(self):
        text = cli.emit_report([{"alpha": 1, "value": 2}], "csv")
        assert text.splitlines()[0] == "alpha,d,value,envelope,ratio,fitted_C"

    def test_bad_schema(self):
        with pytest.raises(Exception):
            cli.parse_report(json.dumps({"schema": "other/9", "rows": []}))


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run_cli(["kernel", "eval", "--n", "3"], capsys)
        assert code == 1
        assert "usage" in err.lower() or "error" in err.lower()

    def test_domain_error_is_1(self, capsys):
        # n <= 2k violates the standing constraint
        code, _, err = run_cli(
            ["kernel", "eval", "--n", "3", "--k", "2", "--alpha", "1", "--r", "1"],
            capsys,
        )
        assert code == 1

    def test_config_file_merging(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "mass", "sweep", "--n", "3", "--k", "1",
             "--alphas", "100"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["schema"] == "polygreen-report/1"


class TestConfigPrecedence:
    VERIFY = ["torus", "verify", "--n", "3", "--k", "1", "--alpha", "2000"]

    @staticmethod
    def config(tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        return ["--config", str(cfg)]

    def test_config_beats_default(self, tmp_path):
        args = cli.parse_args(self.config(tmp_path, {"grid": 16}) + self.VERIFY)
        assert args.grid == 16

    def test_flag_beats_config(self, tmp_path):
        cfg = self.config(tmp_path, {"grid": 16, "tol": 1e-3})
        assert cli.parse_args(cfg + self.VERIFY + ["--grid", "8"]).grid == 8
        # a flag equal to the parser default still wins over the config
        assert cli.parse_args(cfg + self.VERIFY + ["--grid", "128"]).grid == 128

    def test_default_without_key(self, tmp_path):
        args = cli.parse_args(self.config(tmp_path, {"tol": 1e-3}) + self.VERIFY)
        assert args.grid == 128
        assert args.tol == 1e-3

    def test_required_flag_from_config(self, tmp_path):
        argv = self.config(tmp_path, {"alpha": 2000}) + self.VERIFY[:-2]
        assert cli.parse_args(argv).alpha == 2000.0

    def test_config_run_leaves_plain_run_defaults(self, tmp_path, capsys):
        fresh = vars(cli.build_parser().parse_args(self.VERIFY))
        assert vars(cli.parse_args(self.VERIFY)) == fresh
        cfg = self.config(tmp_path, {"grid": 16, "tol": 1e-3, "alpha": 2000})
        assert cli.parse_args(cfg + self.VERIFY[:-2]).grid == 16
        # the plain run after a config run sees the parser defaults again
        assert vars(cli.parse_args(self.VERIFY)) == fresh
        code, out, err = run_cli(self.VERIFY[:-2], capsys)
        assert code == 1 and "--alpha" in err

    @pytest.mark.parametrize(
        "values", [{"grids": 16}, {"func": "x"}, {"command": "mass"}, {"format": "xml"}]
    )
    def test_bad_key_is_usage_error(self, tmp_path, capsys, values):
        code, out, err = run_cli(self.config(tmp_path, values) + self.VERIFY, capsys)
        assert code == 1
        assert out == ""
        assert "usage error" in err and next(iter(values)) in err

    def test_config_after_command_is_usage_error(self, tmp_path, capsys):
        argv = self.VERIFY[:2] + self.config(tmp_path, {"grid": 16}) + self.VERIFY[2:]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == "" and "--config" in err

    def test_abbreviated_key_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(self.config(tmp_path, {"gri": 16}) + self.VERIFY, capsys)
        assert code == 1
        assert out == "" and "gri" in err

    def test_config_equals_form(self, tmp_path):
        path = self.config(tmp_path, {"grid": 16})[1]
        assert cli.parse_args([f"--config={path}"] + self.VERIFY).grid == 16

    def test_key_of_another_command_is_usage_error(self, tmp_path, capsys):
        argv = self.config(tmp_path, {"grid": 16}) + [
            "mass", "sweep", "--n", "3", "--k", "1", "--alphas", "100"]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "grid" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polygreen.cli", "kernel", "eval",
         "--n", "3", "--k", "1", "--alpha", "1", "--r", "1.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(math.exp(-1) / (4 * PI), rel=1e-12)
