"""End-to-end CLI behaviour: values, formats, exit codes, determinism."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from sepdist.cli import EXIT_CONSISTENCY, EXIT_OK, EXIT_USAGE, db_to_e2t, e2t_to_db, main
from sepdist.symplectic import CovarianceMatrix

from conftest import oracle_symplectic_eigenvalues
from test_symplectic import final_state_cm, mixed_state_cm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestDbConversion:
    def test_round_trip(self):
        for db in (-3.0, 0.0, 3.0103, 10.0, 60.0):
            assert abs(e2t_to_db(db_to_e2t(db)) - db) <= 1e-12

    def test_ten_db_is_e2t_ten(self):
        assert db_to_e2t(10.0) == pytest.approx(10.0, abs=1e-12)


class TestDistribute:
    def test_json_reference_values(self, capsys):
        code, out = run_cli(capsys, "distribute", "--e2t", "2", "--x", "auto", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        ent = payload["entanglement"]
        assert abs(ent["nu"] - 0.6589) < 5e-4
        assert abs(ent["log_negativity"] - 0.6019) < 1e-3
        assert abs(ent["sigma"] - 1.0) < 1e-9
        assert ent["carrier_separable"] is True
        assert payload["recovery"] is None
        assert len(payload["steps"]) == 3
        assert all(len(step["cm"]) == 6 for step in payload["steps"])
        statuses = {v["bipartition"]: v["status"] for v in payload["verdicts"] if v["step"] == 2
                    and v["criterion"] == "ppt_eigenvalue"}
        assert statuses["A-(BC)"] == "entangled"

    def test_squeezing_db_flag(self, capsys):
        code, out = run_cli(
            capsys, "distribute", "--squeezing-db", "10", "--x", "auto", "--format", "json"
        )
        assert code == EXIT_OK
        assert abs(json.loads(out)["entanglement"]["nu"] - 0.3968) < 5e-4

    def test_no_squeezing_yields_zero_entanglement(self, capsys):
        code, out = run_cli(capsys, "distribute", "--e2t", "1", "--x", "auto", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["entanglement"]["log_negativity"] == 0.0
        assert all(v["status"] != "entangled" for v in payload["verdicts"])

    def test_with_recovery_section(self, capsys):
        code, out = run_cli(
            capsys, "distribute", "--e2t", "2", "--with-recovery", "--format", "json"
        )
        assert code == EXIT_OK
        recovery = json.loads(out)["recovery"]
        assert abs(recovery["nu_ac"] - 0.5) < 1e-10

    def test_csv_single_row(self, capsys):
        code, out = run_cli(capsys, "distribute", "--e2t", "2", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["e2t", "x", "tau3", "omega3", "sigma", "nu", "log_negativity"]
        assert len(rows) == 2
        assert abs(float(rows[1][5]) - 0.6589) < 5e-4

    def test_text_format_mentions_verdicts(self, capsys):
        code, out = run_cli(capsys, "distribute", "--e2t", "2")
        assert code == EXIT_OK
        assert "A-(BC)" in out and "log_negativity" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "distribute", "--e2t", "2", "--format", "json", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert abs(json.loads(target.read_text())["entanglement"]["nu"] - 0.6589) < 5e-4

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, target):
        path = tmp_path / target
        code = main(["distribute", "--e2t", "2", "--format", "json", "--output", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith(f"sepdist: error: cannot write --output {path}: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert list(tmp_path.iterdir()) == []

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "distribute")[0] == EXIT_USAGE
        assert run_cli(capsys, "distribute", "--e2t", "2", "--squeezing-db", "3")[0] == EXIT_USAGE
        assert run_cli(capsys, "distribute", "--e2t", "0")[0] == EXIT_USAGE
        assert run_cli(capsys, "distribute", "--squeezing-db", "4000")[0] == EXIT_USAGE
        assert run_cli(capsys, "distribute", "--e2t", "2", "--x", "fast")[0] == EXIT_USAGE
        assert run_cli(capsys, "distribute", "--e2t", "2", "--x", "-1")[0] == EXIT_USAGE
        assert run_cli(capsys, "no-such-command")[0] == EXIT_USAGE


class TestDoubleRange:
    """Inputs whose computation overflows double precision exit 64 with one line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("distribute", "--e2t", "1e300", "--format", "json"),
            ("distribute", "--e2t", "2", "--x", "1e308"),
            ("distribute", "--e2t", "2", "--excess", "1e308"),
            ("recover", "--e2t", "2", "--gain", "1e308,0,0,1e308"),
            ("sweep", "--e2t-stop", "1e300", "--points", "3"),
        ],
    )
    def test_exits_64_with_one_line(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("sepdist: error: ")
        assert "double-precision range" in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert caught == []


class TestRecover:
    def test_identity_gain_values(self, capsys):
        code, out = run_cli(
            capsys, "recover", "--e2t", "2", "--gain", "identity", "--format", "json"
        )
        assert code == EXIT_OK
        recovery = json.loads(out)["recovery"]
        assert abs(recovery["nu_ac"] - 0.5) < 1e-12
        assert abs(recovery["purity_det"] - 2.25) < 1e-10

    def test_zero_gain_is_suboptimal(self, capsys):
        code, out = run_cli(
            capsys, "recover", "--e2t", "2", "--gain", "0,0,0,0", "--format", "json"
        )
        assert code == EXIT_OK
        recovery = json.loads(out)["recovery"]
        assert recovery["nu_ac"] >= math.exp(-2.0 * 0.5 * math.log(2.0)) - 1e-12

    def test_no_squeezing(self, capsys):
        code, out = run_cli(
            capsys, "recover", "--e2t", "1", "--gain", "identity", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["recovery"]["nu_ac"] == pytest.approx(1.0, abs=1e-12)

    def test_malformed_gain(self, capsys):
        assert run_cli(capsys, "recover", "--e2t", "2", "--gain", "1,2,3")[0] == EXIT_USAGE
        assert run_cli(capsys, "recover", "--e2t", "2", "--gain", "a,b,c,d")[0] == EXIT_USAGE


class TestSweep:
    def test_csv_contract_and_asymptote(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--e2t-start", "1.1", "--e2t-stop", "1e6", "--points", "25",
            "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["e2t", "x", "tau3", "omega3", "sigma", "nu", "log_negativity"]
        assert len(rows) == 26
        nus = [float(r[5]) for r in rows[1:]]
        assert all(b < a for a, b in zip(nus, nus[1:]))
        assert abs(nus[-1] - 1.0 / 3.0) <= 1e-3

    def test_single_point_matches_distribute(self, capsys):
        _, sweep_out = run_cli(
            capsys,
            "sweep", "--e2t-start", "2", "--e2t-stop", "2", "--points", "1", "--format", "csv",
        )
        _, dist_out = run_cli(capsys, "distribute", "--e2t", "2", "--format", "csv")
        assert sweep_out == dist_out

    def test_grid_includes_ten(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--e2t-start", "10", "--e2t-stop", "10", "--points", "1", "--format", "csv",
        )
        assert code == EXIT_OK
        row = list(csv.reader(io.StringIO(out)))[1]
        assert abs(float(row[5]) - 0.3968) < 5e-4

    def test_empty_grid_is_usage_error(self, capsys):
        assert run_cli(capsys, "sweep", "--points", "0")[0] == EXIT_USAGE


class TestMcValidate:
    def test_pass_and_determinism(self, capsys):
        args = (
            "mc-validate", "--e2t", "2", "--x", "auto",
            "--samples", "20000", "--seed", "42", "--format", "json",
        )
        code, out = run_cli(capsys, *args)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert {c["target"] for c in payload["comparisons"]} == {"final", "recovered"}
        code2, out2 = run_cli(capsys, *args)
        assert code2 == EXIT_OK and out2 == out

    def test_text_summary(self, capsys):
        code, out = run_cli(
            capsys, "mc-validate", "--e2t", "2", "--samples", "5000", "--seed", "7"
        )
        assert code == EXIT_OK
        assert "PASS" in out

    def test_too_few_samples_is_usage_error(self, capsys):
        for flags, reason in (
            (("--samples", "100"), "--samples must be >= 1000"),
            (("--seed", "-1"), "--seed must be >= 0"),
        ):
            code = main(["mc-validate", "--e2t", "2", *flags])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert captured.out == ""
            assert captured.err == f"sepdist: error: {reason}\n"

    def test_unattainable_budget_fails_with_exit_2(self, capsys):
        code, out = run_cli(
            capsys,
            "mc-validate", "--e2t", "2", "--samples", "2000", "--seed", "5",
            "--sigma", "0.01", "--format", "json",
        )
        assert code == EXIT_CONSISTENCY
        assert json.loads(out)["passed"] is False


class TestConsistencyExitCode:
    def test_internal_failure_maps_to_exit_2(self, capsys, monkeypatch):
        import sepdist.cli as cli_module
        from sepdist.protocol import ConsistencyError

        def boom(*args, **kwargs):
            raise ConsistencyError("forced failure")

        monkeypatch.setattr(cli_module, "run_distribution_protocol", boom)
        code = main(["distribute", "--e2t", "2"])
        capsys.readouterr()
        assert code == EXIT_CONSISTENCY


class TestRegression:
    def test_all_rows_pass(self, capsys):
        code, out = run_cli(capsys, "regression")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "overall: PASS" in out

    def test_csv_rows_parse(self, capsys):
        code, out = run_cli(capsys, "regression", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        assert all(row["passed"] == "True" for row in rows)
        sigma_rows = [r for r in rows if r["quantity"] == "sigma_check"]
        assert len(sigma_rows) == 1
        assert abs(float(sigma_rows[0]["computed"]) - 1.0) < 1e-9

    def test_json_summary(self, capsys):
        code, out = run_cli(capsys, "regression", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["rows"]) == 10


def _oracle_pt_min(matrix, mode: int) -> tuple[float, float]:
    """Oracle lowest PT eigenvalue of a CM, with the 1000 eps s_max agreement band."""
    m = np.array(matrix, dtype=float)
    signs = np.ones(m.shape[0])
    signs[2 * mode + 1] = -1.0
    spectrum = oracle_symplectic_eigenvalues(CovarianceMatrix(m * np.outer(signs, signs)))
    return float(spectrum[0]), 1000.0 * np.finfo(float).eps * max(1.0, float(spectrum[-1]))


class TestLargeScale:
    """States physical by construction at large e2t or x: exit 0, values match the oracle."""

    @pytest.mark.parametrize("argv", [("--e2t", "1e7"), ("--e2t", "2", "--x", "1e9")])
    def test_distribute(self, capsys, argv):
        code, out = run_cli(capsys, "distribute", *argv, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        ent = payload["entanglement"]
        tau3, tau3_tol = _oracle_pt_min(payload["steps"][1]["cm"], 2)
        assert abs(ent["tau3"] - tau3) <= tau3_tol
        final_ab = np.array(payload["steps"][2]["cm"])[0:4, 0:4]
        nu, nu_tol = _oracle_pt_min(final_ab, 1)
        assert abs(ent["nu"] - nu) <= nu_tol

    def test_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "--e2t-stop", "1e7", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 40
        for row in rows:
            e2t, x = float(row["e2t"]), float(row["x"])
            tau3, tau3_tol = _oracle_pt_min(mixed_state_cm(e2t, x).matrix, 2)
            assert abs(float(row["tau3"]) - tau3) <= tau3_tol
            final_ab = final_state_cm(e2t, x).matrix[0:4, 0:4]
            nu, nu_tol = _oracle_pt_min(final_ab, 1)
            assert abs(float(row["nu"]) - nu) <= nu_tol



def _cell_matches(cell: str, value) -> bool:
    if isinstance(value, bool):
        return cell == str(value)
    if isinstance(value, (int, float)):
        return float(cell) == value
    return cell == value


def _assert_cells(rows, expected):
    assert len(rows) == len(expected) >= 1
    for row, want in zip(rows, expected):
        assert list(row) == list(want)
        for name, value in want.items():
            assert _cell_matches(row[name], value), (name, row[name], value)


def _check_distribute(record, rows):
    params, ent = record["params"], record["entanglement"]
    names = ("tau3", "omega3", "sigma", "nu", "log_negativity")
    _assert_cells(rows, [{"e2t": params["e2t"], "x": params["x"], **{n: ent[n] for n in names}}])


def _check_recover(record, rows):
    params, rec = record["params"], record["recovery"]
    (g11, g12), (g21, g22) = rec["gain"]
    gains = {"g11": g11, "g12": g12, "g21": g21, "g22": g22}
    names = ("nu_ac", "log_negativity", "purity_det")
    _assert_cells(rows, [{"e2t": params["e2t"], "x": params["x"], **gains,
                          **{n: rec[n] for n in names}}])


def _check_table(record, rows):
    _assert_cells(rows, record["rows"])


def _check_mc_validate(record, rows):
    # The record keeps each comparison's flagged entries and largest deviation;
    # the CSV has one row per upper-triangle entry.
    assert [row["target"] for row in rows] == ["final"] * 21 + ["recovered"] * 10
    for comparison in record["comparisons"]:
        mine = [row for row in rows if row["target"] == comparison["target"]]
        flagged = {tuple(entry) for entry in comparison["flagged_entries"]}
        for row in mine:
            entry = (int(row["entry_row"]), int(row["entry_col"]))
            assert _cell_matches(row["passed"], entry not in flagged)
        assert max(float(row["deviation_sigma"]) for row in mine) == (
            comparison["max_deviation_sigma"]
        )
        assert comparison["passed"] == all(row["passed"] == "True" for row in mine)
    assert record["passed"] == all(c["passed"] for c in record["comparisons"])


@pytest.mark.parametrize(
    "argv, check",
    [
        (("distribute", "--e2t", "3", "--x", "0.7", "--with-recovery"), _check_distribute),
        (("recover", "--e2t", "2", "--gain", "0.5,0.1,-0.2,1.5"), _check_recover),
        (("sweep", "--points", "6", "--excess", "3"), _check_table),
        (("mc-validate", "--e2t", "2", "--samples", "2000", "--seed", "5", "--sigma", "1"),
         _check_mc_validate),
        (("regression",), _check_table),
    ],
    ids=["distribute", "recover", "sweep", "mc-validate", "regression"],
)
def test_csv_cells_equal_json_fields(capsys, argv, check):
    """Every CSV cell holds exactly the number or flag of the JSON record's field."""
    json_code, json_out = run_cli(capsys, *argv, "--format", "json")
    csv_code, csv_out = run_cli(capsys, *argv, "--format", "csv")
    assert json_code == csv_code
    check(json.loads(json_out), list(csv.DictReader(io.StringIO(csv_out))))
