"""Command-line behavior: exit codes, deterministic reports, file handling."""

import json
from pathlib import Path

import pytest

import premval as pv
import premval.fixtures as fx
from premval.cli import main

MODEL = str(fx.bundled_path(fx.MODEL_FILE))
BASE = str(fx.bundled_path(fx.BASE_MODEL_FILE))
TABLE = str(fx.bundled_path(fx.TABLE_FILE))

#: Reports captured from the CLI before the chain builder and the premium
#: selector were introduced; ``{MODEL}`` and ``{TABLE}`` stand for the
#: bundled files.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_validate_ok(self, capsys):
        code, out, _ = run(capsys, "validate", MODEL)
        assert code == 0
        assert "10 states" in out

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.model")
        assert code == 2
        assert "cannot read" in err

    def test_unparseable_model_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("states x\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_semantic_problem_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("states 2\ntransition 1 3\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "out of range" in out

    def test_contract_amount_error(self, capsys):
        code, _, err = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--accel", "1.5", "--single")
        assert code == 1
        assert "outside [0, 1]" in err

    def test_missing_discount_source(self, capsys):
        code, _, err = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--accel", "0.5", "--single")
        assert code == 1
        assert "discount source" in err

    def test_two_contract_sources(self, capsys):
        code, _, err = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--accel", "0.5", "--case", "1", "--single")
        assert code == 1
        assert "contract source" in err

    def test_period_needs_m_and_states(self, capsys):
        code, _, err = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--accel", "0.5", "--period")
        assert code == 1
        assert "--m and --pay-states" in err

    def test_bad_pay_states(self, capsys):
        code, _, err = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--accel", "0.5", "--period",
                           "--m", "25", "--pay-states", "1,x")
        assert code == 1
        assert "--pay-states" in err


    @pytest.mark.parametrize("command, extra", [("premium", ()), ("check", ("--premium", "0.01"))])
    @pytest.mark.parametrize("pay, bad", [("99", 99), ("0", 0), ("1,11", 11)])
    def test_pay_state_out_of_range(self, capsys, command, extra, pay, bad):
        code, out, err = run(capsys, command, "--model", MODEL, "--table", TABLE,
                             "--rate", "0.01", "--accel", "0.5", *extra, "--period",
                             "--m", "25", "--pay-states", pay)
        assert (code, out) == (1, "")
        assert err == f"error: pay state {bad} out of range 1..10\n"

    @pytest.mark.parametrize("argv", [
        ("premium", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5", "--single"),
        ("dist", MODEL, TABLE),
    ], ids=["premium", "dist"])
    def test_initial_state_zero_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--initial", "0")
        assert (code, out) == (1, "")
        assert err == "error: state 0 out of range 1..10\n"


class TestReports:
    def test_single_premium_line(self, capsys):
        code, out, _ = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--accel", "0.5", "--single")
        assert code == 0
        assert out.startswith("net single premium: 0.30318")

    def test_period_premium_lines(self, capsys):
        code, out, _ = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--accel", "0.5", "--period",
                           "--m", "25", "--pay-states", "1,2")
        assert code == 0
        assert "net period premium (states {1,2}, m=25):" in out
        assert "benefit value" in out

    def test_reports_are_byte_identical(self, capsys):
        args = ("premium", "--model", MODEL, "--table", TABLE,
                "--rate", "0.01", "--case", "2", "--period", "--m", "25",
                "--pay-states", "1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "--precision", "8", "premium", "--model", MODEL,
                           "--table", TABLE, "--rate", "0.01", "--accel", "0.5", "--single")
        assert code == 0
        value = out.split(":")[1].strip()
        assert len(value.split(".")[1]) == 8

    def test_delta_lists_every_state(self, capsys):
        code, out, _ = run(capsys, "delta", MODEL)
        assert code == 0
        assert out.splitlines() == ["1 0", "2 1", "3 1", "4 2", "5 3",
                                    "6 4", "7 1", "8 2", "9 2", "10 3"]

    def test_delta_prints_inf_for_unreachable(self, capsys, tmp_path):
        isolated = tmp_path / "m.model"
        isolated.write_text("states 2\n")
        code, out, _ = run(capsys, "delta", str(isolated))
        assert code == 0
        assert out.splitlines() == ["1 0", "2 inf"]

    def test_table_check_reports_ok(self, capsys):
        code, out, _ = run(capsys, "table", "check", MODEL, TABLE)
        assert code == 0
        assert out.startswith("ok: horizon 25")

    def test_dist_emits_header_and_all_rows(self, capsys):
        code, out, _ = run(capsys, "dist", MODEL, TABLE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("k,state_1")
        assert len(lines) == 27

    def test_annuity_value(self, capsys):
        code, out, _ = run(capsys, "annuity", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--state", "1", "--from", "0", "--to", "25")
        assert code == 0
        assert "annuity value, state 1, [0, 25):" in out

    def test_check_reports_residual(self, capsys):
        code, out, _ = run(capsys, "check", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--accel", "0.5", "--premium", "0.5")
        assert code == 0
        assert "equivalence residual:" in out


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--model", MODEL, "--table", TABLE, "--rate", "0.01",
                "--accel", "0.5", "--paths", "2000", "--seed", "99")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert "matrix value:" in first
        assert "standard errors" in first

    def test_chunk_size_invisible_in_report(self, capsys):
        base = ("simulate", "--model", MODEL, "--table", TABLE, "--rate", "0.01",
                "--accel", "0.5", "--paths", "2000", "--seed", "99")
        _, first, _ = run(capsys, *base, "--chunk-size", "300")
        _, second, _ = run(capsys, *base, "--chunk-size", "100000")
        assert first == second

    def test_global_seed_used_when_not_given(self, capsys):
        args = ("simulate", "--model", MODEL, "--table", TABLE, "--rate", "0.01",
                "--accel", "0.5", "--paths", "1000")
        _, with_default, _ = run(capsys, *args)
        _, with_zero, _ = run(capsys, "--seed", "0", *args)
        assert with_default == with_zero


class TestDemo:
    def test_accel_table_structure(self, capsys):
        code, out, _ = run(capsys, "demo", "accel")
        assert code == 0
        lines = out.splitlines()
        assert "SYNTHETIC" in lines[0]
        assert len(lines) == 7
        assert lines[1].split()[0] == "lambda"
        assert lines[-1].split()[-1] == "—"

    def test_stand_alone_cover_has_no_terminal_premium(self, capsys):
        _, out, _ = run(capsys, "--format", "csv", "demo", "accel")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        full = [row for row in rows if row[0] == "1"][0]
        assert full[-1] == "—"
        partial = [row for row in rows if row[0] == "0.75"][0]
        assert partial[-1] != "—"

    @pytest.mark.parametrize("scenario", ["case1", "case2", "case3"])
    def test_case_scenarios_have_one_row(self, capsys, scenario):
        code, out, _ = run(capsys, "--format", "csv", "demo", scenario)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[0] == scenario[-1]


class TestFileCommands:
    def test_extend_writes_shipped_model(self, capsys, tmp_path):
        out_path = tmp_path / "ext.model"
        code, _, err = run(capsys, "extend", BASE, "-o", str(out_path))
        assert code == 0
        assert "8 -> 10 states" in err
        assert out_path.read_text() == fx.bundled_path(fx.MODEL_FILE).read_text()

    def test_extend_to_stdout(self, capsys):
        code, out, _ = run(capsys, "extend", BASE)
        assert code == 0
        assert "states 10" in out

    def test_fixtures_written(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fixtures", "--out", str(tmp_path))
        assert code == 0
        names = {line.rsplit("/", 1)[-1] for line in out.splitlines()}
        assert names == {fx.MODEL_FILE, fx.BASE_MODEL_FILE, fx.TABLE_FILE}

    def test_cashflow_accel_csv(self, capsys):
        code, out, _ = run(capsys, "cashflow", "accel", "--lambda", "0.5", "--n", "3")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_cashflow_from_file(self, capsys, tmp_path):
        flows = tmp_path / "c.flows"
        flows.write_text("flow 1 0 2 1.5\n")
        code, out, _ = run(capsys, "cashflow", "build", "--flows", str(flows),
                           "--n", "2", "--states", "2")
        assert code == 0
        assert out.splitlines()[0] == "1.5,0"

    def test_premium_from_cashflow_file(self, capsys, tmp_path):
        flows = tmp_path / "c.flows"
        flows.write_text("flow 7 1 26 1\nflow 9 2 26 1\n")
        code, out, _ = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--rate", "0.01", "--cashflow", str(flows), "--single")
        assert code == 0
        assert out.startswith("net single premium:")

    def test_discount_file_used(self, capsys, tmp_path):
        factors = tmp_path / "m.txt"
        factors.write_text("\n".join(["1.0"] + ["0.99"] * 25) + "\n")
        code, out, _ = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--discount-file", str(factors), "--accel", "0.5", "--single")
        assert code == 0

    def test_wrong_length_discount_file(self, capsys, tmp_path):
        factors = tmp_path / "m.txt"
        factors.write_text("1.0\n0.99\n")
        code, _, err = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--discount-file", str(factors), "--accel", "0.5", "--single")
        assert code == 1
        assert "expected 26" in err


class TestGoldenReports:
    @pytest.mark.parametrize("case", GOLDEN, ids=[
        " ".join(a for a in c["argv"] if a not in ("--model", "--table", "{MODEL}", "{TABLE}")) for c in GOLDEN])
    def test_report_is_byte_identical(self, capsys, case):
        argv = [{"{MODEL}": MODEL, "{TABLE}": TABLE}.get(a, a) for a in case["argv"]]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (case["exit"], case["stdout"])
