"""Command-line behavior: exit codes, deterministic reports, file handling."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import premval as pv
import premval.fixtures as fx
from premval.cli import build_parser, main

MODEL = str(fx.bundled_path(fx.MODEL_FILE))
BASE = str(fx.bundled_path(fx.BASE_MODEL_FILE))
TABLE = str(fx.bundled_path(fx.TABLE_FILE))

#: Reports captured from the CLI before the chain builder and the premium
#: selector were introduced; ``{MODEL}`` and ``{TABLE}`` stand for the
#: bundled files.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refusing an option
        code = exc.code
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
        ("premium", "--single", "--cashflow", os.devnull, "--rate", "0.01", "--model", "{model}", "--table", "{table}"),
        ("annuity", "--state", "1", "--from", "0", "--to", "1", "--rate", "0.01",
         "--model", "{model}", "--table", "{table}"),
        ("dist", "{model}", "{table}"),
        ("table", "check", "{model}", "{table}"),
    ], ids=["premium", "annuity", "dist", "table-check"])
    def test_chain_commands_refuse_lump_sums(self, capsys, tmp_path, argv):
        """A chain command would price the chain without the lump sums, so it refuses them."""
        model, table = tmp_path / "m.model", tmp_path / "t.csv"
        model.write_text("states 2\ntransition 1 2\nlumpsum 1 2 5.0\nattach 2 7.0\n")
        table.write_text("k,l_1,d_1_2\n0,100,10\n1,90,9\n")
        argv = [a.format(model=model, table=table) for a in argv]
        assert run(capsys, *argv) == (
            1, "", f"error: {model} has transition lump sums; run 'premval extend' on it first\n")

    def test_table_check_refuses_the_base_model(self, capsys):
        assert run(capsys, "table", "check", BASE, TABLE) == (
            1, "", f"error: {BASE} has transition lump sums; run 'premval extend' on it first\n")

    @pytest.mark.parametrize("argv", [
        ("premium", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5", "--single"),
        ("dist", MODEL, TABLE),
    ], ids=["premium", "dist"])
    def test_initial_state_zero_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--initial", "0")
        assert (code, out) == (1, "")
        assert err == "error: state 0 out of range 1..10\n"

    @pytest.mark.parametrize("command, extra", [("premium", ("--single",)), ("simulate", ("--paths", "10"))])
    def test_rate_minus_one_rejected(self, capsys, command, extra):
        code, out, err = run(capsys, command, "--model", MODEL, "--table", TABLE,
                             "--rate", "-1", "--accel", "0.5", *extra)
        assert (code, out) == (1, "")
        assert err == "error: interest rate -1.0 must exceed -1\n"

    @pytest.mark.parametrize("precision", ["-1", "x"])
    def test_precision_must_be_nonnegative(self, capsys, precision):
        code, out, err = run(capsys, "--precision", precision, "premium", "--model", MODEL, "--table", TABLE,
                             "--rate", "0.01", "--accel", "0.5", "--single")
        assert (code, out) == (2, "")
        assert f"argument --precision: expected a nonnegative integer, got '{precision}'" in err

    @pytest.mark.parametrize("argv, option, value", [
        (("cashflow", "accel", "--lambda", "0.5", "--n"), "--n", "-3"),
        (("cashflow", "case", "--id", "1", "--n"), "--n", "-1"),
        (("cashflow", "build", "--flows", os.devnull, "--n", "2", "--states"), "--states", "-1"),
        (("cashflow", "build", "--flows", os.devnull, "--states", "2", "--n"), "--n", "-1"),
    ], ids=["accel-n", "case-n", "build-states", "build-n"])
    def test_cashflow_sizes_must_be_nonnegative(self, capsys, argv, option, value):
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (2, "")
        assert f"argument {option}: expected a nonnegative integer, got '{value}'" in err

    #: Sizes past any 64-bit address space, so that no refusal depends on the memory free: a path
    #: array of 5.2e18 bytes, past the 2^57 bytes of 5-level paging and numpy's 2^63 - 1; and
    #: shapes past numpy's largest array.
    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5",
          "--paths", "100000000000000000"), "path array of shape (26, 100000000000000000) does not fit in memory"),
        (("simulate", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5",
          "--paths", "1" + "0" * 30), f"path array of shape (26, 1{'0' * 30}) does not fit in memory"),
        (("cashflow", "accel", "--lambda", "0.5", "--n", "1" + "0" * 27),
         f"cash-flow matrix of shape (1{'0' * 26}1, 10) does not fit in memory"),
        (("cashflow", "case", "--id", "2", "--n", "1" + "0" * 27),
         f"cash-flow matrix of shape (1{'0' * 26}1, 10) does not fit in memory"),
        (("cashflow", "build", "--flows", os.devnull, "--n", "3", "--states", "1" + "0" * 20),
         f"cash-flow matrix of shape (4, 1{'0' * 20}) does not fit in memory"),
    ], ids=["paths-past-the-address-space", "paths-past-numpy", "accel-n", "case-n", "build-states"])
    def test_oversize_sizes_are_refused_in_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_precision_past_what_python_formats_is_refused(self, capsys):
        code, out, err = run(capsys, "--precision", "1000000000000", "premium", "--model", MODEL, "--table", TABLE,
                             "--rate", "0.01", "--accel", "0.5", "--single")
        assert (code, out) == (2, "")
        assert "argument --precision: expected at most 2147483647 decimal places, got '1000000000000'" in err
        assert build_parser().parse_args(["--precision", "2147483647", "validate", MODEL]).precision == 2 ** 31 - 1

    def test_cashflow_zero_states_keeps_its_validation_error(self, capsys, tmp_path):
        flows = tmp_path / "c.flows"
        flows.write_text("flow 1 0 2 1.5\n")
        code, out, err = run(capsys, "cashflow", "build", "--flows", str(flows), "--n", "2", "--states", "0")
        assert (code, out, err) == (1, "", "error: state 1 out of range 1..0\n")

    def test_cashflow_zero_states_without_flows_rejected(self, capsys):
        code, out, err = run(capsys, "cashflow", "build", "--flows", os.devnull, "--n", "2", "--states", "0")
        assert (code, out, err) == (1, "", "error: cash-flow matrix has no states\n")

    @pytest.mark.parametrize("premium", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("period", [(), ("--period", "--m", "25", "--pay-states", "1")], ids=["single", "period"])
    def test_non_finite_premium_rejected(self, premium, period):
        # A child process, so that a numpy warning would reach stderr.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(pv.__file__).parents[1])] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-m", "premval.cli", "check", "--model", MODEL, "--table", TABLE,
                               "--rate", "0.01", "--accel", "0.5", f"--premium={premium}", *period],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert "--premium" in done.stderr
        assert "RuntimeWarning" not in done.stderr


class TestInputChecks:
    """The valuation commands check their options in one fixed order, all before reading a file."""

    @pytest.mark.parametrize("argv, message", [
        (("premium", "--accel", "0.5", "--period", "--m", "25", "--pay-states", "1,x"), "bad --pay-states '1,x'"),
        (("premium", "--accel", "0.5", "--case", "1", "--single"), "pass exactly one discount source"),
        (("check", "--premium", "0.1", "--accel", "0.5", "--case", "1"), "pass exactly one discount source"),
        (("simulate", "--paths", "10", "--rate", "0.01"), "pass exactly one contract source"),
        (("premium", "--rate", "0.01", "--accel", "0.5", "--period", "--m", "25"),
         "period mode requires --m and --pay-states"),
        (("check", "--premium", "0.1", "--rate", "0.01", "--case", "2", "--period", "--pay-states", "1"),
         "period mode requires --m and --pay-states"),
        (("premium", "--rate", "0.01", "--accel", "0.5", "--single", "--m", "3", "--pay-states", "9"),
         "--m and --pay-states apply only in period mode (--period)"),
        (("check", "--premium", "0.0123", "--rate", "0.01", "--accel", "0.5", "--m", "25"),
         "--m and --pay-states apply only in period mode (--period)"),
        (("check", "--premium", "0.0123", "--rate", "0.01", "--accel", "0.5", "--pay-states", "1,2"),
         "--m and --pay-states apply only in period mode (--period)"),
        (("annuity", "--state", "1", "--from", "0", "--to", "25"), "pass exactly one discount source"),
    ], ids=["pay-states-before-discount", "discount-before-contract", "check-discount-before-contract",
            "contract", "premium-period", "check-period", "premium-single-m", "check-single-m",
            "check-single-pay-states", "annuity-discount"])
    def test_first_fault_is_reported_before_any_file_is_read(self, capsys, tmp_path, argv, message):
        absent = str(tmp_path / "absent")
        code, out, err = run(capsys, *argv, "--model", absent, "--table", absent)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


#: Each subcommand's options and their defaults: scripts depend on them, so
#: no refactor of the parser may add, drop or re-default one.
OPTIONS = {
    "": {"--precision": 5, "--format": "plain"},
    "validate": {"model": None},
    "extend": {"model": None, "-o/--output": None},
    "delta": {"model": None},
    "table": {},
    "table check": {"model": None, "table": None},
    "dist": {"model": None, "table": None, "--initial": None},
    "cashflow": {},
    "cashflow accel": {"--lambda": None, "--n": None},
    "cashflow case": {"--id": None, "--n": None},
    "cashflow build": {"--flows": None, "--n": None, "--states": None},
    "premium": {"--model": None, "--table": None, "--rate": None, "--discount-file": None, "--initial": None,
                "--accel": None, "--case": None, "--cashflow": None, "--single": False, "--period": False,
                "--m": None, "--pay-states": None},
    "annuity": {"--model": None, "--table": None, "--rate": None, "--discount-file": None, "--initial": None,
                "--state": None, "--from": None, "--to": None},
    "check": {"--model": None, "--table": None, "--rate": None, "--discount-file": None, "--initial": None,
              "--accel": None, "--case": None, "--cashflow": None, "--premium": None, "--period": False,
              "--m": None, "--pay-states": None},
    "simulate": {"--model": None, "--table": None, "--rate": None, "--discount-file": None, "--initial": None,
                 "--accel": None, "--case": None, "--cashflow": None, "--paths": None, "--seed": 0},
    "demo": {"scenario": None},
    "fixtures": {"--out": None},
}


def declared_options(parser, path=""):
    table = {path: {}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(declared_options(sub, f"{path} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            table[path]["/".join(action.option_strings) or action.dest] = action.default
    return table


def test_every_subcommand_keeps_its_options_and_defaults():
    assert declared_options(build_parser()) == OPTIONS


#: A well-formed command line per subcommand with numeric options; the
#: sweep below swaps one option's value for a malformed one.
VALID = {
    "premium": ("premium", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5",
                "--period", "--m", "25", "--pay-states", "1", "--initial", "1"),
    "check": ("check", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5",
              "--premium", "0.1", "--initial", "1"),
    "simulate": ("simulate", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5",
                 "--paths", "10", "--seed", "1", "--initial", "1"),
    "annuity": ("annuity", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--state", "1",
                "--from", "0", "--to", "25", "--initial", "1"),
    "dist": ("dist", MODEL, TABLE, "--initial", "1"),
    "cashflow accel": ("cashflow", "accel", "--lambda", "0.5", "--n", "3"),
    "cashflow case": ("cashflow", "case", "--id", "1", "--n", "3"),
    "cashflow build": ("cashflow", "build", "--flows", os.devnull, "--n", "3", "--states", "2"),
}

MALFORMED = [
    ("premium", "--rate", ["x", "nan", "-1", "-inf"]),
    ("premium", "--accel", ["x", "nan", "-0.5", "1.5"]),
    ("premium", "--m", ["x", "-1", "26"]),
    ("premium", "--initial", ["x", "0", "11"]),
    ("premium", "--pay-states", ["x", ",", "0"]),
    ("check", "--premium", ["x", "nan", "inf"]),
    ("check", "--accel", ["x", "nan"]),
    ("check", "--initial", ["x", "-1"]),
    ("simulate", "--paths", ["x", "-1"]),
    ("simulate", "--seed", ["x", "-1"]),
    ("simulate", "--rate", ["nan"]),
    ("annuity", "--state", ["x", "0", "11"]),
    ("annuity", "--from", ["x", "-1", "26"]),
    ("annuity", "--to", ["x", "27"]),
    ("annuity", "--rate", ["x", "nan"]),
    ("dist", "--initial", ["x", "0", "11"]),
    ("cashflow accel", "--lambda", ["x", "nan", "-1"]),
    ("cashflow accel", "--n", ["x", "-1", "-3"]),
    ("cashflow case", "--id", ["x", "0", "4"]),
    ("cashflow case", "--n", ["x", "-1", "-3"]),
    ("cashflow build", "--n", ["x", "-1"]),
    ("cashflow build", "--states", ["x", "-1"]),
]


@pytest.mark.parametrize("command, option, value", [
    (command, option, value) for command, option, values in MALFORMED for value in values])
def test_malformed_numeric_option_fails_cleanly(capsys, command, option, value):
    argv = list(VALID[command])
    argv[argv.index(option) + 1] = value
    code, out, err = run(capsys, *argv)
    assert code in (1, 2)
    assert out == ""
    assert "Traceback" not in err


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

    @pytest.mark.parametrize("mode, annuity", [(("--single",), None),
                                               (("--period", "--m", "1", "--pay-states", "2"), "1.00000"),
                                               (("--period", "--m", "5", "--pay-states", "2"), "3.24380")],
                             ids=["single", "m1", "m5"])
    def test_premiums_count_from_the_initial_state(self, capsys, mode, annuity):
        # started in state 2, the insured is there at time 0, so a premium there collects from time 0
        chain = ("--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5", "--initial", "2")
        code, out, err = run(capsys, "--precision", "17", "premium", *chain, *mode)
        assert (code, err) == (0, "")
        if annuity:
            assert f"annuity value {annuity}" in run(capsys, "premium", *chain, *mode)[1]
        premium = out.splitlines()[0].split(": ")[1]
        check_mode = () if mode == ("--single",) else mode
        code, out, err = run(capsys, "check", *chain, *check_mode, "--premium", premium)
        assert (code, err) == (0, "")
        assert abs(float(out.split()[2])) < 1e-10

    @pytest.mark.parametrize("mode", [(), ("--period", "--m", "25", "--pay-states", "1,2")], ids=["single", "period"])
    def test_check_outflow_comes_from_the_premium_selector(self, capsys, monkeypatch, mode):
        def refuse(*args):
            raise RuntimeError("selector called")
        monkeypatch.setattr(pv.cashflow, "premium_selector", refuse)
        with pytest.raises(RuntimeError, match="selector called"):
            main(["check", "--model", MODEL, "--table", TABLE, "--rate", "0.01", "--accel", "0.5",
                  "--premium", "0.01", *mode])


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--model", MODEL, "--table", TABLE, "--rate", "0.01",
                "--accel", "0.5", "--paths", "2000", "--seed", "99")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert "matrix value:" in first
        assert "standard errors" in first


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


#: Model files that ``validate`` and ``extend`` must judge alike: the bundled
#: ones, the texts of the extend cases below, and three that ``validate`` once
#: passed while ``extend`` refused them.
AGREEMENT_FILES = {
    "bundled": Path(MODEL).read_text(encoding="utf-8"),
    "bundled-base": Path(BASE).read_text(encoding="utf-8"),
    "renumbered-attach": "states 3\ntransition 1 2\ntransition 1 3\nlumpsum 1 3 1.0\nattach 2 0.25\nattach 3 0.5\n",
    "unknown-attach": "states 2\ntransition 1 2\nattach 5 0.5\n",
    "collision": "states 3\nreflex 2\ntransition 1 2\ntransition 2 3\nlumpsum 1 2 1.0\nattach 2 0.5\n",
    **{f"non-finite {line}": f"states 2\ntransition 1 2\n{line}\n"
       for line in ["lumpsum 1 2 nan", "lumpsum 1 2 -inf", "attach 2 inf", "attach 2 NaN"]},
    "paying-and-non-paying": "states 3\nreflex 2\ntransition 1 2\ntransition 3 2\ntransition 1 3\n"
                             "transition 2 1\nlumpsum 1 2 1.0\n",
    "conflicting-amounts": "states 4\nreflex 3\ntransition 1 3\ntransition 2 3\ntransition 1 2\n"
                           "transition 3 4\nlumpsum 1 3 1.0\nlumpsum 2 3 2.0\n",
    "reflex-with-two-exits": "states 3\nreflex 1\ntransition 1 2\ntransition 1 3\n",
    "reflex-with-no-exit": "states 3\nreflex 3\ntransition 1 2\n",
}


class TestFileCommands:
    def test_extend_writes_shipped_model(self, capsys, tmp_path):
        out_path = tmp_path / "ext.model"
        code, _, err = run(capsys, "extend", BASE, "-o", str(out_path))
        assert code == 0
        assert "8 -> 10 states" in err
        assert out_path.read_text() == fx.bundled_path(fx.MODEL_FILE).read_text()

    def test_extending_the_shipped_model_reproduces_it(self, capsys):
        code, out, err = run(capsys, "extend", MODEL)
        assert code == 0
        assert "10 -> 10 states; plus states none; attachments at [3, 7, 9]" in err
        assert out == fx.bundled_path(fx.MODEL_FILE).read_text()

    def test_extend_renumbers_attach_lines(self, capsys, tmp_path):
        model = tmp_path / "m.model"
        model.write_text("states 3\ntransition 1 2\ntransition 1 3\nlumpsum 1 3 1.0\nattach 2 0.25\nattach 3 0.5\n")
        code, out, _ = run(capsys, "extend", str(model))
        assert code == 0
        assert out.splitlines()[-3:] == ["attach 2 0.25", "attach 3 1.0", "attach 4 0.5"]

    @pytest.mark.parametrize("text, message", [
        ("states 2\ntransition 1 2\nattach 5 0.5\n", "attachment on unknown state 5"),
        ("states 3\nreflex 2\ntransition 1 2\ntransition 2 3\nlumpsum 1 2 1.0\nattach 2 0.5\n",
         "attachment on state 2 collides with a lump sum rewritten onto it"),
    ], ids=["unknown-state", "collision"])
    def test_extend_refuses_bad_attach_lines(self, capsys, tmp_path, text, message):
        model = tmp_path / "m.model"
        model.write_text(text)
        assert run(capsys, "extend", str(model)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("line", ["lumpsum 1 2 nan", "lumpsum 1 2 -inf", "attach 2 inf", "attach 2 NaN"])
    @pytest.mark.parametrize("command", ["validate", "extend"])
    def test_non_finite_amounts_are_parse_errors(self, capsys, tmp_path, command, line):
        model = tmp_path / "m.model"
        model.write_text(f"states 2\ntransition 1 2\n{line}\n")
        text = line.split()[-1]
        assert run(capsys, command, str(model)) == (2, "", f"error: line 3: amount must be finite, got {text}\n")

    def test_extend_to_stdout(self, capsys):
        code, out, _ = run(capsys, "extend", BASE)
        assert code == 0
        assert "states 10" in out

    @pytest.mark.parametrize("name", AGREEMENT_FILES)
    def test_validate_agrees_with_extend(self, capsys, tmp_path, name):
        """Both accept the file, or ``validate`` reports the refusal ``extend`` reports."""
        model = tmp_path / "m.model"
        model.write_text(AGREEMENT_FILES[name], encoding="utf-8")
        extend_code, _, extend_err = run(capsys, "extend", str(model))
        code, out, err = run(capsys, "validate", str(model))
        if extend_code == 0:
            assert code == 0 and out.startswith("ok: ")
        elif extend_code == 1:
            assert (code, out, err) == (1, extend_err.removeprefix("error: "), "")
        else:  # the file does not parse
            assert (code, out, err) == (2, "", extend_err)

    def test_validate_lists_every_structural_problem_before_the_extension(self, capsys, tmp_path):
        model = tmp_path / "m.model"
        model.write_text("states 2\ntransition 1 3\ntransition 2 2\nlumpsum 1 4 1.0\nattach 7 1.0\n")
        assert run(capsys, "validate", str(model)) == (
            1, "state id out of range in transition (1, 3)\nself-transition at state 2\n", "")
        assert run(capsys, "extend", str(model))[2] == (
            "error: state id out of range in transition (1, 3); self-transition at state 2\n")

    @pytest.mark.parametrize("name, message", [
        ("reflex-with-two-exits", "reflex flag on state 1, which has 2 outgoing transitions (exactly one required)"),
        ("reflex-with-no-exit", "reflex flag on state 3, which has no outgoing transition"),
    ])
    def test_validate_and_extend_refuse_what_no_chain_can_be_built_from(self, capsys, tmp_path, name, message):
        model = tmp_path / "m.model"
        model.write_text(AGREEMENT_FILES[name], encoding="utf-8")
        assert run(capsys, "validate", str(model)) == (1, message + "\n", "")
        assert run(capsys, "extend", str(model)) == (1, "", f"error: {message}\n")
        assert run(capsys, "table", "check", str(model), TABLE) == (1, "", f"error: {message}\n")

    def test_validate_reports_the_first_lump_sum_fault(self, capsys, tmp_path):
        model = tmp_path / "m.model"
        model.write_text("states 3\ntransition 1 2\nlumpsum 2 3 1.0\nlumpsum 1 3 1.0\nattach 7 1.0\n")
        assert run(capsys, "validate", str(model)) == (1, "lump sum on missing transition (1, 3)\n", "")

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

    def test_commented_discount_file_prices_like_the_plain_one(self, capsys, tmp_path):
        factors = ["1.0"] + [repr(1.01 ** -k) for k in range(1, 26)]
        commented = tmp_path / "commented.txt"
        commented.write_text("# factors m_0..m_25\n" + "\n".join(f"{f}  # k" for f in factors) + "\n")
        code, out, _ = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                           "--discount-file", str(commented), "--accel", "0.5", "--single")
        assert code == 0
        plain = tmp_path / "plain.txt"
        plain.write_text("\n".join(factors) + "\n")
        assert run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                   "--discount-file", str(plain), "--accel", "0.5", "--single")[1] == out

    def test_bad_token_in_discount_file(self, capsys, tmp_path):
        factors = tmp_path / "m.txt"
        factors.write_text("1.0\n0.99 x\n")
        code, out, err = run(capsys, "premium", "--model", MODEL, "--table", TABLE,
                             "--discount-file", str(factors), "--accel", "0.5", "--single")
        assert (code, out) == (2, "")
        assert err == f"error: discount file {factors}: line 2: could not convert string to float: 'x'\n"

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
