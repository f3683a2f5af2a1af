"""The input boundary: every input file is read by ``errors.read_text`` as
UTF-8, and a file that cannot be read, decoded or split into CSV rows ends
in a ParseError naming it, which the CLI reports with exit code 2."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import premval as pv
import premval.fixtures as fx
from chains import (FOUR_STATE_MODEL_TEXT, OVERFLOWING_TABLES, SUBNORMAL_OCCUPANCY_TABLE, THREE_STATE_TABLE,
                    make_three_state_model)

SRC = Path(pv.__file__).parent
MODEL = str(fx.bundled_path(fx.MODEL_FILE))
TABLE = str(fx.bundled_path(fx.TABLE_FILE))

#: Each loader by the name its read failures give the file.
LOADERS = {
    "model": pv.load_model_file,
    "table": lambda path: pv.load_table(path, make_three_state_model()),
    "cash-flow": pv.load_cashflow_file,
    "discount": lambda path: pv.load_discount_file(path, n=2),
}

#: A CLI command reading each kind of file, with ``{}`` for its path.
COMMANDS = {
    "model": ["validate", "{}"],
    "table": ["table", "check", MODEL, "{}"],
    "cash-flow": ["cashflow", "build", "--flows", "{}", "--n", "2", "--states", "3"],
    "discount": ["premium", "--model", MODEL, "--table", TABLE, "--discount-file", "{}", "--accel", "0.5", "--single"],
}

#: Calls that write a file, by module and enclosing function (None for any).
WRITERS = {("cli", "_cmd_extend"), ("fixtures", None)}


def run_cli(*argv):
    """The CLI in a child process, so that a traceback would reach stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "premval.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("what", LOADERS)
def test_a_missing_file_is_named(what, tmp_path):
    path = tmp_path / "absent"
    with pytest.raises(pv.ParseError) as info:
        LOADERS[what](path)
    assert str(info.value) == f"cannot read {what} file {path}: [Errno 2] No such file or directory: '{path}'"


@pytest.mark.parametrize("what", LOADERS)
def test_a_file_that_is_not_utf8_is_named(what, tmp_path):
    path = tmp_path / "latin1"
    path.write_bytes(b"# \xff\n")
    with pytest.raises(pv.ParseError) as info:
        LOADERS[what](path)
    assert str(info.value) == (f"cannot read {what} file {path}: "
                               "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte")


@pytest.mark.parametrize("what", LOADERS)
def test_a_path_with_a_nul_byte_is_named(what):
    with pytest.raises(pv.ParseError, match=f"^cannot read {what} file a\x00b: embedded null byte$"):
        LOADERS[what]("a\x00b")


@pytest.mark.parametrize("what", COMMANDS)
def test_cli_reports_a_file_that_is_not_utf8(what, tmp_path):
    path = tmp_path / "latin1"
    path.write_bytes(b"states 2\n\xff\n")
    done = run_cli(*[arg.format(path) for arg in COMMANDS[what]])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: cannot read {what} file {path}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in done.stderr


def test_cli_reports_a_table_field_over_the_csv_limit(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(THREE_STATE_TABLE.replace("1,90,9", "1," + "9" * 131_073 + ",9"), encoding="utf-8")
    done = run_cli("table", "check", MODEL, str(path))
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: line 3: field larger than field limit (131072)\n")


@pytest.mark.parametrize("table, message", OVERFLOWING_TABLES.values(), ids=OVERFLOWING_TABLES)
def test_cli_reports_counts_past_the_largest_float_with_no_warning(table, message, tmp_path):
    model, path = tmp_path / "four.model", tmp_path / "table.csv"
    model.write_text(FOUR_STATE_MODEL_TEXT, encoding="utf-8")
    path.write_text(table, encoding="utf-8")
    done = run_cli("table", "check", str(model), str(path))
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")


def test_cli_counts_a_gap_over_a_subnormal_occupancy_with_no_warning(tmp_path):
    model, path = tmp_path / "four.model", tmp_path / "table.csv"
    model.write_text(FOUR_STATE_MODEL_TEXT, encoding="utf-8")
    path.write_text(SUBNORMAL_OCCUPANCY_TABLE, encoding="utf-8")
    done = run_cli("table", "check", str(model), str(path))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("ok: ") and "; 1 period/state cells show" in done.stdout


def test_a_bare_carriage_return_in_table_text_names_its_line(model3):
    text = THREE_STATE_TABLE.replace("1,90,9", "1,9\r0,9")
    with pytest.raises(pv.ParseError, match="^row 1 has 2 fields, expected 3$"):
        pv.load_table(text, model3)


#: The three-state table with each kind of line end, and with a bare ``\r``
#: splitting a field, which ends a line in text as in a file.
LINE_ENDS = {
    "LF": THREE_STATE_TABLE,
    "CRLF": THREE_STATE_TABLE.replace("\n", "\r\n"),
    "CR": THREE_STATE_TABLE.replace("\n", "\r"),
    "bare CR in a field": THREE_STATE_TABLE.replace("1,90,9", "1,9\r0,9"),
}


def loaded(source, model) -> "list | str":
    """The table's columns as bytes, or the message of the ParseError it raises."""
    try:
        table = pv.load_table(source, model)
    except pv.ParseError as exc:
        return str(exc)
    return [(key, column.tobytes()) for key, column in [*sorted(table.occupancy.items()), *sorted(table.decrements.items())]]


@pytest.mark.parametrize("ends", LINE_ENDS)
def test_table_text_reads_as_the_same_bytes_from_a_file(ends, model3, tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(LINE_ENDS[ends].encode("utf-8"))
    assert loaded(LINE_ENDS[ends], model3) == loaded(path, model3) == loaded(str(path), model3)
    assert loaded(LINE_ENDS[ends], model3) == (loaded(THREE_STATE_TABLE, model3) if ends != "bare CR in a field"
                                               else "row 1 has 2 fields, expected 3")


def test_a_header_state_id_past_the_int_digit_limit_names_its_column(model3):
    text = THREE_STATE_TABLE.replace("d_1_2", "d_1_" + "2" * 5000)
    with pytest.raises(pv.ParseError, match="^header column 3: Exceeds the limit"):
        pv.load_table(text, model3)


def file_openings():
    """(module, enclosing function, writes) for every call in the package
    that opens a file: ``open`` and the ``open``, ``read_*`` and ``write_*``
    methods of paths."""
    for source in sorted(SRC.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        owner: dict = {}
        for node in ast.walk(tree):  # breadth first, so a parent comes before its children
            for child in ast.iter_child_nodes(node):
                owner[child] = node.name if isinstance(node, ast.FunctionDef) else owner.get(node)
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "open":
                yield source.stem, owner.get(node), set(open_mode(node)) & set("wax") != set()
            elif name in {"read_text", "read_bytes", "write_text", "write_bytes"} and isinstance(node.func, ast.Attribute):
                yield source.stem, owner.get(node), name.startswith("write")


def open_mode(call: ast.Call) -> str:
    """The mode of an ``open`` call: "r" when none is given, "" when it is not a constant."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    return str(given[0].value) if isinstance(given[0], ast.Constant) else ""


def test_only_errors_splits_text_into_lines():
    callers = set()
    for source in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "splitlines":
                callers.add(source.stem)
    assert callers == {"errors"}


def test_only_errors_read_text_reads_a_file():
    openings = list(file_openings())
    readers = [(module, function) for module, function, writes in openings if not writes]
    assert readers == [("errors", "read_text")]
    writers = {(module, function) for module, function, writes in openings if writes}
    assert all((module, function) in WRITERS or (module, None) in WRITERS for module, function in writers), writers
