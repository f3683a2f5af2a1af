"""The text parsers on mutated copies of the bundled files: every input ends
in a value, a ParseError or a ValidationError, never in another exception.

A mutation drops, swaps or duplicates a token or a separator, or puts in a
NUL, a carriage return, non-ASCII digits, a 5 000-digit number or a stray
sign or comment mark, between tokens or inside one.

``load_table`` reads a plain table body with numpy's C text reader, as int64
when it holds whole counts only, and any other body with its csv loop; on the
same mutated tables, and on a plain body around each cell of ``CELLS``, it
must give what the csv loop gives alone: the same columns bit for bit, or the
same error and message.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import premval as pv
import premval.fixtures as fx
from chains import THREE_STATE_TABLE, graduated_cycle_case, large_chain_case, make_three_state_model
from premval import lifetable

MODEL_TEXT = fx.bundled_path(fx.BASE_MODEL_FILE).read_text(encoding="utf-8") + "attach 2 0.5\ninitial 1  # start\n"
FIXTURE_TABLE_TEXT = fx.bundled_path(fx.TABLE_FILE).read_text(encoding="utf-8")
CASHFLOW_TEXT = "# contract\nflow 2 1 3 0.25\nflow 1 0 1 -1\nflow 3 0 25 1e-3  # tail\n"
DISCOUNT_TEXT = "# factors\n1.0, 0.99 0.9801\n0.970299  # last\n"
LARGE_MODEL, LARGE_TABLE_TEXT = large_chain_case(n_states=40, horizon=30)

SPECIALS = ["\x00", "\r", "\r\n", "٣", "१२", "１", "9" * 5000, "0." + "1" * 5000, "-", "#"]


@st.composite
def mutated(draw, text):
    pieces = re.split(r"([\s,]+)", text)  # tokens and the separators between them
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(pieces) - 1))
        op = draw(st.sampled_from(["drop", "swap", "duplicate", "insert", "splice"]))
        if op == "drop":
            del pieces[i]
        elif op == "swap":
            j = draw(st.integers(0, len(pieces) - 1))
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif op == "duplicate":
            pieces.insert(i, pieces[i])
        elif op == "insert":
            pieces.insert(i, draw(st.sampled_from(SPECIALS)))
        else:
            at = draw(st.integers(0, len(pieces[i])))
            pieces[i] = pieces[i][:at] + draw(st.sampled_from(SPECIALS)) + pieces[i][at:]
        pieces = pieces or [""]
    return "".join(pieces)


def ends_in_a_value_or_an_error(parse, text):
    try:
        parse(text)
    except (pv.ParseError, pv.ValidationError) as exc:
        assert str(exc)


@settings(max_examples=150, deadline=None)
@given(mutated(MODEL_TEXT))
def test_model_text(text):
    ends_in_a_value_or_an_error(pv.parse_model_text, text)


@settings(max_examples=150, deadline=None)
@given(mutated(THREE_STATE_TABLE))
@example(THREE_STATE_TABLE.replace("1,90,9", "1,9\r0,9"))
@example(THREE_STATE_TABLE.replace("1,90,9", "1," + "9" * 131_073 + ",9"))
def test_three_state_table_text(text):
    ends_in_a_value_or_an_error(lambda t: pv.load_table(t, make_three_state_model()), text)


@settings(max_examples=150, deadline=None)
@given(mutated(FIXTURE_TABLE_TEXT))
def test_fixture_table_text(text):
    ends_in_a_value_or_an_error(lambda t: pv.load_table(t, fx.dread_disease_model()), text)


@settings(max_examples=150, deadline=None)
@given(mutated(CASHFLOW_TEXT))
def test_cashflow_text(text):
    ends_in_a_value_or_an_error(pv.parse_cashflow_text, text)


@settings(max_examples=150, deadline=None)
@given(mutated(DISCOUNT_TEXT))
def test_discount_text(text):
    ends_in_a_value_or_an_error(lambda t: pv.parse_discount_text(t, 3), text)


def loaded(text, model):
    """``load_table``'s horizon and columns as bytes in mapping order, or its error and message."""
    try:
        table = pv.load_table(text, model)
    except (pv.ParseError, pv.ValidationError) as exc:
        return type(exc), str(exc)
    return table.n, [(key, column.tobytes()) for key, column in [*table.occupancy.items(),
                                                                 *table.decrements.items()]]


def loads_as_the_csv_loop_does(text, model):
    with mock.patch.object(lifetable, "_plain_table", return_value=None):
        want = loaded(text, model)
    assert loaded(text, model) == want


@settings(max_examples=150, deadline=None)
@given(mutated(THREE_STATE_TABLE))
@example(THREE_STATE_TABLE)
@example(THREE_STATE_TABLE.replace("\n", "\r\n"))
@example(THREE_STATE_TABLE.replace("1,90,9", "1," + "9" * 131_073 + ",9"))
@example(THREE_STATE_TABLE.replace("1,90,9", "1," + "9" * (131_072 - 4) + ",9"))
@example(THREE_STATE_TABLE.replace("1,90,9", "1,90,9,"))
@example(THREE_STATE_TABLE.replace("\n", ",0\n").replace("d_1_2,0", "d_1_2"))
@example("k,l_1,d_1_2\n0,100\n1,90\n2,81\n")
@example(THREE_STATE_TABLE.replace("1,90,9", "01,+90,9.0e0"))
@example(THREE_STATE_TABLE.replace("1,90,9", "1.0,90,9"))
@example(THREE_STATE_TABLE.replace("1,90,9", "1,90,9\n\n"))
@example("# note\n" + THREE_STATE_TABLE.replace("k,", '"k",'))
def test_three_state_table_loads_as_the_csv_loop_does(text):
    loads_as_the_csv_loop_does(text, make_three_state_model())


@settings(max_examples=100, deadline=None)
@given(mutated(FIXTURE_TABLE_TEXT))
@example(FIXTURE_TABLE_TEXT)
def test_fixture_table_loads_as_the_csv_loop_does(text):
    loads_as_the_csv_loop_does(text, fx.dread_disease_model())


@settings(max_examples=40, deadline=None)
@given(mutated(LARGE_TABLE_TEXT))
@example(LARGE_TABLE_TEXT)
def test_large_table_loads_as_the_csv_loop_does(text):
    loads_as_the_csv_loop_does(text, LARGE_MODEL)


# The cells of test_table_cells_parse_as_float_does, then cells of the plain
# alphabet that float() or int() reads, refuses or takes out of range, then
# whole counts around the int64 reader's limits: past 2^53, at and past
# 2^63 - 1, past 2^64, and zero with leading zeros.
CELLS = ["1_000", "0x10", "1e5000", "1,5", " 3.5 ", "nan", "", "٣", "1e-400", "0b1",
         "+5", "-0", "00", "1.", ".5", "1e+1", "5E-1", "1e400", "-1e400", "5-3", "e", "+", ".", "1..2", "--1",
         "9" * 5000, "0." + "1" * 5000,
         "9007199254740993", "9000000000000000001", "9223372036854775807", "9223372036854775808",
         "18446744073709551616", "0000"]


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("where", ["l", "d", "k"])
def test_a_cell_in_a_plain_body_loads_as_the_csv_loop_does(cell, where):
    row = {"l": f"1,{cell},0", "d": f"1,90,{cell}", "k": f"{cell},90,0"}[where]
    loads_as_the_csv_loop_does(f"k,l_1,d_1_2\n0,100,10\n{row}\n2,81,0\n", make_three_state_model())


def test_plain_tables_skip_the_csv_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("the csv loop read a plain table body")

    monkeypatch.setattr(lifetable, "_row_by_row", refuse)
    assert pv.load_table(fx.bundled_path(fx.TABLE_FILE), fx.dread_disease_model()).n == 25
    model, text = large_chain_case()
    assert pv.load_table(text, model).n == 120
    model, text = graduated_cycle_case()
    assert pv.load_table(text, model).n == 1000


def test_whole_count_bodies_take_the_int64_reader(monkeypatch):
    dtypes = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        dtypes.append(np.dtype(kwargs.get("dtype", float)))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    cases = {"bundled": (fx.dread_disease_model(), fx.bundled_path(fx.TABLE_FILE)),
             "large": large_chain_case(), "graduated": graduated_cycle_case()}
    read = {}
    for name, (model, source) in cases.items():
        dtypes.clear()
        pv.load_table(source, model)
        read[name] = dtypes[:]
    assert read == {"bundled": [np.int64], "large": [np.int64], "graduated": [np.float64]}
