"""The text parsers on mutated copies of the bundled files: every input ends
in a value, a ParseError or a ValidationError, never in another exception.

A mutation drops, swaps or duplicates a token or a separator, or puts in a
NUL, a carriage return, non-ASCII digits, a 5 000-digit number or a stray
sign or comment mark, between tokens or inside one.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

import premval as pv
import premval.fixtures as fx
from chains import THREE_STATE_TABLE, make_three_state_model

MODEL_TEXT = fx.bundled_path(fx.BASE_MODEL_FILE).read_text(encoding="utf-8") + "attach 2 0.5\ninitial 1  # start\n"
FIXTURE_TABLE_TEXT = fx.bundled_path(fx.TABLE_FILE).read_text(encoding="utf-8")
CASHFLOW_TEXT = "# contract\nflow 2 1 3 0.25\nflow 1 0 1 -1\nflow 3 0 25 1e-3  # tail\n"
DISCOUNT_TEXT = "# factors\n1.0, 0.99 0.9801\n0.970299  # last\n"

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
