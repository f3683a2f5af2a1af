"""A life table is one read-only array of counts.

Every table, loaded, inferred or built from mappings, owns one read-only
array whose columns its ``occupancy`` and ``decrements`` mappings view, so
a checked count cannot be edited into a wrong Q.  Its check must
refuse what the column-by-column check refused, with the same message, and
a table built by hand must hold the same bits as one loaded from text.  The
sequence's row sums, taken in one ``bincount``, must name the same fault,
and ``simulate`` builds a sequence's step tables once.  The value classes
hold read-only views of what they are given, refused unless it holds
numbers.
"""

import copy
import csv
import io
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premval as pv
import premval.fixtures as fx
import premval.oracle as oracle
from chains import dense_sequence, large_chain_case, random_table_case, reference_table_fault

#: Peak traced memory of ``build_chain`` on an N=200, n=120 chain: 3.89 MB
#: measured (4.54 MB while every reader copied and stacked the columns).
BUILD_PEAK_BYTES = 4.25e6


def fixture_text() -> str:
    return Path(fx.bundled_path(fx.TABLE_FILE)).read_text(encoding="utf-8")


def table_columns(table: pv.IncrementDecrementTable) -> list:
    return ([(f"l_{i}", col.tobytes()) for i, col in sorted(table.occupancy.items())]
            + [(f"d_{i}_{j}", col.tobytes()) for (i, j), col in sorted(table.decrements.items())])


@pytest.fixture
def fixture_tables():
    model = fx.dread_disease_model()
    loaded = pv.load_table(fixture_text(), model)
    return model, loaded, pv.infer_reflex_columns(loaded, model)


@pytest.mark.parametrize("which", ["loaded", "inferred"])
def test_a_checked_table_cannot_be_edited(fixture_tables, which):
    model, loaded, full = fixture_tables
    table = loaded if which == "loaded" else full
    q = pv.transition_sequence(full, model).probabilities.copy()
    with pytest.raises(ValueError, match="read-only"):
        table.occupancy[1][3] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        next(iter(table.decrements.values()))[0] = -1.0
    with pytest.raises(TypeError):
        table.occupancy[1] = np.zeros(table.n + 1)
    assert not np.isnan(table.occupancy[1]).any()
    assert pv.transition_sequence(full, model).probabilities.tobytes() == q.tobytes()


def test_a_table_built_from_mappings_copies_them(model3):
    living = np.array([100.0, 90.0, 81.0])
    table = pv.IncrementDecrementTable(n=2, occupancy={1: living}, decrements={(1, 2): np.array([10.0, 9.0, 0.0])})
    living[1] = np.nan
    assert table.occupancy[1].tolist() == [100.0, 90.0, 81.0]
    assert not table.occupancy[1].flags.writeable


def test_a_table_pickles_and_copies(fixture_tables):
    _, loaded, full = fixture_tables
    for table in (loaded, full):
        for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert table_columns(twin) == table_columns(table)
            assert (list(twin.occupancy), list(twin.decrements)) == (list(table.occupancy), list(table.decrements))
            assert (twin.n, twin.entry_age) == (table.n, table.entry_age)


def test_sequence_arrays_are_read_only(chain3):
    for array in (chain3.seq.rows, chain3.seq.columns, chain3.seq.probabilities):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("value_class, field, values, what", [
    (pv.CashflowMatrix, "matrix", [[1.0]], "cash-flow matrix"),
    (pv.DistributionMatrix, "matrix", [[1.0]], "distribution matrix"),
    (pv.DiscountVector, "values", [1.0, 0.9], "discount vector"),
], ids=["cash-flow", "distribution", "discount"])
def test_value_classes_take_array_likes_and_refuse_what_is_not_numbers(value_class, field, values, what):
    held = getattr(value_class(values), field)
    assert held.tolist() == values and not held.flags.writeable
    given = np.array(values)
    assert np.shares_memory(getattr(value_class(given), field), given)  # a view of the caller's own array
    for odd in (np.full_like(given, "x", dtype=str), np.array(values, dtype=object)):
        with pytest.raises(pv.ValidationError, match=f"^{what} must hold numbers, got dtype {odd.dtype}$"):
            value_class(odd)


def test_reflex_exits_read_their_occupancy(fixture_tables):
    model, _, full = fixture_tables
    for r in pv.classify_states(model).reflex:
        assert np.shares_memory(full.decrements[(r, model.successors(r)[0])], full.occupancy[r])


def hand_built(text: str) -> tuple[int, dict, dict]:
    """A table's mappings read with csv and float(), in the file's column order."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    header, body = [name.strip() for name in rows[0]], rows[1:]
    columns = {name: np.array([float(row[c]) for row in body]) for c, name in enumerate(header) if c}
    occupancy = {int(name[2:]): col for name, col in columns.items() if name.startswith("l_")}
    decrements = {tuple(map(int, name[2:].split("_"))): col for name, col in columns.items() if name.startswith("d_")}
    return len(body) - 1, occupancy, decrements


@pytest.mark.parametrize("case", ["fixture", *range(40)])
def test_hand_built_and_loaded_tables_hold_the_same_bits(case):
    if case == "fixture":
        model, text = fx.dread_disease_model(), fixture_text()
    else:
        model, text = random_table_case(np.random.default_rng(case))
    n, occupancy, decrements = hand_built(text)
    by_hand = pv.IncrementDecrementTable(n=n, occupancy=occupancy, decrements=decrements)
    loaded = pv.load_table(text, model)
    assert table_columns(by_hand) == table_columns(loaded)
    by_hand, loaded = pv.infer_reflex_columns(by_hand, model), pv.infer_reflex_columns(loaded, model)
    assert table_columns(by_hand) == table_columns(loaded)
    assert list(by_hand.occupancy) == list(loaded.occupancy) and list(by_hand.decrements) == list(loaded.decrements)
    want = pv.transition_sequence(loaded, model).probabilities.tobytes()
    assert pv.transition_sequence(by_hand, model).probabilities.tobytes() == want
    assert pv.diagonal_residuals(by_hand, model) == pv.diagonal_residuals(loaded, model)


COUNTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 7.0, 100.0]), st.floats(0.0, 1e6))
SHARES = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.0, 1.0))
FAULTS = st.sampled_from(["nan", "inf", "-inf", "negative", "short", "long", "past-slack", "at-slack", "no-occupancy"])


@st.composite
def faulty_tables(draw):
    """Occupancy and decrement mappings in shuffled orders, with up to three
    faults: NaN, infinite or negative counts, a column one row short or long,
    one state's exits at or just past the 1e-9 count slack, and exits from a
    state with no occupancy column."""
    n = draw(st.integers(1, 4))
    states = draw(st.permutations(range(1, 7)))[:draw(st.integers(1, 6))]
    occupancy = {i: np.array(draw(st.lists(COUNTS, min_size=n + 1, max_size=n + 1))) for i in states}
    pairs = draw(st.lists(st.tuples(st.sampled_from(states), st.integers(1, 7)), unique=True, max_size=10))
    decrements = {}
    for (i, j) in pairs:
        decrements[(i, j)] = occupancy[i] * np.array(draw(st.lists(SHARES, min_size=n + 1, max_size=n + 1))) / 3
    for fault in draw(st.lists(FAULTS, max_size=3)):
        mapping = draw(st.sampled_from([m for m in (occupancy, decrements) if m]))
        key = draw(st.sampled_from(sorted(mapping)))
        column = mapping[key].copy()
        if column.size == 0:  # cut to nothing by earlier "short" faults, so no row is left to fault
            continue
        k = draw(st.integers(0, len(column) - 1))
        if fault in ("nan", "inf", "-inf", "negative"):
            value = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}.get(fault)
            column[k] = -draw(st.floats(1e-300, 1e6)) if value is None else value
            mapping[key] = column
        elif fault in ("short", "long"):
            mapping[key] = column[:-1] if fault == "short" else np.append(column, 1.0)
        elif fault in ("past-slack", "at-slack"):
            i = draw(st.sampled_from(states))
            living = occupancy[i]
            if living.shape != (n + 1,) or not np.isfinite(living).all():
                continue
            edge = living + 1e-9 * np.maximum(1.0, living)
            exit_column = np.where(np.arange(n + 1) == min(k, n), edge, 0.0)
            if fault == "past-slack":
                exit_column[min(k, n)] = np.nextafter(exit_column[min(k, n)], np.inf)
            decrements[(i, draw(st.integers(8, 9)))] = exit_column
        else:
            decrements[(draw(st.integers(10, 12)), 1)] = np.full(n + 1, draw(COUNTS))
    shuffled = draw(st.permutations(list(decrements)))
    return n, occupancy, {pair: decrements[pair] for pair in shuffled}


@settings(max_examples=300, deadline=None)
@given(faulty_tables())
def test_the_table_check_refuses_what_the_column_check_refused(case):
    n, occupancy, decrements = case
    want = reference_table_fault(n, occupancy, decrements)
    try:
        pv.IncrementDecrementTable(n=n, occupancy=occupancy, decrements=decrements)
        got = None
    except Exception as exc:  # the type is compared too
        got = type(exc), str(exc)
    assert got == want


def two_period_identity() -> np.ndarray:
    return np.tile(np.eye(3), (2, 1, 1))


@pytest.mark.parametrize("entries, message", [
    ({(1, 0, 0): 0.5}, "row 1 of Q(1) sums to 0.5, not 1"),
    ({(0, 2, 2): 0.5, (1, 0, 0): 0.5}, "row 3 of Q(0) sums to 0.5, not 1"),
    ({(0, 1, 1): 0.9, (1, 2, 2): 0.5}, "row 3 of Q(1) sums to 0.5, not 1"),
    ({(0, 2, 1): 1.0}, "row 3 of Q(0) sums to 2.0, not 1"),
    ({(1, 1, 1): 1 - 1e-11}, "row 2 of Q(1) sums to 0.99999999999, not 1"),
], ids=["one-row", "tie-names-the-earlier-period", "largest-distance", "two-entries-in-a-row", "just-outside"])
def test_row_sum_fault_is_named(entries, message):
    q = two_period_identity()
    for at, value in entries.items():
        q[at] = value
    with pytest.raises(pv.ValidationError) as caught:
        dense_sequence(q)
    assert str(caught.value) == message


def test_simulate_builds_the_step_tables_once_per_sequence(dread, monkeypatch):
    seq, other = (pv.transition_sequence(dread.table, dread.model) for _ in range(2))
    built = []

    def counting(rows, columns, probabilities, shape):
        built.append(probabilities is seq.probabilities)
        return step_tables(rows, columns, probabilities, shape)

    step_tables = oracle._step_tables
    monkeypatch.setattr(oracle, "_step_tables", counting)
    first = pv.simulate(seq, dread.initial, 500, master_seed=3)
    second = pv.simulate(seq, dread.initial, 500, master_seed=3)
    pv.simulate(other, dread.initial, 10, master_seed=3)
    assert built.count(True) == 1
    assert len(built) == 5  # one initial-distribution table per call, one per sequence
    assert first.paths.tobytes() == second.paths.tobytes()
    assert first.paths.tobytes() == pv.simulate(dread.seq, dread.initial, 500, master_seed=3).paths.tobytes()


def test_build_chain_peak_memory():
    model, text = large_chain_case(n_states=200, horizon=120)
    pv.build_chain(model, text)
    tracemalloc.start()
    try:
        chain = pv.build_chain(model, text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (chain.seq.n, chain.seq.n_states) == (120, 200)
    assert peak <= BUILD_PEAK_BYTES, f"peak {peak / 1e6:.2f} MB"
