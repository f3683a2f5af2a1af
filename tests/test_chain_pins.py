"""Bitwise pins for the chain built from a table.

A chain must stay what it was when ``data/chain_digests.json`` was
recorded: the sha256 of Q, of D, of every completed table column (after
reflex inference) and of the ``diagonal_residuals`` items, for the fixture,
the three-state chain, 200 seeded ``random_table_case`` tables and one
wider generated table with graduated counts, reflex states feeding reflex
states, and periods in which a state is unoccupied.  A malformed table
must keep naming the fault that the per-period build named first, and a
malformed table or sequence the fault its per-column checks named first.
The stacked reflex inference and Q build are checked against the
per-state loops they replaced, inference's re-check of the reflex states'
outflow against a check of every state, and the check of Q against the size
of Q.
"""

import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import premval as pv
import premval.fixtures as fx
from chains import THREE_STATE_TABLE, dense_sequence, make_three_state_model, random_table_case, reference_table_fault

DIGESTS = json.loads((Path(__file__).parent / "data" / "chain_digests.json").read_text(encoding="utf-8"))


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _f8(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def chain_digests(model: pv.StateModel, text: str) -> dict[str, str]:
    """sha256 of Q, D, the completed table columns and the diagonal residuals."""
    table = pv.infer_reflex_columns(pv.load_table(text, model), model)
    seq = pv.transition_sequence(table, model)
    dist = pv.distribution_matrix(seq, pv.unit_distribution(model.n_states, model.initial_state))
    columns = [(f"l_{i}", col) for i, col in sorted(table.occupancy.items())]
    columns += [(f"d_{i}_{j}", col) for (i, j), col in sorted(table.decrements.items())]
    residuals = [[k, state, gap] for (k, state), gap in pv.diagonal_residuals(table, model).items()]
    return {
        "q": _sha(_f8(seq.matrices)),
        "d": _sha(_f8(dist.matrix)),
        "table": _sha(*(name.encode() + _f8(col) for name, col in columns)),
        "residuals": _sha(json.dumps(residuals).encode()),
    }


def random_case_digest(seed: int) -> str:
    """One digest over the four of ``chain_digests`` for a seeded random table."""
    model, text = random_table_case(np.random.default_rng(seed))
    return _sha(json.dumps(chain_digests(model, text), sort_keys=True).encode())


def wide_table_case(seed: int = 20261018, n_states: int = 40, horizon: int = 30):
    """A seeded forward chain with graduated counts.

    Non-absorbing states are laid out in a random order with shuffled ids;
    each is entered from an earlier one (from the one before it when that
    is a reflex state) and links only to later states or to one of three
    absorbing states, so a state deep in the order is unoccupied in the
    first periods.  About half are reflex states (one successor), so runs
    of reflex states feed each other.  In about 10% of (state, period)
    pairs every occupant leaves, which empties states with no later
    inflow.  One reflex state's occupancy is tabulated as well.
    """
    rng = np.random.default_rng(seed)
    ids = [int(s) for s in rng.permutation(n_states) + 1]
    order, absorbing = ids[:-3], ids[-3:]
    reflex = {s for s in order[1:-1] if rng.random() < 0.5}
    out: dict[int, list[int]] = {s: [] for s in order}
    for pos, s in enumerate(order[1:], 1):
        parents = [p for p in order[:pos] if p not in reflex or not out[p]]
        if order[pos - 1] in reflex:
            parents = [order[pos - 1]]
        out[parents[int(rng.integers(len(parents)))]].append(s)
    for pos, s in enumerate(order):
        later = [j for j in order[pos + 1:] + absorbing if j not in out[s]]
        extra = int(not out[s]) if s in reflex else max(int(rng.integers(0, 3)), int(not out[s]))
        out[s] = sorted(out[s] + [int(j) for j in rng.choice(later, size=min(extra, len(later)), replace=False)])
    model = pv.StateModel(n_states=n_states, initial_state=order[0], reflex=frozenset(reflex),
                          transitions=frozenset((i, j) for i, js in out.items() for j in js))

    transient = sorted(s for s in order if s not in reflex)
    tabulated = transient + [min(reflex)]
    pairs = sorted((i, j) for i in transient for j in out[i])
    counts = dict.fromkeys(range(1, n_states + 1), 0.0)
    counts[order[0]] = 123_456.789
    rows = []
    for k in range(horizon + 1):
        flows = {}
        if k < horizon:
            for i in transient:
                hazards = rng.uniform(0.01, 1.0, len(out[i]))
                hazards /= hazards.sum()
                if rng.random() >= 0.1:
                    hazards *= rng.uniform(0.05, 0.6)
                flows.update({(i, j): counts[i] * h for j, h in zip(out[i], hazards)})
        values = [counts[i] for i in tabulated] + [flows.get(pair, 0.0) for pair in pairs]
        rows.append(",".join([str(k)] + [repr(float(v)) for v in values]) + "\n")
        nxt = dict.fromkeys(counts, 0.0)
        for s in absorbing:
            nxt[s] = counts[s]
        for i in transient:
            nxt[i] = max(counts[i] - sum(flows.get((i, j), 0.0) for j in out[i]), 0.0)
        for r in reflex:
            nxt[out[r][0]] += counts[r]
        for (i, j), moved in flows.items():
            nxt[j] += moved
        counts = nxt
    header = ["k"] + [f"l_{i}" for i in tabulated] + [f"d_{i}_{j}" for (i, j) in pairs]
    return model, ",".join(header) + "\n" + "".join(rows)


@pytest.fixture(scope="module")
def wide():
    return wide_table_case()


def test_wide_table_has_the_features_it_promises(wide):
    model, text = wide
    classes = pv.classify_states(model)
    raw = pv.load_table(text, model)
    table = pv.infer_reflex_columns(raw, model)
    assert any(i in classes.reflex and j not in raw.occupancy
               for (i, j) in model.transitions if j in classes.reflex)
    empty = [i for i in classes.transient if (table.occupancy[i][:-1] == 0.0).any()]
    assert len(empty) >= 3
    assert any((table.occupancy[i][:-1] > 0.0).any() for i in empty)
    assert any(i in raw.occupancy for i in classes.reflex)


def test_fixture_chain_is_pinned():
    model = fx.dread_disease_model()
    text = Path(fx.bundled_path(fx.TABLE_FILE)).read_text(encoding="utf-8")
    assert chain_digests(model, text) == DIGESTS["fixture"]


def test_three_state_chain_is_pinned():
    assert chain_digests(make_three_state_model(), THREE_STATE_TABLE) == DIGESTS["chain3"]


def test_wide_chain_is_pinned(wide):
    assert chain_digests(*wide) == DIGESTS["wide"]


def test_random_chains_are_pinned():
    pins = DIGESTS["random"]
    changed = [seed for seed, digest in enumerate(pins) if random_case_digest(seed) != digest]
    assert len(pins) == 200 and changed == []


# Each table holds two faults at different k, each inside the 1e-9 count
# slack the table accepts but outside the 1e-12 probability tolerance.  The
# per-period build named the first fault in state order, then k, then
# successor order, then the row sum at that k; so must the column build.
FAULT_MODEL = pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (1, 3), (2, 3)}))
OVER = 100 * (1 + 1e-10)


def fault_table(faults: dict) -> str:
    """Columns l_1, l_2, d_1_2, d_1_3, d_2_3 over k = 0..4, with the given
    {(k, column): count} entries and everything else 100 lives, no exits."""
    rows = []
    for k in range(5):
        row = [100.0, 100.0, 0.0, 0.0, 0.0]
        for (at, column), count in faults.items():
            if at == k:
                row[column] = count
        rows.append(f"{k}," + ",".join(repr(v) for v in row) + "\n")
    return "k,l_1,l_2,d_1_2,d_1_3,d_2_3\n" + "".join(rows)


def probability_fault(k: int, pair: str) -> str:
    return rf"^probability 1\.0000000001 outside \[0, 1\] at k={k}, transition \({pair}\)$"


@pytest.mark.parametrize("faults, message", [
    ({(1, 3): OVER, (3, 2): OVER}, probability_fault(1, "1, 3")),
    ({(1, 2): 60.0, (1, 3): 40 + 1e-8, (3, 2): OVER}, r"^exit probabilities exceed 1 at k=1, state 1$"),
    ({(1, 2): OVER, (1, 3): 1e-9}, probability_fault(1, "1, 2")),
    ({(1, 2): 1e-9, (1, 3): OVER}, probability_fault(1, "1, 3")),
    ({(1, 4): OVER, (3, 2): OVER}, probability_fault(3, "1, 2")),
], ids=["smaller-k-later-successor", "row-sum-at-smaller-k", "successor-before-row-sum",
        "faulty-successor-after-clean-one", "state-before-k"])
def test_first_fault_is_named(faults, message):
    table = pv.load_table(fault_table(faults), FAULT_MODEL)
    with pytest.raises(pv.ValidationError, match=message):
        pv.transition_sequence(table, FAULT_MODEL)


# The table is checked column by column in ``_columns`` order (occupancy
# by state, then decrements by transition); within a column the length
# comes first, then non-finite counts, then negative ones.
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("occupancy, decrements, message", [
    ({1: [1.0, NAN, 1.0], 2: [1.0, 1.0]}, {}, r"^non-finite count in column 'l_1'$"),
    ({1: [1.0, 1.0], 2: [1.0, NAN, 1.0]}, {}, r"^column 'l_1' has 2 rows, expected 3$"),
    ({1: [1.0, -1.0, 1.0]}, {(1, 2): [NAN, 0.0, 0.0]}, r"^negative count at k=1, column 'l_1'$"),
    ({1: [1.0, 1.0, 1.0]}, {(1, 2): [0.0, -1.0, -2.0]}, r"^negative count at k=1, column 'd_1_2'$"),
    ({1: [-1.0, INF, 1.0]}, {}, r"^non-finite count in column 'l_1'$"),
    ({3: [1.0, 1.0, -INF]}, {(1, 2): [-1.0, 0.0, 0.0]}, r"^non-finite count in column 'l_3'$"),
    ({1: [1.0, 1.0, 1.0]}, {(1, 2): [0.0, 0.0, -1.0], (2, 3): [1.0, 1.0]},
     r"^negative count at k=2, column 'd_1_2'$"),
], ids=["nan-before-short", "short-before-nan", "negative-before-later-nan", "first-negative-k",
        "nan-before-negative-in-column", "occupancy-before-decrement", "negative-before-later-short"])
def test_first_table_fault_is_named(occupancy, decrements, message):
    with pytest.raises(pv.ValidationError, match=message):
        pv.IncrementDecrementTable(n=2, occupancy={i: np.array(c) for i, c in occupancy.items()},
                                   decrements={pair: np.array(c) for pair, c in decrements.items()})


def reference_outflow_fault(occupancy: dict, decrements: dict) -> "str | None":
    """The per-state outflow loop that the stacked table check replaced."""
    outflow: dict = {}
    for (i, _j), col in decrements.items():
        outflow[i] = outflow.get(i, 0) + col
    for i, l_col in occupancy.items():
        if i in outflow:
            bad = outflow[i] > l_col + 1e-9 * np.maximum(1.0, l_col)
            if np.any(bad):
                return f"decrement exceeds occupancy at k={int(np.argmax(bad))} for state {i}"
    return None


# Exit shares of one state are drawn near a total of 1 and stretched around
# the table's 1e-9 slack, so their order of addition decides borderline sums.
SHARES = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 1.0]), st.floats(0.0, 1.0))
SLACK_STRETCHES = st.sampled_from([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 5e-10, 1.0 - 1e-16])


@st.composite
def outflow_tables(draw):
    """Occupancy and decrement mappings in shuffled insertion orders; some
    decrements leave states with no occupancy column."""
    n = draw(st.integers(1, 3))
    states = draw(st.permutations(range(1, 6)))[:draw(st.integers(0, 5))]
    occupancy = {i: np.array(draw(st.lists(COUNTS, min_size=n + 1, max_size=n + 1))) for i in states}
    pairs = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), unique=True, max_size=10))
    decrements = {}
    for (i, j) in pairs:
        shares = np.array(draw(st.lists(SHARES, min_size=n + 1, max_size=n + 1)))
        decrements[(i, j)] = occupancy.get(i, np.ones(n + 1)) * shares * draw(SLACK_STRETCHES)
    return n, occupancy, decrements


@settings(max_examples=200, deadline=None)
@given(outflow_tables())
def test_outflow_check_matches_the_per_state_loop(case):
    n, occupancy, decrements = case
    want = reference_outflow_fault(occupancy, decrements)
    try:
        pv.IncrementDecrementTable(n=n, occupancy=occupancy, decrements=decrements)
        got = None
    except pv.ValidationError as exc:
        got = str(exc)
    assert got == want


# 24.56 + 54.88 + 37.63 and 54.88 + 37.63 + 24.56 round to neighbouring
# floats on either side of 117.06999988292999 plus its 1e-9 slack, so the
# outcome depends on the order in which the exits are added.
BORDERLINE_EXITS = {(1, 2): 24.56, (1, 3): 54.88, (1, 4): 37.63}


@pytest.mark.parametrize("order, fault", [
    ([(1, 2), (1, 3), (1, 4)], None),
    ([(1, 3), (1, 4), (1, 2)], "decrement exceeds occupancy at k=0 for state 1"),
], ids=["accepted", "refused"])
def test_outflow_is_added_in_mapping_order(order, fault):
    occupancy = {1: np.array([117.06999988292999, 0.0])}
    decrements = {pair: np.array([BORDERLINE_EXITS[pair], 0.0]) for pair in order}
    assert reference_outflow_fault(occupancy, decrements) == fault
    try:
        pv.IncrementDecrementTable(n=1, occupancy=occupancy, decrements=decrements)
        got = None
    except pv.ValidationError as exc:
        got = str(exc)
    assert got == fault


@pytest.mark.parametrize("cell", ["1_000", "0x10", "1e5000", "1,5", " 3.5 ", "nan", "", "٣", "1e-400", "0b1"])
def test_table_cells_parse_as_float_does(model3, cell):
    """A cell is read as float() reads it, and refused in its row."""
    text = f"k,l_1,d_1_2\n0,100,10\n1,{cell},0\n2,81,0\n"
    if "," in cell:
        with pytest.raises(pv.ParseError, match="^row 1 has 4 fields, expected 3$"):
            pv.load_table(text, model3)
        return
    try:
        want = float(cell)
    except ValueError as exc:
        with pytest.raises(pv.ParseError, match=f"^row 1: {re.escape(str(exc))}$"):
            pv.load_table(text, model3)
        return
    if not np.isfinite(want):
        with pytest.raises(pv.ValidationError, match="^non-finite count in column 'l_1'$"):
            pv.load_table(text, model3)
        return
    got = pv.load_table(text, model3).occupancy[1][1]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def two_period_identity() -> np.ndarray:
    return np.tile(np.eye(3), (2, 1, 1))


@pytest.mark.parametrize("entries, message", [
    ({(1, 0, 1): NAN}, r"^non-finite transition probability$"),
    ({(1, 0, 1): -INF}, r"^non-finite transition probability$"),
    ({(1, 0, 1): INF}, r"^non-finite transition probability$"),
    ({(0, 0, 0): 2.0, (1, 2, 2): NAN}, r"^non-finite transition probability$"),
    ({(1, 0, 1): 1e308}, r"^transition probability outside \[0, 1\]$"),
    ({(1, 0, 1): -1e-11}, r"^transition probability outside \[0, 1\]$"),
], ids=["nan", "-inf", "+inf", "nan-after-out-of-range", "huge-finite", "small-negative"])
def test_first_sequence_fault_is_named(entries, message):
    q = two_period_identity()
    for at, value in entries.items():
        q[at] = value
    with pytest.raises(pv.ValidationError, match=message):
        dense_sequence(q)


def test_empty_sequence_accepted():
    assert dense_sequence(np.zeros((0, 3, 3))).n == 0


def test_negative_zero_inflow_gives_positive_zero_occupancy(model3):
    table = pv.infer_reflex_columns(pv.load_table("k,l_1,d_1_2\n0,100,-0\n1,90,9\n2,81,0\n", model3), model3)
    assert table.occupancy[2].tolist() == [0.0, 0.0, 9.0]
    assert not np.signbit(table.occupancy[2]).any()
    assert not np.signbit(table.decrements[(2, 3)]).any()


def test_sequence_check_allocates_no_full_size_temporary():
    states = np.arange(200)
    q = np.zeros((120, 200, 200))
    q[:, states, states] = 0.75
    q[:, states, (states + 1) % 200] = 0.25
    tracemalloc.start()
    try:
        dense_sequence(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < q.nbytes / 32, f"peak {peak / 1e6:.2f} MB of {q.nbytes / 1e6:.1f} MB"


# The per-state and per-(k, reflex state) loops that the stacked builds
# replaced, kept as the reference: the stacked builds must give the same
# bits, or refuse with the same message.
def reference_inferred_columns(table: pv.IncrementDecrementTable, model: pv.StateModel) -> tuple[dict, dict]:
    """The occupancy and decrement columns of the inferred table, unchecked."""
    classes = pv.classify_states(model)
    occupancy = {i: col.copy() for i, col in table.occupancy.items()}
    decrements = {pair: col.copy() for pair, col in table.decrements.items()}
    n = table.n

    predecessors: dict[int, list[int]] = {r: [] for r in sorted(classes.reflex)}
    for (i, r) in sorted(model.transitions):
        if r in predecessors:
            predecessors[r].append(i)
    for r, feeders in predecessors.items():
        if not feeders:
            raise pv.ValidationError(f"reflex state {r} has no inbound transition; its occupancy cannot be inferred")

    todo = [r for r in predecessors if r not in occupancy]
    for r in todo:
        occupancy[r] = np.zeros(n + 1)
        for i in predecessors[r]:
            if (i, r) not in decrements and i not in classes.reflex:
                raise pv.ValidationError(f"no decrement column for transition ({i}, {r})")
    inflows = {r: [decrements[(i, r)] if (i, r) in decrements else occupancy[i] for i in predecessors[r]] for r in todo}
    for k in range(1, n + 1):
        for r, columns in inflows.items():
            occupancy[r][k] = sum(column[k - 1] for column in columns)

    for r in predecessors:
        decrements.setdefault((r, model.successors(r)[0]), occupancy[r].copy())
    return occupancy, decrements


def reference_infer_reflex_columns(table: pv.IncrementDecrementTable, model: pv.StateModel):
    occupancy, decrements = reference_inferred_columns(table, model)
    return pv.IncrementDecrementTable(n=table.n, occupancy=occupancy, decrements=decrements,
                                      entry_age=table.entry_age)


def reference_transition_sequence(table: pv.IncrementDecrementTable, model: pv.StateModel):
    classes = pv.classify_states(model)
    n, n_states = table.n, model.n_states
    q = np.zeros((n, n_states, n_states))
    for i in sorted(classes.absorbing):
        q[:, i - 1, i - 1] = 1.0
    successors = {s: model.successors(s) for s in range(1, n_states + 1)}
    for i in sorted(classes.reflex):
        q[:, i - 1, successors[i][0] - 1] = 1.0
    for i in sorted(classes.transient):
        if i not in table.occupancy:
            raise pv.ValidationError(f"missing occupancy column 'l_{i}'")
        for j in successors[i]:
            if (i, j) not in table.decrements:
                raise pv.ValidationError(f"missing decrement column 'd_{i}_{j}'")
        living = table.occupancy[i][:n]
        raw = np.array([np.divide(table.decrements[(i, j)][:n], living, out=np.zeros(n), where=living > 0.0)
                        for j in successors[i]])
        p = np.clip(raw, 0.0, 1.0)
        diagonal = 1.0 - sum(p)
        faults = np.vstack([(raw < -1e-12) | (raw > 1 + 1e-12), diagonal < -1e-12])
        if faults.any():
            k, c = (int(x) for x in np.argwhere(faults.T)[0])
            if c < len(successors[i]):
                raise pv.ValidationError(f"probability {float(raw[c, k])!r} outside [0, 1] at k={k}, "
                                         f"transition ({i}, {successors[i][c]})")
            raise pv.ValidationError(f"exit probabilities exceed 1 at k={k}, state {i}")
        q[:, i - 1, np.array(successors[i]) - 1] = p.T
        q[:, i - 1, i - 1] = np.maximum(diagonal, 0.0)
    return dense_sequence(q)


COUNTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 7.0, 100.0]), st.floats(0.0, 1e6))
# Exits scaled past the occupancy by less than the table's 1e-9 slack:
# within, at and beyond the 1e-12 probability tolerance.
STRETCHES = st.sampled_from([1.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-11, 1.0 + 1e-10])


@st.composite
def reflex_tables(draw):
    """A model of transient, reflex and absorbing states with shuffled ids,
    and a hand-built table for it.  Reflex states may feed each other, and
    two of them may form a cycle fed from a transient state.  Counts
    include zero occupancy, -0.0 and exits that round above the occupancy;
    one column may be missing."""
    n_states = draw(st.integers(3, 8))
    ids = draw(st.permutations(range(1, n_states + 1)))
    others = ids[draw(st.integers(1, 2)):]
    reflex = set(draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others) - 1)))
    transient = [s for s in others if s not in reflex]
    out = {i: draw(st.lists(st.sampled_from([j for j in ids if j != i]), min_size=1, max_size=3, unique=True))
           for i in transient}
    out.update({r: [draw(st.sampled_from([j for j in ids if j != r]))] for r in sorted(reflex)})
    if len(reflex) >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(sorted(reflex)), min_size=2, max_size=2, unique=True))
        out[a], out[b] = [b], [a]
        feeder = draw(st.sampled_from(transient))
        out[feeder] = sorted(set(out[feeder]) | {a})
    for r in sorted(reflex):
        if not any(r in js for js in out.values()):
            feeder = draw(st.sampled_from(transient))
            out[feeder] = sorted(set(out[feeder]) | {r})
    model = pv.StateModel(n_states=n_states, reflex=frozenset(reflex),
                          transitions=frozenset((i, j) for i, js in out.items() for j in js))

    n = draw(st.integers(1, 5))
    occupancy, decrements = {}, {}
    for i in transient:
        living = np.array(draw(st.lists(COUNTS, min_size=n + 1, max_size=n + 1)))
        exits = np.zeros((len(out[i]), n + 1))
        for k, lives in enumerate(living):
            if lives == 0.0:
                exits[:, k] = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-10]),
                                            min_size=len(out[i]), max_size=len(out[i])))
                continue
            hazards = np.array(draw(st.lists(st.one_of(st.sampled_from([-0.0, 1.0]), st.floats(0.0, 1.0)),
                                             min_size=len(out[i]), max_size=len(out[i]))))
            exits[:, k] = lives * hazards / max(1.0, hazards.sum()) * draw(STRETCHES)
        occupancy[i] = living
        decrements.update({(i, j): exits[c] for c, j in enumerate(out[i])})
    for r in sorted(reflex):
        if draw(st.integers(0, 3)) == 0:
            occupancy[r] = np.array(draw(st.lists(COUNTS, min_size=n + 1, max_size=n + 1)))
    if draw(st.integers(0, 5)) == 0:
        dropped = draw(st.sampled_from(sorted(occupancy) + sorted(decrements)))
        occupancy.pop(dropped, None)
        decrements.pop(dropped, None)
    return model, pv.IncrementDecrementTable(n=n, occupancy=occupancy, decrements=decrements)


def outcome(build, table, model):
    """What ``build`` returns, or the message of the ValidationError it raises."""
    try:
        return build(table, model)
    except pv.ValidationError as exc:
        return str(exc)


def table_columns(table: pv.IncrementDecrementTable) -> list:
    return ([(f"l_{i}", col.tobytes()) for i, col in sorted(table.occupancy.items())]
            + [(f"d_{i}_{j}", col.tobytes()) for (i, j), col in sorted(table.decrements.items())])


@settings(max_examples=400, deadline=None)
@given(reflex_tables())
def test_stacked_builds_match_the_per_state_loops(case):
    model, table = case
    got = outcome(pv.infer_reflex_columns, table, model)
    want = outcome(reference_infer_reflex_columns, table, model)
    if isinstance(want, str):
        assert got == want
        got = want = table
    else:
        assert table_columns(got) == table_columns(want)
    got = outcome(pv.transition_sequence, got, model)
    want = outcome(reference_transition_sequence, want, model)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.matrices.tobytes() == want.matrices.tobytes()


@st.composite
def reflex_exit_tables(draw):
    """A ``random_table_case`` table or a ``reflex_tables`` one, rebuilt with
    extra decrements out of some reflex states, tabulated or inferred, to any
    state: zero, fractions of the occupancy inference gives the state
    (stretched as ``reflex_tables`` stretches exits), or free counts.  An
    extra decrement may be the one inference would add, which it then keeps.
    Tables the constructor refuses are skipped."""
    if draw(st.booleans()):
        model, text = random_table_case(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
        table = pv.load_table(text, model)
    else:
        model, table = draw(reflex_tables())
    try:
        inferred = pv.infer_reflex_columns(table, model).occupancy
    except pv.ValidationError:
        inferred = {}
    decrements = dict(table.decrements)
    reflex = sorted(model.reflex)
    for r in draw(st.lists(st.sampled_from(reflex), unique=True)) if reflex else []:
        for j in draw(st.lists(st.integers(1, model.n_states).filter(lambda j: j != r), min_size=1,
                               max_size=2, unique=True)):
            share = draw(st.one_of(st.sampled_from([0.0, -0.0, 1e-10, 0.5, 1.0]), st.floats(0.0, 1.0)))
            base = inferred.get(r, np.ones(table.n + 1))
            counts = draw(st.one_of(st.just(base * share * draw(STRETCHES)),
                                    st.lists(COUNTS, min_size=table.n + 1, max_size=table.n + 1).map(np.array)))
            decrements[(r, j)] = counts
    try:
        return model, pv.IncrementDecrementTable(n=table.n, occupancy=dict(table.occupancy), decrements=decrements)
    except pv.ValidationError:
        assume(False)


def fully_rechecked(table: pv.IncrementDecrementTable, model: pv.StateModel):
    """What inference gives when every state's outflow is checked again: the
    type and message of the fault, or the inferred columns."""
    try:
        occupancy, decrements = reference_inferred_columns(table, model)
    except pv.ValidationError as exc:
        return pv.ValidationError, str(exc)
    fault = reference_table_fault(table.n, occupancy, decrements)
    return fault or table_columns(pv.IncrementDecrementTable(n=table.n, occupancy=occupancy, decrements=decrements))


@settings(max_examples=400, deadline=None)
@given(reflex_exit_tables())
def test_inference_refuses_what_a_full_recheck_refuses(case):
    model, table = case
    try:
        got = table_columns(pv.infer_reflex_columns(table, model))
    except pv.ValidationError as exc:
        got = type(exc), str(exc)
    assert got == fully_rechecked(table, model)
