"""Bitwise pins for the chain built from a table.

A chain must stay what it was when ``data/chain_digests.json`` was
recorded: the sha256 of Q, of D, of every completed table column (after
reflex inference) and of the ``diagonal_residuals`` items, for the fixture,
the three-state chain, 200 seeded ``random_table_case`` tables and one
wider generated table with graduated counts, reflex states feeding reflex
states, and periods in which a state is unoccupied.  A malformed table
must keep naming the fault that the per-period build named first.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import premval as pv
import premval.fixtures as fx
from chains import THREE_STATE_TABLE, make_three_state_model, random_table_case

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
