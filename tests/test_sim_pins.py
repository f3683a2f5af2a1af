"""Bitwise pins for the simulator's stepping rule.

Every path ``simulate`` draws must stay what it was when
``data/sim_digests.json`` was recorded: the sha256 of the paths, cast to
little-endian int32, is pinned for the fixture chain, the three-state chain
at the seeds ``test_oracle.py`` uses, and a wide N=200 chain with sparse
rows, identity rows and tiny negative diagonals, at several chunk sizes.
The step itself is checked against the dense rule it replaces, and its
memory against the size of the transition matrices.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premval as pv
from premval import oracle

DIGESTS = json.loads((Path(__file__).parent / "data" / "sim_digests.json").read_text(encoding="utf-8"))
WIDE_STATES = 200
WIDE_PATHS = 4_096
WIDE_INITIAL = {1: 0.5, 4: 0.3, 8: 0.2}


def path_digest(paths: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(paths, dtype="<i4").tobytes()).hexdigest()


def wide_sequence(n: int, seed: int = 20261018) -> pv.TransitionSequence:
    """A seeded N=200 chain: 1-4 nonzeros per row, about 15% identity rows
    and about 20% rows whose diagonal is ``1 - total`` in [-1e-12, 0).
    ``transition_sequence`` clamps its diagonals at 0, so rows like these
    reach ``simulate`` only from a hand-built ``TransitionSequence``."""
    rng = np.random.default_rng(seed)
    q = np.zeros((n, WIDE_STATES, WIDE_STATES))
    for k in range(n):
        for i in range(WIDE_STATES):
            kind = rng.random()
            if kind < 0.15:
                q[k, i, i] = 1.0
                continue
            degree = int(rng.integers(1, 4 if kind < 0.35 else 5))
            targets = rng.choice(WIDE_STATES - 1, size=degree, replace=False)
            targets[targets >= i] += 1
            weights = rng.random(degree) + 0.05
            p = weights / weights.sum()
            if kind < 0.35:
                p = p * (1.0 + rng.uniform(1e-13, 9e-13))
                q[k, i, i] = 1.0 - p.sum()
            q[k, i, targets] = p
    return pv.TransitionSequence(q)


def wide_initial() -> np.ndarray:
    initial = np.zeros(WIDE_STATES)
    for state, probability in WIDE_INITIAL.items():
        initial[state - 1] = probability
    return initial


@pytest.fixture(scope="module")
def wide():
    return wide_sequence(DIGESTS["wide"]["n"])


def test_wide_sequence_has_the_rows_it_promises(wide):
    q = wide.matrices
    nonzeros = (q != 0).sum(axis=2)
    diagonal = np.diagonal(q, axis1=1, axis2=2)
    assert nonzeros.min() == 1 and nonzeros.max() == 4
    assert (diagonal == 1.0).any()
    negative = diagonal[diagonal < 0]
    assert negative.size > 0 and negative.min() >= -1e-12


@pytest.mark.parametrize("seed", sorted(DIGESTS["fixture"]["digests"]))
def test_fixture_paths_are_pinned(dread, seed):
    pin = DIGESTS["fixture"]
    ensemble = pv.simulate(dread.seq, dread.initial, pin["n_paths"], int(seed))
    assert path_digest(ensemble.paths) == pin["digests"][seed]


@pytest.mark.parametrize("case", DIGESTS["chain3"], ids=lambda case: f"seed{case['seed']}")
def test_three_state_paths_are_pinned(chain3, case):
    ensemble = pv.simulate(chain3.seq, np.array(case["initial"]), case["n_paths"], case["seed"])
    assert path_digest(ensemble.paths) == case["digest"]


@pytest.mark.parametrize("chunk_size", [1, 17, None], ids=["chunk1", "chunk17", "default"])
def test_wide_paths_are_pinned(wide, chunk_size):
    pin = DIGESTS["wide"]
    chunking = {} if chunk_size is None else {"chunk_size": chunk_size}
    ensemble = pv.simulate(wide, wide_initial(), pin["n_paths"], pin["seed"], **chunking)
    assert path_digest(ensemble.paths) == pin["digest"]


def dense_step(row: np.ndarray, u: float) -> int:
    """The dense rule: count the cumulative sums, last one forced to 1, below u."""
    cumulative = np.cumsum(row)
    cumulative[-1] = 1.0
    return int((cumulative < u).sum())


@st.composite
def rows_and_draws(draw):
    """A few stochastic rows, some with entries in [-1e-12, 0), and draws
    at and beside every cumulative value of every row."""
    n_states = draw(st.integers(1, 12))
    rows = np.zeros((draw(st.integers(1, 4)), n_states))
    for row in rows:
        columns = draw(st.lists(st.integers(0, n_states - 1), min_size=1, max_size=5, unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(columns), max_size=len(columns)))
        row[columns] = np.array(weights) / sum(weights)
        for j in draw(st.lists(st.integers(0, n_states - 1), max_size=3, unique=True)):
            if j not in columns:
                row[j] = -draw(st.floats(1e-16, 1e-12))
    draws = {0.0, *draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3))}
    for value in np.cumsum(rows, axis=1).ravel():
        draws.update((value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf)))
    # Generator.random draws from [0, 1), the only range simulate steps with.
    return rows, sorted(u for u in draws if 0.0 <= u < 1.0)


@settings(max_examples=400, deadline=None)
@given(rows_and_draws())
def test_step_follows_the_dense_rule(case):
    rows, draws = case
    thresholds, lengths = oracle._step_tables(rows[None])
    states = np.repeat(np.arange(rows.shape[0], dtype=np.int16), len(draws))
    u = np.tile(draws, rows.shape[0])
    got = oracle._step(thresholds[0], lengths[0], states, u)
    assert got.tolist() == [dense_step(rows[i], x) for i, x in zip(states, u)]


def test_u_zero_picks_the_first_state_even_with_zero_probability():
    row = np.array([0.0, 0.0, 0.25, 0.75])
    thresholds, lengths = oracle._step_tables(row[None, None, :])
    got = oracle._step(thresholds[0], lengths[0], np.zeros(1, dtype=np.int16), np.array([0.0]))
    assert got.tolist() == [0] == [dense_step(row, 0.0)]


def test_simulate_memory_stays_below_half_the_matrices():
    seq = wide_sequence(120)
    tracemalloc.start()
    try:
        pv.simulate(seq, wide_initial(), WIDE_PATHS, master_seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < seq.matrices.nbytes / 2, f"peak {peak / 1e6:.1f} MB of {seq.matrices.nbytes / 1e6:.1f} MB"
