"""The distinct-path table behind the estimators.

``mc_pv``, ``mc_premium`` and ``empirical_distribution`` sum and count each
distinct simulated path once and gather the results by each path's index
into the table.  Every total, estimate and frequency must equal, bit for
bit, what a pass over every path gives (``chains.reference_path_totals``
and ``chains.reference_empirical_distribution``), whatever the path layout
and the states' integer type, and whether the table is built or given up.
An ensemble's first estimator call builds the table and keeps it for every
later call.  The table must hold exactly the ensemble's paths, the table
kept for 200 000 fixture paths little more than its index and distinct
paths, and the estimators must read states only through it, on the
calling thread.  The table is given up exactly when the distinct paths
pass its limit, and on 4 096 paths of an N=200 chain at its first key.
"""

import ast
import inspect
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premval as pv
from premval import oracle
from chains import random_chain, reference_empirical_distribution, reference_path_totals, wide_initial, wide_sequence

FIXTURE_PATHS = 200_000
#: Bytes the kept table may hold beyond its index and its distinct paths.
HELD_SLACK = 16_384
#: Bytes its build may hold at once beyond two indexes: the keys and their
#: sorted copy are as large as an index, and a renumbering's flags are one
#: byte a path.
BUILD_SLACK = 500_000
#: The share of distinct prefixes that makes the table behave so.
MODES = {"default": oracle._DISTINCT_SHARE, "table": 1.0, "given-up": 0.0}


def estimates(ensemble, cash, discount, pay, offsets, m, n_states) -> list[str]:
    """``float.hex`` of mc_pv, mc_premium and the occupancy frequencies."""
    pv_estimate = pv.mc_pv(ensemble, cash, discount)
    premium = pv.mc_premium(ensemble, pv.CashflowMatrix(np.abs(cash.matrix)), discount, pay, offsets, m)
    values = [pv_estimate.mean, pv_estimate.std_error, premium.mean, premium.std_error]
    values += pv.empirical_distribution(ensemble, n_states).ravel().tolist()
    return [float(x).hex() for x in values]


def reference_estimates(*args) -> list[str]:
    """``estimates`` with the totals and counts taken over every path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_path_totals", reference_path_totals)
        patch.setattr(pv, "empirical_distribution", reference_empirical_distribution)
        return estimates(*args)


def everywhere(n_states: int) -> pv.ArrivalOffsets:
    """Every state reachable at time 0, so a pay state collects from k = 0."""
    return pv.ArrivalOffsets({s: 0 for s in range(1, n_states + 1)}, initial_state=1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2_500), st.sampled_from(["path-major", "time-major"]),
       st.sampled_from(["int16", "int64", "uint64"]), st.sampled_from(sorted(MODES)))
def test_estimators_match_the_full_pass(seed, n_paths, layout, dtype, mode):
    rng = np.random.default_rng(seed)
    seq, initial, cash, discount = random_chain(rng)
    n_states = seq.n_states
    start = int(np.flatnonzero(initial)[0]) + 1
    pay = {start, *(int(s) for s in rng.choice(np.arange(1, n_states + 1), size=2))}
    m = int(rng.integers(1, seq.n + 1))
    paths = pv.simulate(seq, initial, n_paths, seed).paths.astype(dtype)
    if layout == "path-major":
        paths = np.ascontiguousarray(paths)
    ensemble = pv.PathEnsemble(paths, master_seed=seed)
    args = (ensemble, cash, discount, pay, everywhere(n_states), m, n_states)
    want = reference_estimates(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_DISTINCT_SHARE", MODES[mode])
        # The first mc_pv builds the table or gives it up; every later call reads what it kept.
        first = estimates(*args)
        again = estimates(*args)
    assert first == want and again == want
    index = vars(ensemble)["_distinct"][2]
    if mode == "table":
        assert index is not None
    elif mode == "given-up":
        assert index is None


@pytest.mark.parametrize("dtype", ["int16", "int32", "int64", "uint64"])
def test_keys_are_exact_for_every_integer_type(dtype):
    """Two paths that part only at time 19, where the key of a prefix of
    sevens passes 2^53: in float64 arithmetic their keys would round together."""
    paths = np.full((2, 20), 7, dtype=dtype)
    paths[1, 19] = 6
    distinct, index = oracle._distinct_columns(paths.T, 7, 2)
    assert distinct.shape == (20, 2)
    np.testing.assert_array_equal(distinct[:, index], paths.T)


@pytest.mark.parametrize("dtype, top", [("int64", 2 ** 62 + 1), ("int64", 2 ** 63 - 1), ("uint64", 2 ** 63 + 5)])
def test_states_near_2_63_give_the_table_up(dtype, top):
    """No renumbered key has room for one more such state: the table is given up, not overflowed."""
    paths = np.array([[1, 2, 3], [1, top, 3], [2, 2, 3]], dtype=dtype)
    assert oracle._distinct_columns(paths.T, top, 3) is None


def test_large_states_are_renumbered_at_every_step():
    rng = np.random.default_rng(2)
    paths = rng.choice(np.array([1, 2 ** 40, 2 ** 41], dtype=np.int64), size=(500, 12))
    distinct, index = oracle._distinct_columns(paths.T, 2 ** 41, 500)
    assert distinct.shape[1] == len(np.unique(paths, axis=0))
    np.testing.assert_array_equal(distinct[:, index], paths.T)


def gives_up_exactly_past_the_limit(states: np.ndarray):
    """``_distinct_columns`` of ``states`` gives up, at limits on either
    side of its distinct columns' count and below it, exactly when that
    count passes the limit."""
    distinct = np.unique(states, axis=1).shape[1]
    for limit in sorted({0, 1, distinct // 4, distinct // 2, distinct - 1, distinct, distinct + 1}):
        given_up = oracle._distinct_columns(states, int(states.max()), limit) is None
        assert given_up == (distinct > limit), f"{distinct} distinct columns, limit {limit}"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2_500), st.sampled_from(["int16", "int64", "uint64"]))
def test_the_table_is_given_up_exactly_past_the_limit(seed, n_paths, dtype):
    seq, initial, _, _ = random_chain(np.random.default_rng(seed))
    gives_up_exactly_past_the_limit(pv.simulate(seq, initial, n_paths, seed).paths.T.astype(dtype))


@pytest.mark.parametrize("values, shape", [([1, 2 ** 40, 2 ** 41], (12, 500)), ([1, 2 ** 15, 2 ** 16], (30, 2_000))],
                         ids=["one-row-a-key", "three-rows-a-key"])
@pytest.mark.parametrize("prototypes", [None, 40])
def test_wide_states_are_given_up_exactly_past_the_limit(values, shape, prototypes):
    """States so large that a key holds one or three rows, so the keys are
    renumbered many times, on paths that are nearly all distinct or that
    repeat a few."""
    rng = np.random.default_rng(3)
    states = rng.choice(np.array(values, dtype=np.int64), size=(shape[0], prototypes or shape[1]))
    if prototypes:
        states = states[:, rng.integers(0, prototypes, shape[1])]
    gives_up_exactly_past_the_limit(states)


def test_a_wide_chains_table_is_given_up_at_its_first_key(monkeypatch):
    """4 096 paths on an N=200, n=120 chain: the eight spread rows of the
    first key already part more paths than a quarter of them."""
    ensemble = pv.simulate(wide_sequence(120), wide_initial(), 4_096, master_seed=1)
    renumbered, counts = oracle._renumbered, []

    def counting(keys, limit):
        counts.append(keys.size)
        return renumbered(keys, limit)

    monkeypatch.setattr(oracle, "_renumbered", counting)
    assert oracle._distinct_paths(ensemble, 200)[1] is None
    assert counts == [4_096]


def fixture_ensemble(dread, n_paths=FIXTURE_PATHS, seed=20261018):
    return pv.simulate(dread.seq, dread.initial, n_paths, seed)


def test_the_table_holds_each_fixture_path_once(dread):
    ensemble = fixture_ensemble(dread)
    distinct, index = oracle._distinct_paths(ensemble, dread.model.n_states)
    assert distinct.flags.c_contiguous and distinct.shape[0] == ensemble.n + 1
    assert np.unique(distinct, axis=1).shape == distinct.shape
    # Around 1 150 of the 200 000 paths are distinct.
    assert distinct.shape[1] < FIXTURE_PATHS * oracle._DISTINCT_SHARE
    np.testing.assert_array_equal(distinct[:, index], ensemble.paths.T)
    assert oracle._distinct_paths(ensemble, dread.model.n_states)[0] is distinct


def test_the_first_read_builds_the_table_and_keeps_it(dread):
    ensemble = fixture_ensemble(dread, 4_000)
    benefit = pv.accelerated_benefit(0.5, dread.table.n)
    first = pv.mc_pv(ensemble, benefit, dread.discount)
    kept = vars(ensemble)["_distinct"]
    assert kept[2] is not None
    assert pv.mc_pv(ensemble, benefit, dread.discount) == first
    assert vars(ensemble)["_distinct"] is kept
    assert oracle._distinct_paths(ensemble, dread.model.n_states)[0] is kept[1]


def test_the_table_is_given_up_past_its_share(dread):
    """Uniform random states make nearly every path distinct: the estimators read every path."""
    rng = np.random.default_rng(5)
    paths = rng.integers(1, dread.model.n_states + 1, (5_000, dread.table.n + 1), dtype=np.int16)
    ensemble = pv.PathEnsemble(paths, master_seed=0)
    states, index = oracle._distinct_paths(ensemble, dread.model.n_states)
    assert index is None and np.shares_memory(states, paths)
    benefit = pv.accelerated_benefit(0.5, dread.table.n)
    args = (ensemble, benefit, dread.discount, {1, 2}, dread.offsets, dread.table.n, dread.model.n_states)
    assert estimates(*args) == reference_estimates(*args)


@pytest.mark.parametrize("layout", ["path-major", "time-major"])
@pytest.mark.parametrize("estimator", ["mc_pv", "mc_premium", "empirical_distribution"])
def test_states_above_the_width_are_named_on_every_call(chain3, claim_cash3, flat_discount3, estimator, layout,
                                                        monkeypatch):
    """The largest state is kept on the ensemble after the first call, and a fault is still named."""
    monkeypatch.setattr(oracle, "_DISTINCT_SHARE", 1.0)
    estimate = {
        "mc_pv": lambda e: pv.mc_pv(e, claim_cash3, flat_discount3),
        "mc_premium": lambda e: pv.mc_premium(e, claim_cash3, flat_discount3, [1], chain3.offsets, 2),
        "empirical_distribution": lambda e: pv.empirical_distribution(e, 3),
    }[estimator]
    big = np.iinfo(np.int64).max
    cases = [(np.array([[1, 2, 3], [2, 3, 4], [1, 3, 3], [2, 3, 4]], dtype=np.int16), "state 4 above 3 in path 1 at time 2"),
             (np.array([[1, 2, 3], [1, big, 3]], dtype=np.int64), f"state {big} above 3 in path 1 at time 1"),
             (np.array([[1, 2, 3], [1, 2, 2 ** 63 + 5]], dtype=np.uint64), f"state {2 ** 63 + 5} above 3 in path 1 at time 2")]
    for paths, message in cases:
        if layout == "time-major":
            paths = np.ascontiguousarray(paths.T).T
        ensemble = pv.PathEnsemble(paths, master_seed=0)
        for _ in range(2):
            with pytest.raises(pv.ValidationError, match=f"^{message}$"):
                estimate(ensemble)


def test_paths_are_a_read_only_view():
    given = np.array([[1, 2, 3], [2, 3, 3]], dtype=np.int16)
    ensemble = pv.PathEnsemble(given, master_seed=0)
    with pytest.raises(ValueError, match="read-only"):
        ensemble.paths[0, 0] = 2
    assert ensemble.paths.base is given and given.flags.writeable
    simulated = pv.simulate(pv.TransitionSequence(n_states=1, rows=[0], columns=[0], probabilities=[[1.0]]),
                            [1.0], 4, master_seed=1)
    with pytest.raises(ValueError, match="read-only"):
        simulated.paths[:, 1] = 1
    assert simulated.paths.T.flags.c_contiguous


def test_the_kept_table_and_its_build_stay_small(dread):
    ensemble = fixture_ensemble(dread)
    tracemalloc.start()
    try:
        distinct, index = oracle._distinct_paths(ensemble, dread.model.n_states)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = index.nbytes + distinct.nbytes
    assert held <= table + HELD_SLACK, f"{held} B held for a {table} B table"
    assert peak <= 2 * index.nbytes + BUILD_SLACK, f"peak {peak / 1e6:.2f} MB"


def test_the_estimators_start_no_thread(dread, monkeypatch):
    """Threads are ``simulate``'s alone: at any core count, the estimators
    read an ensemble, first and again, on the calling thread."""
    ensemble = fixture_ensemble(dread, 40_000)
    benefit = pv.accelerated_benefit(0.5, dread.table.n)

    def refuse(thread):
        raise AssertionError("an estimator started a thread")

    monkeypatch.setattr(oracle, "_usable_cores", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for _ in range(2):
        pv.mc_pv(ensemble, benefit, dread.discount)
        pv.mc_premium(ensemble, benefit, dread.discount, {1, 2}, dread.offsets, dread.table.n)
        pv.empirical_distribution(ensemble, dread.model.n_states)


def path_reads(function) -> list[int]:
    """Lines of ``function`` that read an attribute ``paths``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "paths"]


def test_the_estimators_read_states_only_through_the_table():
    assert path_reads(oracle._path_totals) == []
    assert path_reads(oracle.empirical_distribution) == []


def test_the_guard_sees_a_read_of_the_paths():
    def counts(ensemble):
        total = 0
        for states in ensemble.paths.T:
            total += states.sum()
        return total, ensemble.n_paths

    assert path_reads(counts) == [3]
