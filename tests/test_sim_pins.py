"""Bitwise pins for the simulator's stepping rule.

Every path ``simulate`` draws must stay what it was when
``data/sim_digests.json`` was recorded: the sha256 of the paths, cast to
little-endian int32, is pinned for the fixture chain, the three-state chain
at the seeds ``test_oracle.py`` uses, and a wide N=200 chain with sparse
rows, identity rows and tiny negative diagonals, at several chunk sizes.
The fixture and wide pins hold with the simulator's core count set to 1, 2
and 3, and so do the fixture estimates, which must equal those of a pass
over every path and whose draws in flight must not grow with the thread
count.  A lone block must give the same paths at 1 to 4 cores, start no
thread and hold no more memory on two cores than on one, and a helper's
failing draw must be raised.  The step itself, with and
without the guide table, is checked against the dense rule it replaces,
its memory against the size of the transition matrices, and the guide
table against its budget.
"""

import hashlib
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premval as pv
from premval import oracle
from chains import (WIDE_STATES, dense_sequence, reference_empirical_distribution, reference_path_totals,
                    wide_initial, wide_sequence)

DIGESTS = json.loads((Path(__file__).parent / "data" / "sim_digests.json").read_text(encoding="utf-8"))
WIDE_PATHS = 4_096
#: Core counts the simulator is made to see; paths must not depend on them.
CORE_COUNTS = (1, 2, 3)
#: Path counts that run as one block on one and two cores, from one path to
#: the largest such block, at and beside multiples of 1 024.
LONE_BLOCKS = (1, 1_023, 1_024, 1_025, 2_048, 4_096, 16_383, 16_384)
#: Bytes a lone block may hold on two cores beyond its peak on one.
LONE_BLOCK_SLACK = 65_536


def path_digest(paths: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(paths, dtype="<i4").tobytes()).hexdigest()


@pytest.fixture(scope="module")
def wide():
    return wide_sequence(DIGESTS["wide"]["n"])


def set_cores(monkeypatch, cores):
    monkeypatch.setattr(oracle, "_usable_cores", lambda: cores)


def test_wide_sequence_has_the_rows_it_promises(wide):
    q = wide.matrices
    nonzeros = (q != 0).sum(axis=2)
    diagonal = np.diagonal(q, axis1=1, axis2=2)
    assert nonzeros.min() == 1 and nonzeros.max() == 4
    assert (diagonal == 1.0).any()
    negative = diagonal[diagonal < 0]
    assert negative.size > 0 and negative.min() >= -1e-12


@pytest.mark.parametrize("seed", sorted(DIGESTS["fixture"]["digests"]))
def test_fixture_paths_are_pinned(dread, seed, monkeypatch):
    pin = DIGESTS["fixture"]
    for cores in CORE_COUNTS:
        set_cores(monkeypatch, cores)
        ensemble = pv.simulate(dread.seq, dread.initial, pin["n_paths"], int(seed))
        assert path_digest(ensemble.paths) == pin["digests"][seed], f"{cores} cores"


@pytest.mark.parametrize("case", DIGESTS["chain3"], ids=lambda case: f"seed{case['seed']}")
def test_three_state_paths_are_pinned(chain3, case):
    ensemble = pv.simulate(chain3.seq, np.array(case["initial"]), case["n_paths"], case["seed"])
    assert path_digest(ensemble.paths) == case["digest"]


@pytest.mark.parametrize("chunk_size", [1, 17, None], ids=["chunk1", "chunk17", "default"])
def test_wide_paths_are_pinned(wide, chunk_size, monkeypatch):
    pin = DIGESTS["wide"]
    core_counts = CORE_COUNTS
    if chunk_size is not None:
        monkeypatch.setattr(oracle, "CHUNK_SIZE", chunk_size)
        # A chunk this small runs on one thread at every core count, so one run stands for all of them.
        for cores in CORE_COUNTS:
            set_cores(monkeypatch, cores)
            assert oracle._path_blocks(pin["n_paths"])[1] == 1, f"{cores} cores"
        core_counts = CORE_COUNTS[:1]
    for cores in core_counts:
        set_cores(monkeypatch, cores)
        ensemble = pv.simulate(wide, wide_initial(), pin["n_paths"], pin["seed"])
        assert path_digest(ensemble.paths) == pin["digest"], f"{cores} cores"


@pytest.mark.parametrize("buckets", [1, 16])
def test_paths_stay_pinned_when_the_thresholds_step_most_paths(dread, wide, buckets, monkeypatch):
    # With one bucket, every row with a threshold in [0, 1) sends its paths to the slot tables.
    monkeypatch.setattr(oracle, "_guide_buckets", lambda n, n_rows: buckets)
    fixture, pin = DIGESTS["fixture"], DIGESTS["wide"]
    seed = min(fixture["digests"])
    seq = pv.transition_sequence(dread.table, dread.model)
    ensemble = pv.simulate(seq, dread.initial, fixture["n_paths"], int(seed))
    assert path_digest(ensemble.paths) == fixture["digests"][seed]
    ensemble = pv.simulate(dense_sequence(wide.matrices), wide_initial(), pin["n_paths"], pin["seed"])
    assert path_digest(ensemble.paths) == pin["digest"]


@pytest.mark.parametrize(("n", "n_states", "buckets"), [(25, 10, 1024), (120, 200, 32), (120, 1000, 16), (0, 10, 1024)])
def test_guide_buckets_fill_the_budget(n, n_states, buckets):
    # The largest power of two in [16, 1024] within 2^20 entries; 16 even where it is not.
    assert oracle._guide_buckets(n, n_states) == buckets


def fixture_estimates(dread) -> list[str]:
    """``float.hex`` of mc_pv, three mc_premium estimates and the occupancy
    frequencies on 200 000 fixture paths."""
    ensemble = pv.simulate(dread.seq, dread.initial, DIGESTS["fixture"]["n_paths"], 20261018)
    benefit = pv.accelerated_benefit(0.5, dread.table.n)
    estimates = [pv.mc_pv(ensemble, benefit, dread.discount)]
    for pay in ({1}, {1, 2}, set(range(1, 7))):
        estimates.append(pv.mc_premium(ensemble, benefit, dread.discount, pay, dread.offsets, dread.table.n))
    values = [x for e in estimates for x in (e.mean, e.std_error)]
    values += pv.empirical_distribution(ensemble, dread.model.n_states).ravel().tolist()
    return [x.hex() for x in values]


def test_estimates_do_not_depend_on_the_core_count(dread, monkeypatch):
    by_cores = {}
    for cores in CORE_COUNTS:
        set_cores(monkeypatch, cores)
        by_cores[cores] = fixture_estimates(dread)
    assert by_cores[2] == by_cores[1]
    assert by_cores[3] == by_cores[1]


def test_estimates_match_a_pass_over_every_path(dread, monkeypatch):
    # From the first mc_pv on, the estimators read the 200 000 paths through their distinct-path table.
    monkeypatch.setattr(oracle, "_path_totals", reference_path_totals)
    monkeypatch.setattr(pv, "empirical_distribution", reference_empirical_distribution)
    want = fixture_estimates(dread)
    monkeypatch.undo()
    for cores in CORE_COUNTS:
        set_cores(monkeypatch, cores)
        assert fixture_estimates(dread) == want, f"{cores} cores"


def simulate_peak(monkeypatch, cores, seq, initial, n_paths) -> int:
    set_cores(monkeypatch, cores)
    tracemalloc.start()
    try:
        pv.simulate(seq, initial, n_paths, 5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_draws_in_flight_do_not_grow_with_the_thread_count(dread, monkeypatch):
    # CHUNK_SIZE counts paths across all threads, so two threads hold about
    # as many draws at once as one.
    serial = simulate_peak(monkeypatch, 1, dread.seq, dread.initial, DIGESTS["fixture"]["n_paths"])
    parallel = simulate_peak(monkeypatch, 2, dread.seq, dread.initial, DIGESTS["fixture"]["n_paths"])
    assert parallel <= 1.1 * serial, f"peak {parallel / 1e6:.1f} MB on 2 threads, {serial / 1e6:.1f} MB on 1"


def test_a_lone_block_holds_as_much_on_two_cores_as_on_one(monkeypatch):
    # A lone block stages 2 048 paths' draws at every core count; a
    # staging buffer a core would hold 2 MB more on this chain.
    seq = wide_sequence(120)
    pv.simulate(seq, wide_initial(), 1, 5)  # builds the step tables before either peak
    serial = simulate_peak(monkeypatch, 1, seq, wide_initial(), WIDE_PATHS)
    split = simulate_peak(monkeypatch, 2, seq, wide_initial(), WIDE_PATHS)
    assert split <= serial + LONE_BLOCK_SLACK, f"peak {split} B on 2 cores, {serial} B on 1"


@pytest.mark.parametrize("n_paths", LONE_BLOCKS)
def test_a_lone_blocks_paths_do_not_depend_on_the_core_count(wide, n_paths, monkeypatch):
    set_cores(monkeypatch, 1)
    want = path_digest(pv.simulate(wide, wide_initial(), n_paths, 11).paths)
    for cores in CORE_COUNTS[1:] + (4,):
        set_cores(monkeypatch, cores)
        assert path_digest(pv.simulate(wide, wide_initial(), n_paths, 11).paths) == want, f"{cores} cores"


def test_a_lone_block_starts_no_thread(wide, monkeypatch):
    set_cores(monkeypatch, 2)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread))[1])
    before = threading.active_count()
    pv.simulate(wide, wide_initial(), WIDE_PATHS, 11)
    assert started == [] and threading.active_count() == before


def test_a_helpers_failing_draw_is_raised(wide, monkeypatch):
    set_cores(monkeypatch, 2)
    chunk_uniforms = oracle._chunk_uniforms

    def fail_past_the_first_path(master_seed, start_path, *args):
        if start_path:
            raise ArithmeticError(f"draw from path {start_path} on a helper: {threading.get_ident() != caller}")
        chunk_uniforms(master_seed, start_path, *args)

    monkeypatch.setattr(oracle, "_chunk_uniforms", fail_past_the_first_path)
    caller, before = threading.get_ident(), threading.active_count()
    # Two blocks, from paths 0 and 16 384; the helper draws the second.
    with pytest.raises(ArithmeticError, match="^draw from path 16384 on a helper: True$"):
        pv.simulate(wide, wide_initial(), 20_000, 11)
    assert threading.active_count() == before


def test_blocks_split_the_chunk_between_the_cores(monkeypatch):
    set_cores(monkeypatch, 2)
    assert oracle._path_blocks(40_000) == ([(0, 16_384), (16_384, 32_768), (32_768, 40_000)], 2)
    set_cores(monkeypatch, 3)
    assert oracle._path_blocks(4_096) == ([(0, 4_096)], 1)
    # Blocks of one path gain nothing on threads (see oracle._THREADED_PATHS).
    monkeypatch.setattr(oracle, "CHUNK_SIZE", 1)
    assert oracle._path_blocks(5) == ([(i, i + 1) for i in range(5)], 1)


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_a_small_chunk_runs_on_one_thread(monkeypatch, cores):
    set_cores(monkeypatch, cores)
    monkeypatch.setattr(oracle, "CHUNK_SIZE", 17)
    blocks, threads = oracle._path_blocks(4_096)
    assert threads == 1 and blocks[:2] == [(0, 17), (17, 34)]


def test_no_thread_gets_a_block_below_the_threaded_size(monkeypatch):
    set_cores(monkeypatch, 8)
    blocks, threads = oracle._path_blocks(200_000)
    sizes = [stop - start for start, stop in blocks]
    assert threads > 1
    assert min(sizes[:-1]) >= oracle._THREADED_PATHS


def test_one_thread_runs_every_block_on_the_calling_thread():
    caller = threading.get_ident()
    ran = []
    oracle._run_blocks(lambda worker, start, stop: ran.append((start, threading.get_ident())),
                       [(start, start + 1) for start in range(5)], threads=1)
    assert ran == [(start, caller) for start in range(5)]


def run_blocks_bounded(function, blocks, threads):
    """``oracle._run_blocks`` on a daemon thread joined with a timeout, so
    that a deadlock fails the test instead of hanging the suite."""
    failures = []

    def run():
        try:
            oracle._run_blocks(function, blocks, threads)
        except BaseException as exc:  # handed to the test thread below
            failures.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "_run_blocks did not finish"
    if failures:
        raise failures[0]


def test_every_block_runs_once_under_contention():
    blocks = [(start, start + 1) for start in range(3_000)]
    seen = []

    def record(worker, start, stop):
        seen.append((start, worker))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_blocks_bounded(record, blocks, threads=4)
    finally:
        sys.setswitchinterval(switch)
    assert sorted(start for start, _ in seen) == list(range(3_000))
    assert {worker for _, worker in seen} <= {0, 1, 2, 3}


def test_a_failing_block_is_raised_after_every_thread_ends():
    before = threading.active_count()

    def fail_at_seven(worker, start, stop):
        if start == 7:
            raise ArithmeticError("block 7")
        return start

    with pytest.raises(ArithmeticError, match="block 7"):
        run_blocks_bounded(fail_at_seven, [(start, start + 1) for start in range(50)], threads=3)
    assert threading.active_count() == before


def test_a_failing_block_is_raised_after_the_other_threads_blocks():
    finished = []

    def fail_on_the_calling_thread(worker, start, stop):
        if worker == 0:
            raise ArithmeticError("worker 0")
        time.sleep(0.2)
        finished.append(start)

    with pytest.raises(ArithmeticError, match="worker 0"):
        run_blocks_bounded(fail_on_the_calling_thread, [(0, 1), (1, 2)], threads=2)
    assert finished == [1]


def dense_step(row: np.ndarray, u: float) -> int:
    """The dense rule: count the cumulative sums, last one forced to 1, below u."""
    cumulative = np.cumsum(row)
    cumulative[-1] = 1.0
    return int((cumulative < u).sum())


def dense_steps(period: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``dense_step`` of row ``states[i]`` of ``period`` and draw ``u[i]`` for every i."""
    cumulative = np.cumsum(period, axis=1)
    cumulative[:, -1] = 1.0
    return (cumulative[states] < u[:, None]).sum(axis=1)


@st.composite
def rows_and_draws(draw, dyadic=False):
    """A few periods of stochastic rows, some with entries in [-1e-12, 0)
    or -0.0, on one edge list holding every entry that is not +0.0 in some
    period and a few +0.0 ones besides; and draws at and beside every
    cumulative value of every row.  With ``dyadic``, a row's probabilities
    are multiples of 1/8 (0.125, 0.25, 0.5 and what is left of 1), so its
    cumulative values fall on the lower ends of guide buckets."""
    n_states = draw(st.integers(1, 12))
    periods = np.zeros((draw(st.integers(1, 3)), draw(st.integers(1, 4)), n_states))
    for row in periods.reshape(-1, n_states):
        columns = draw(st.lists(st.integers(0, n_states - 1), min_size=1, max_size=5, unique=True))
        if dyadic:
            left = 1.0
            for j in columns[:-1]:
                row[j] = min(left, draw(st.sampled_from([0.125, 0.25, 0.5])))
                left -= row[j]
            row[columns[-1]] = left
        else:
            weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(columns), max_size=len(columns)))
            row[columns] = np.array(weights) / sum(weights)
        for j in draw(st.lists(st.integers(0, n_states - 1), max_size=3, unique=True)):
            if j not in columns:
                row[j] = -draw(st.one_of(st.just(0.0), st.floats(1e-16, 1e-12)))
    extra = np.array(draw(st.lists(st.booleans(), min_size=periods[0].size, max_size=periods[0].size)))
    on_edges = (periods.view(np.uint64) != 0).any(axis=0) | extra.reshape(periods[0].shape)
    draws = {0.0, *draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3))}
    for value in np.cumsum(periods, axis=2).ravel():
        draws.update((value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf)))
    # Generator.random draws from [0, 1), the only range simulate steps with.
    return periods, np.nonzero(on_edges), sorted(u for u in draws if 0.0 <= u < 1.0)


def table_steps(thresholds: np.ndarray, lengths: np.ndarray, states: np.ndarray, u: np.ndarray) -> list[int]:
    """0-based next states of the 0-based ``states`` under ``u`` from one
    period's run-length tables of ``_step_tables`` with G = 1, stepped by
    ``oracle._table_step``."""
    got = np.empty_like(states)
    oracle._table_step(thresholds, lengths, states + 1, u, got, np.arange(len(states)))
    return (got - 1).tolist()


@settings(max_examples=400, deadline=None)
@given(rows_and_draws())
def test_step_follows_the_dense_rule(case):
    periods, (rows, columns), draws = case
    thresholds, lengths, _ = oracle._step_tables(rows, columns, periods[:, rows, columns], periods.shape[1:],
                                                 1, np.int16)
    states = np.repeat(np.arange(periods.shape[1], dtype=np.int16), len(draws))
    u = np.tile(draws, periods.shape[1])
    for k, period in enumerate(periods):
        got = table_steps(thresholds[k], lengths[k], states, u)
        assert got == [dense_step(period[i], x) for i, x in zip(states, u)]


def test_u_zero_picks_the_first_state_even_with_zero_probability():
    row = np.array([0.0, 0.0, 0.25, 0.75])
    thresholds, lengths, _ = oracle._step_tables(np.zeros(4, dtype=np.intp), np.arange(4), row[None], (1, 4),
                                                 1, np.int16)
    got = table_steps(thresholds[0], lengths[0], np.zeros(1, dtype=np.int16), np.array([0.0]))
    assert got == [0] == [dense_step(row, 0.0)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(rows_and_draws(), rows_and_draws(dyadic=True)), st.sampled_from([1, 4, 16, 1024]),
       st.sampled_from([1, oracle._STEP_ENTRIES]))
def test_guided_step_follows_the_dense_rule(case, buckets, step_entries):
    # One bucket sends nearly every draw to the run-length tables, and one (slot, path) entry a call makes
    # them go path by path.
    periods, (rows, columns), draws = case
    thresholds, lengths, guide = oracle._step_tables(rows, columns, periods[:, rows, columns], periods.shape[1:],
                                                     buckets, np.int16)
    # Every bucket's lower end and the floats beside it, all of them for a
    # few buckets and those of the buckets at and after each cumulative value otherwise.
    lower = set(range(min(buckets, 16)))
    lower.update(b for value in np.cumsum(periods, axis=2).ravel() for b in np.floor(value * buckets) + (0, 1))
    for b in lower:
        draws.extend((b / buckets, np.nextafter(b / buckets, -np.inf), np.nextafter(b / buckets, np.inf)))
    draws = np.array(sorted({u for u in draws if 0.0 <= u < 1.0}))
    states = np.repeat(np.arange(periods.shape[1], dtype=np.int16), len(draws))
    u = np.tile(draws, periods.shape[1])
    got = np.empty_like(states)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_STEP_ENTRIES", step_entries)
        for k, period in enumerate(periods):
            oracle._guided_step(guide[k], thresholds[k], lengths[k], states + 1, u * buckets,
                                np.empty(len(states), dtype=np.intp), got)
            assert (got - 1).tolist() == dense_steps(period, states, u).tolist()


def test_the_guide_table_stays_within_its_budget():
    seq = wide_sequence(120)
    buckets = oracle._guide_buckets(seq.n, seq.n_states)
    tracemalloc.start()
    try:
        thresholds, lengths, guide = oracle._step_tables(seq.rows, seq.columns, seq.probabilities,
                                                         (WIDE_STATES, WIDE_STATES), buckets, np.int16)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The builder also makes the run-length tables; the guide's share is what it holds beyond them.
    held, peak = (size - thresholds.nbytes - lengths.nbytes for size in (held, peak))
    budget = oracle._GUIDE_ENTRIES * guide.itemsize
    assert buckets == 32 and guide.size <= oracle._GUIDE_ENTRIES
    assert held <= budget, f"{held / 1e6:.2f} MB held of a {budget / 1e6:.2f} MB budget"
    # Its transients are per slot, so building it holds at most as much again.
    assert peak <= 2 * budget, f"peak {peak / 1e6:.2f} MB of a {budget / 1e6:.2f} MB budget"


def test_simulate_memory_stays_below_half_the_matrices():
    seq = wide_sequence(120)
    tracemalloc.start()
    try:
        pv.simulate(seq, wide_initial(), WIDE_PATHS, master_seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < seq.matrices.nbytes / 2, f"peak {peak / 1e6:.1f} MB of {seq.matrices.nbytes / 1e6:.1f} MB"
