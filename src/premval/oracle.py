"""Independent cross-checks for the matrix valuation: exhaustive path
enumeration on small models and Monte Carlo simulation on any model.

The simulator is counter-based: path i always consumes the same fixed block
of the Philox stream derived from the master seed, regardless of how paths
are batched.  Results are therefore bit-reproducible for a given
(master_seed, n_paths), whatever the number of threads.

``simulate`` steps its paths in contiguous blocks of ceil(CHUNK_SIZE / T)
paths on T = max(1, min(cores, CHUNK_SIZE // 8192)) threads, the calling
thread among them, and never on more threads than blocks; the cores are
those ``os.sched_getaffinity`` (else ``os.cpu_count()``) reports.  There is
no setting for it, and the thread count changes no path: a block writes
only its own paths.  Threads hand the interpreter lock over at every numpy
call, five a step and eight more where a path misses the guide table
below, so a block below 8 192 paths steps faster on one thread.  Median
``simulate`` times, one thread vs two, by block size (2 cores, numpy 2.4.6,
seven alternating runs, measured 2026-10-20; more cores not measured; the
N=200 chain is perfbench's synthetic chain of seed 61):

    block size   200 000 fixture paths   32 768 paths, N=200, n=120
         1 024   123 vs 231 ms           124 vs 201 ms
         2 048   103 vs 146 ms           102 vs 139 ms
         4 096    77 vs  98 ms            85 vs  89 ms
         8 192    71 vs  68 ms            70 vs  61 ms
        16 384    74 vs  59 ms            65 vs  57 ms

A block draws from one generator positioned at its first path, on the
thread that steps it.  A call that runs as one block, such as 4 096 paths
on 2 cores, draws and steps on the calling thread alone: drawing its paths
on the idle cores took about 1 ms off ``simulate`` on perfbench's N=200
chain, but left perfbench's mc-large operations no faster and its set-ups
slower (2 cores, numpy 2.4.6).

A uniform u moves a path from row c of cumulative probabilities (last entry
forced to 1.0) to the 0-based state ``#{j : c_j < u}``.  The cumulative sum
can change value only at column 0, at a nonzero column or at the last
column, so the count equals the sum over those columns w of len_w x
[c_w < u], where len_w is the number of columns up to the next such column.
This identity holds for every row, including rows whose cumulative sum
decreases at an entry in [-1e-12, 0), and it lets the simulator step with a
few thresholds per row instead of N.

Most steps take one gather from a guide table (Chen and Asau 1974;
Devroye 1986, section III.2.4).  It cuts [0, 1) into G buckets, G a power
of two, and holds for each period, row and bucket b the count at b/G, or a
mark where a threshold c_w has floor(c_w * G) == b.  Scaling by a power of
two is exact, so each threshold lies below every draw of an unmarked bucket
or above every one, and all of the bucket's draws give the same count: the
guide answers exactly what the thresholds would.  G is the largest power of
two in [16, 1024] that keeps the guide within 2^20 entries: 1 024 on the
fixture, with 0.2% of its buckets marked, and 32 on an N=200, n=120 chain,
with about 6% marked.  A path that lands in a marked bucket is stepped in
one expression from the thresholds, kept times G (see ``_slot_tables``).

The estimators run on the calling thread and read an ensemble through its
distinct-path table: its distinct paths, time-major, and each path's index
into them, built on the ensemble's first estimator call and kept on it with
its largest state.  ``mc_pv`` and ``mc_premium`` sum each distinct path's
cash over k in the same order, from 0.0, and gather the totals by the
index; ``empirical_distribution`` counts each distinct path times the
number of paths that take it.  Every total, estimate and frequency is
therefore the one a pass over every path gives, bit for bit, in whatever
order the table holds the distinct paths.  The table is exact: a path is
packed, one time at a time, into the int64 key ``key * (top + 1) + X_k``,
and just before a key could overflow, the keys are replaced by their ranks
(``np.sort``, a not-equal flag and ``np.searchsorted``).  The times go in a
spread order: first the r evenly spaced ones that one key holds (r = 8 at
N=200), then the rest.  No set of times has more distinct tuples than the
paths have distinct paths, so once the distinct keys pass a quarter of the
paths at a renumbering, the table is given up before any rank is sought,
and every path is read instead: 4 096 paths on perfbench's N=200 chain
hold about 2 400 distinct tuples of the spread times, so their first key
gives the table up.  200 000 fixture paths hold about 1 150 distinct
paths; their table takes about 19 ms to build and keeps 1.66 MB, nearly
all of it the index.  An ensemble that one estimator reads once, such as
``premval simulate``'s, still pays for the build: about 0.1 s of a first
``mc_pv`` on a million fixture paths (2 cores, numpy 2.4.6).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .cashflow import CashflowMatrix, premium_selector
from .errors import ValidationError, _allocate, _integer
from .lifetable import DistributionMatrix, TransitionSequence, initial_distribution
from .statemodel import ArrivalOffsets
from .valuation import DiscountVector, _check_inflows

#: Hard ceilings for exhaustive enumeration.
MAX_ENUM_STATES = 8
MAX_ENUM_HORIZON = 12

_PHILOX_WORDS_PER_BLOCK = 4

#: Paths run at once across all threads, which bounds the draws ``simulate`` holds.
CHUNK_SIZE = 1 << 15
#: Fewest paths in a block before threads gain on it; see the module docstring.
_THREADED_PATHS = 1 << 13
#: Paths whose raw draws ``simulate`` holds at once before copying them
#: time-major: 0.46 MB of draws on the fixture, 2 MB on an N=200, n=120 chain.
_STAGED_PATHS = 1 << 11
#: Most entries in a sequence's guide table, 2 MB of int16 states.
_GUIDE_ENTRIES = 1 << 20
#: Most (slot, path) entries ``_table_step`` compares at once.
_STEP_ENTRIES = 1 << 16
#: Largest share of an ensemble's paths that may be distinct path prefixes
#: before its distinct-path table is given up.
_DISTINCT_SHARE = 0.25
#: The largest int64: no key of a path prefix, nor the factor that shifts one, passes it.
_KEY_BOUND = (1 << 63) - 1


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths; entry (i, k) is the 1-based state of path i at time k.

    States are numbered 1..N, as in the model; an ensemble holding a state
    below 1 is refused, and the estimators refuse one above their N,
    because they index tables by the state, with an unused row 0.

    ``simulate`` stores the states time-major: ``paths`` is the transpose of
    a C-contiguous (n+1, n_paths) array, so ``paths.T[k]``, the state of
    every path at time k, is one contiguous vector.  The estimators read
    those rows; a C-ordered ``paths`` gives the same results, only slower.
    ``paths`` is a read-only view of the array given, which must not change
    after the ensemble is built: the first estimator call keeps on the
    ensemble one record of its largest state and its distinct-path table
    (see the module docstring), and no later call reads the array again.
    """

    paths: np.ndarray  # shape (n_paths, n+1), integer dtype
    master_seed: int

    def __post_init__(self):
        paths = np.asarray(self.paths).view()
        paths.setflags(write=False)
        object.__setattr__(self, "paths", paths)
        if paths.ndim != 2 or 0 in paths.shape:
            raise ValidationError(f"paths must be 2-D with at least one path and one time, got shape {paths.shape}")
        if not np.issubdtype(paths.dtype, np.integer):
            raise ValidationError(f"paths must hold integer states, got dtype {paths.dtype}")
        if paths.min() < 1:
            i, k = np.argwhere(paths < 1)[0]
            raise ValidationError(f"state {int(paths[i, k])} below 1 in path {i} at time {k}")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n(self) -> int:
        return self.paths.shape[1] - 1


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    mean: float
    std_error: float
    n_paths: int

    def __post_init__(self):
        if self.std_error < 0 or not np.isfinite(self.std_error):
            raise ValidationError(f"invalid standard error {self.std_error!r}")


def enumerate_pv(seq: TransitionSequence, initial: np.ndarray, c: CashflowMatrix,
                 discount: DiscountVector) -> float:
    """Exact expected present value by summing over every positive-probability path.

    Each step walks the row's edges in column order and skips the entries
    equal to 0, so the paths and sums are those of the dense Q(k)'s nonzero
    entries, and no dense Q is built.

    Refuses models beyond ``MAX_ENUM_STATES`` states or horizon
    ``MAX_ENUM_HORIZON``: the path count grows exponentially and larger
    inputs belong to the simulator.
    """
    n, n_states = seq.n, seq.n_states
    if n_states > MAX_ENUM_STATES or n > MAX_ENUM_HORIZON:
        raise ValidationError(
            f"enumeration is limited to {MAX_ENUM_STATES} states and horizon {MAX_ENUM_HORIZON}; "
            f"got {n_states} states, horizon {n}")
    initial = initial_distribution(initial, n_states)
    if c.matrix.shape != (n + 1, n_states) or discount.values.shape[0] != n + 1:
        raise ValidationError("cash-flow or discount shape does not match the transition sequence")

    weighted = (discount.values[:, None] * c.matrix).tolist()
    probabilities, columns = seq.probabilities.tolist(), seq.columns.tolist()
    # The edges are sorted by row, so row i's are the slice starts[i]:starts[i + 1], by column.
    starts = np.searchsorted(seq.rows, np.arange(n_states + 1)).tolist()
    total = 0.0

    def walk(k: int, state: int, probability: float, cash: float):
        nonlocal total
        cash += weighted[k][state]
        if k == n:
            total += probability * cash
            return
        row = probabilities[k]
        for e in range(starts[state], starts[state + 1]):
            if row[e] != 0.0:
                walk(k + 1, columns[e], probability * row[e], cash)

    for start in np.nonzero(initial)[0]:
        walk(0, int(start), float(initial[start]), 0.0)
    return total


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _path_blocks(n_paths: int) -> tuple[list[tuple[int, int]], int]:
    """Contiguous blocks [start, stop) covering [0, n_paths), and the number
    of threads to run them on, as the module docstring sets out."""
    threads = max(1, min(_usable_cores(), CHUNK_SIZE // _THREADED_PATHS))
    size = -(-CHUNK_SIZE // threads)
    blocks = [(start, min(start + size, n_paths)) for start in range(0, n_paths, size)]
    return blocks, min(threads, len(blocks))


def _run_blocks(function, blocks: list[tuple[int, int]], threads: int):
    """``function(worker, start, stop)`` for every block.

    Worker w in [0, threads), the calling thread being worker 0, runs blocks
    w, w + threads, ... in turn, so a function can keep one set of buffers
    per worker.  An exception is re-raised once every thread has ended.
    """
    errors = []

    def work(worker: int):
        try:
            for index in range(worker, len(blocks), threads):
                function(worker, *blocks[index])
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    helpers = [threading.Thread(target=work, args=(worker,)) for worker in range(1, threads)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


def _words_per_path(n: int) -> int:
    blocks = -(-(n + 1) // _PHILOX_WORDS_PER_BLOCK)
    return blocks * _PHILOX_WORDS_PER_BLOCK


def _chunk_uniforms(master_seed: int, start_path: int, draws: np.ndarray, u: np.ndarray, scale: int):
    """Write ``scale``, a power of two, times the uniform draws of paths
    [start_path, start_path + P) into ``u``, shape (n+1, P), time-major,
    staging them ``len(draws)`` paths at a time in ``draws``, shape
    (count, w).

    Path i owns the words [i * w, (i + 1) * w) of the Philox stream keyed by
    the master seed, where w is the per-path block size, a whole number of
    Philox blocks.  One generator is positioned at the first path and draws
    path after path from there, so batching cannot change any path's
    draws.  The staged draws are scaled in place, where they are
    contiguous, so neither the product nor the transposing copy needs a
    ufunc buffer.
    """
    stream = np.random.Generator(np.random.Philox(key=master_seed).advance(
        start_path * (draws.shape[1] // _PHILOX_WORDS_PER_BLOCK)))
    for first in range(0, u.shape[1], len(draws)):
        staged = draws[:min(len(draws), u.shape[1] - first)]
        stream.random(out=staged)
        staged *= scale
        u[:, first:first + len(staged)] = staged[:, :u.shape[0]].T


def _step_tables(rows: np.ndarray, columns: np.ndarray, probabilities: np.ndarray,
                 shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Run-length tables of the dense stepping rule for every row of n
    (R, C) matrices given on edges sorted by (row, column): ``probabilities``
    has shape (n, E), and every entry off the edges is 0.

    A row's dense cumulative sum, last entry forced to 1.0, can change value
    only at column 0, at a nonzero column or at the last column.  Row (k, i)
    keeps, in slots w = 0..W-1, the cumulative value ``thresholds[k, w, i]``
    at column 0 and at each column before the last whose entry in period k
    is nonzero, and in ``lengths[k, w, i]`` the number of columns from there
    up to the next such column or the last one.  Unused slots have length 0.
    The last column is left out: its forced 1.0 is never below a draw from
    [0, 1).  Zero entries on the edges are skipped, so the tables are those
    of the dense rows, whatever edges carry them.
    """
    n_rows, n_columns = shape
    n = probabilities.shape[0]
    # Nonzero entries before the last column, by (k, row, column): the edges are sorted.
    k, e = np.nonzero(probabilities != 0)
    kept = (columns[e] != 0) & (columns[e] != n_columns - 1)
    k, e = k[kept], e[kept]
    row = k * n_rows + rows[e]
    counts = np.bincount(row, minlength=n * n_rows)
    slot = np.arange(row.size) - (np.cumsum(counts) - counts)[row] + 1
    width = int(counts.max(initial=0)) + 1
    thresholds = np.zeros((n, width, n_rows))
    first = columns == 0
    thresholds[:, 0, rows[first]] = probabilities[:, first]
    thresholds[k, slot, rows[e]] = probabilities[k, e]
    # The skipped columns hold exact zeros, so a sequential sum over the
    # slots' entries reproduces the dense cumulative sum bit for bit.
    for w in range(1, width):
        thresholds[:, w] += thresholds[:, w - 1]
    # The column of every slot, then the last column: the lengths are their differences.
    starts = np.full((n, width + 1, n_rows), n_columns - 1)
    starts[:, 0] = 0
    starts[k, slot, rows[e]] = columns[e]
    return thresholds, np.diff(starts, axis=1)


def _path_dtype(n_states: int):
    """The integer type of simulated states, and so of a guide table's entries."""
    return np.int16 if n_states < 2 ** 15 else np.int32


def _guide_buckets(n: int, n_rows: int) -> int:
    """G for the guide table of n periods of n_rows rows: the largest power of
    two in [16, 1024] that keeps its n x (n_rows + 1) x G entries within
    ``_GUIDE_ENTRIES``, or 16 where no such power does."""
    fit = _GUIDE_ENTRIES // max(1, n * (n_rows + 1))
    return 1 << min(10, max(4, fit.bit_length() - 1))


def _guide_table(thresholds: np.ndarray, lengths: np.ndarray, buckets: int, dtype) -> np.ndarray:
    """Guide table of n periods' (W, R) step tables with G = ``buckets``, a
    power of two: entry (k, s, b) of the (n, R + 1, G) result is the 1-based
    next state, ``#{j : c_j < u} + 1``, of every draw u in [b/G, (b + 1)/G)
    from the row of 1-based state s in period k, or 0 where that count is
    not the same for all of them.  Row 0 is never read.

    u * G and t * G are exact, so a used slot's threshold t is below every
    draw of bucket b if floor(t * G) < b, and above every one if
    floor(t * G) > b.  On a bucket that holds no threshold the count is
    therefore constant, and it is the count at b/G.
    """
    n, width, n_rows = thresholds.shape
    guide = np.zeros((n, n_rows + 1, buckets), dtype=dtype)
    guide[:, 1:, 0] = 1
    flat = guide.reshape(-1)
    straddled = []
    for w in range(width):
        k, row = np.nonzero(lengths[:, w])
        first = np.floor(thresholds[k, w, row] * buckets).astype(np.intp)
        at = (k * (n_rows + 1) + row + 1) * buckets
        # The slot's length counts from the first bucket wholly above its
        # threshold; a row has one threshold per slot, so no index repeats.
        rises = first < buckets - 1
        flat[at[rises] + np.maximum(first[rises] + 1, 0)] += lengths[k[rises], w, row[rises]].astype(dtype)
        inside = (first >= 0) & (first < buckets)
        straddled.append(at[inside] + first[inside])
    np.cumsum(guide, axis=2, dtype=dtype, out=guide)
    flat[np.concatenate(straddled)] = 0
    return guide


def _slot_tables(thresholds: np.ndarray, lengths: np.ndarray, buckets: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The tables a step reads, from n periods' (W, R) ``_step_tables``:
    two (n, W + 1, R + 1) arrays whose column s is the row of 1-based state
    s (column 0 is never read).  The thresholds are multiplied by G =
    ``buckets``, which is exact for a power of two, so they compare with the
    scaled draws as the thresholds do with the draws.  Slot W holds
    threshold -inf and length 1, so the sum over slots counts the 1-based
    next state.  The lengths are held in the path dtype."""
    n, width, n_rows = thresholds.shape
    scaled = np.full((n, width + 1, n_rows + 1), -np.inf)
    np.multiply(thresholds, buckets, out=scaled[:, :width, 1:])
    counts = np.ones((n, width + 1, n_rows + 1), dtype=dtype)
    counts[:, :width, 1:] = lengths
    return scaled, counts


def _sequence_steps(seq: TransitionSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_slot_tables`` of the sequence's edges and their ``_guide_table``,
    built on its first simulation and kept on it; its arrays are read-only,
    so the tables stay its own."""
    if "_steps" not in vars(seq):
        thresholds, lengths = _step_tables(seq.rows, seq.columns, seq.probabilities, (seq.n_states, seq.n_states))
        buckets, dtype = _guide_buckets(seq.n, seq.n_states), _path_dtype(seq.n_states)
        guide = _guide_table(thresholds, lengths, buckets, dtype)
        vars(seq)["_steps"] = (*_slot_tables(thresholds, lengths, buckets, dtype), guide)
    return vars(seq)["_steps"]


def _table_step(thresholds: np.ndarray, lengths: np.ndarray, states: np.ndarray, scaled: np.ndarray,
                out: np.ndarray, paths: np.ndarray):
    """Write to ``out[paths]`` the 1-based next states of the 1-based
    ``states[paths]`` under the draws ``scaled[paths]`` / G, from one
    period's (W + 1, R + 1) ``_slot_tables``: the sum over slots of length x
    [threshold x G < scaled draw].  The paths go ``_STEP_ENTRIES // (W + 1)``
    at a time, so a wide row still holds a bounded block of (slot, path)
    entries; on narrow rows that is one expression."""
    span = max(1, _STEP_ENTRIES // len(thresholds))
    for first in range(0, paths.size, span):
        part = paths[first:first + span]
        at = states[part]
        below = thresholds.take(at, axis=1) < scaled[part]
        # The lengths sum to at most N, which the path dtype holds.
        out[part] = (lengths.take(at, axis=1) * below).sum(axis=0, dtype=out.dtype)


def _guided_step(guide: np.ndarray, thresholds: np.ndarray, lengths: np.ndarray, states: np.ndarray,
                 scaled: np.ndarray, index: np.ndarray, out: np.ndarray):
    """Write to ``out`` the 1-based next states of the 1-based ``states``
    under the draws ``scaled`` / G, from one period's (R + 1, G) guide table
    and (W + 1, R + 1) slot tables: one gather from bucket floor(u * G) of
    the state's row, then ``_table_step`` for the paths whose bucket holds a
    threshold.  ``index`` is an intp buffer as long as ``states``."""
    buckets = guide.shape[1]
    np.multiply(states, buckets, out=index, dtype=np.intp)
    # Cast to intp before the sum, which floors the nonnegative scaled draws.
    np.add(index, scaled, out=index, dtype=np.intp, casting="unsafe")
    # Every index is in range; "clip" lets take write to out unbuffered.
    guide.take(index, out=out, mode="clip")
    _table_step(thresholds, lengths, states, scaled, out, (out == 0).nonzero()[0])


def simulate(seq: TransitionSequence, initial: np.ndarray, n_paths: int, master_seed: int) -> PathEnsemble:
    """Draw state paths X(0..n) under the period transition matrices.

    The first uniform u of each path picks the initial state from
    ``initial``; uniform k picks the transition into time k.  The rule is the
    dense one: with c the cumulative sum of the current row (or of
    ``initial``) and its last entry forced to 1.0, the next 0-based state is
    ``#{j : c_j < u}``.  So u == 0.0, which ``Generator.random`` can return,
    picks the first state even when its probability is zero, and a row whose
    sum rounds below 1 sends the shortfall to the last state.  Entries in
    [-1e-12, 0), which a valid sequence may hold, make c decrease; the rule
    still holds exactly.

    Each step reads a path's next state from its bucket of a guide table
    (see the module docstring and ``_guide_table``) and, for the few paths
    whose bucket holds a threshold, from compact run-length tables (see
    ``_step_tables`` and ``_slot_tables``) instead of a dense row of N
    cumulative values.  The tables are built from the sequence's edges,
    once per sequence, on its first simulation; the guide holds at most
    2^20 entries, 1.5 MB of int16 on an N=200, n=120 chain.  The initial
    state is drawn in the same way from the tables of a one-row sequence
    with an edge at every state, built on every call, so no dense Q is
    ever formed.
    Each thread steps its blocks of paths (see the module docstring) and
    writes their states straight into their columns of the time-major path
    array (see ``PathEnsemble``).  A block's draws come from one generator
    positioned at its first path and are staged ``_STAGED_PATHS`` paths at
    a time into its time-major uniforms, and each thread's buffers are
    allocated once per call by the calling thread, so no helper thread's
    malloc arena keeps them once freed.
    ``n_paths`` and ``master_seed`` must be integers (numpy integers
    included).  See the module docstring for the reproducibility contract.
    """
    n, n_states = seq.n, seq.n_states
    initial = initial_distribution(initial, n_states)
    n_paths = _integer("n_paths", n_paths)
    master_seed = _integer("master_seed", master_seed)
    if n_paths < 1:
        raise ValidationError("n_paths must be positive")
    if not 0 <= master_seed < 2 ** 64:
        raise ValidationError("master_seed must fit in an unsigned 64-bit integer")

    thresholds, lengths, guide = _sequence_steps(seq)
    buckets, dtype = guide.shape[2], guide.dtype
    # The initial state is a step from state 1 of a one-row sequence.
    first_step = _step_tables(np.zeros(n_states, dtype=np.intp), np.arange(n_states), initial[None], (1, n_states))
    first_guide = _guide_table(*first_step, buckets, dtype)[0]
    first_thresholds, first_lengths = (table[0] for table in _slot_tables(*first_step, buckets, dtype))

    # Time-major, so that every step reads and writes contiguous vectors.
    time_major = _allocate((n + 1, n_paths), "path array", dtype, np.empty)
    blocks, threads = _path_blocks(n_paths)
    size = blocks[0][1]
    buffers = [(np.empty((min(size, _STAGED_PATHS), _words_per_path(n))), np.empty((n + 1, size)),
                np.empty(size, dtype=np.intp)) for _ in range(threads)]
    state_one = np.ones(size, dtype=dtype)

    def simulate_block(worker: int, start: int, stop: int):
        count = stop - start
        draws, u, index = buffers[worker][0], buffers[worker][1][:, :count], buffers[worker][2][:count]
        # u holds the draws times G.
        _chunk_uniforms(master_seed, start, draws, u, buckets)
        columns = time_major[:, start:stop]
        _guided_step(first_guide, first_thresholds, first_lengths, state_one[:count], u[0], index, columns[0])
        for k in range(n):
            _guided_step(guide[k], thresholds[k], lengths[k], columns[k], u[k + 1], index, columns[k + 1])

    _run_blocks(simulate_block, blocks, threads)
    return PathEnsemble(paths=time_major.T, master_seed=master_seed)


def _renumbered(keys: np.ndarray, limit: float) -> "tuple[np.ndarray, int] | None":
    """Each key's rank among the distinct keys, and their number; None,
    before any rank is sought, where that number passes ``limit``."""
    distinct = np.sort(keys)
    first = np.empty(distinct.size, dtype=bool)
    first[0] = True
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    return None if distinct.size > limit else (np.searchsorted(distinct, keys), distinct.size)


def _distinct_columns(states: np.ndarray, top: int, limit: float) -> "tuple[np.ndarray, np.ndarray] | None":
    """The distinct columns of ``states``, an (n+1, P) array of states in
    [1, top], as a C-contiguous (n+1, U) array, and each column's index into
    it; None once more than ``limit`` distinct tuples of rows turn up.

    The rows are keyed in a spread order: first the r evenly spaced rows
    that one int64 key holds, then the others in turn.  Column i's key
    after row k is ``key * (top + 1) + states[k, i]``, which is exact and
    distinct for distinct tuples.  Just before a key could pass 2^63 - 1,
    the keys are replaced by their ranks, which keeps them so, and counted
    against ``limit``.  No tuple of some of the rows has more distinct
    values than the columns, so a table given up there is one the whole
    count would give up; the spread rows part most paths at the first count.
    """
    base = top + 1
    keys = np.zeros(states.shape[1], dtype=np.int64)
    fit, bound = 0, 1
    while bound * base <= _KEY_BOUND:
        fit, bound = fit + 1, bound * base
    spread = np.linspace(0, len(states) - 1, min(fit, len(states))).astype(np.intp).tolist()
    bound = 1  # every key is below it
    for k in spread + sorted(set(range(len(states))) - set(spread)):
        if bound * base > _KEY_BOUND:
            if (renumbered := _renumbered(keys, limit)) is None:
                return None
            keys, bound = renumbered
            # States near 2^63 leave no room for a key even after renumbering.
            if bound * base > _KEY_BOUND:
                return None
        keys *= base
        # Exact in int64, whatever the states' integer type: every state is below base.
        np.add(keys, states[k], out=keys, dtype=np.int64, casting="unsafe")
        bound *= base
    if (renumbered := _renumbered(keys, limit)) is None:
        return None
    keys, bound = renumbered
    first = np.empty(bound, dtype=np.intp)
    first[keys] = np.arange(keys.size)
    return states.take(first, axis=1), keys


def _distinct_paths(ensemble: PathEnsemble, n_states: int) -> "tuple[np.ndarray, np.ndarray | None]":
    """The paths an estimator reads, time-major, and each path's index into
    them, or None where they are every path; a ValidationError naming the
    first state above ``n_states``.

    The first call on an ensemble takes its largest state and builds its
    distinct-path table, or gives it up (see the module docstring), and
    keeps both on the ensemble for every later call."""
    if "_distinct" not in vars(ensemble):
        every = ensemble.paths.T
        top = int(every.max())
        table = _distinct_columns(every, top, _DISTINCT_SHARE * every.shape[1]) or (every, None)
        vars(ensemble)["_distinct"] = top, *table
    top, states, index = vars(ensemble)["_distinct"]
    if top > n_states:
        i, k = np.argwhere(ensemble.paths > n_states)[0]
        raise ValidationError(f"state {int(ensemble.paths[i, k])} above {n_states} in path {i} at time {k}")
    return states, index


def _path_totals(ensemble: PathEnsemble, cashflows: list[CashflowMatrix],
                 discount: DiscountVector) -> np.ndarray:
    """Discounted cash total of every path under each of K cash-flow
    matrices, shape (K, n_paths): one fixed-order pass over k for each
    distinct path, gathered by the paths' index."""
    n = ensemble.n
    if any(c.matrix.shape[0] != n + 1 for c in cashflows) or discount.values.shape[0] != n + 1:
        raise ValidationError("cash-flow or discount shape does not match the ensemble horizon")
    states, index = _distinct_paths(ensemble, cashflows[0].n_states)
    # Row s of weighted[k] is state s's cash, so the 1-based states index it; row 0 is never read.
    stacked = np.stack([c.matrix for c in cashflows], axis=2)
    weighted = np.zeros((n + 1, stacked.shape[1] + 1, len(cashflows)))
    np.multiply(discount.values[:, None, None], stacked, out=weighted[:, 1:])
    totals = np.zeros((states.shape[1], len(cashflows)))
    for k, row in enumerate(states):
        totals += weighted[k].take(row, axis=0)
    totals = np.ascontiguousarray(totals.T)
    return totals if index is None else totals.take(index, axis=1)


def _estimate(mean: float, residuals: np.ndarray, scale: float = 1.0) -> McEstimate:
    """``mean`` with the standard error of the residuals' mean divided by ``scale``; 0.0 from one path."""
    n_paths = residuals.shape[0]
    std_error = float(np.std(residuals, ddof=1) / (scale * np.sqrt(n_paths))) if n_paths > 1 else 0.0
    return McEstimate(mean=mean, std_error=std_error, n_paths=n_paths)


def mc_pv(ensemble: PathEnsemble, c: CashflowMatrix, discount: DiscountVector) -> McEstimate:
    """Monte Carlo estimate of the expected present value."""
    (values,) = _path_totals(ensemble, [c], discount)
    return _estimate(float(np.mean(values)), values)


def mc_premium(ensemble: PathEnsemble, c_in: CashflowMatrix, discount: DiscountVector,
               pay_states, offsets: ArrivalOffsets, m: int) -> McEstimate:
    """Monte Carlo estimate of the period premium paid in ``pay_states``.

    The numerator is the per-path discounted benefit total; the denominator
    is the per-path discounted total of the premium selector, i.e. of the
    times k < m spent in a premium state at or after its earliest arrival
    time.  The premium estimate is the ratio of means and its standard
    error comes from the delta method.
    """
    _check_inflows(c_in)
    selector = premium_selector(pay_states, offsets, m, ensemble.n, c_in.n_states)
    benefit, paying = _path_totals(ensemble, [c_in, selector], discount)
    mean_benefit = float(np.mean(benefit))
    mean_paying = float(np.mean(paying))
    if mean_paying == 0.0:
        raise ValidationError("no simulated path ever occupies a premium state; the ratio is undefined")
    premium = mean_benefit / mean_paying
    return _estimate(premium, benefit - premium * paying, mean_paying)


def empirical_distribution(ensemble: PathEnsemble, n_states: int) -> np.ndarray:
    """Occupancy frequencies by (time, state); shape (n+1, n_states)."""
    n_states = _integer("state count", n_states)
    states, index = _distinct_paths(ensemble, n_states)
    multiplicities = None if index is None else np.bincount(index, minlength=states.shape[1])
    # Counted by the 1-based state, so column 0 stays zero.
    counts = np.stack([np.bincount(row, multiplicities, minlength=n_states + 1) for row in states])
    return counts[:, 1:] / ensemble.n_paths


def frequency_vs_distribution(ensemble: PathEnsemble, dist: DistributionMatrix) -> tuple[float, float]:
    """Largest |frequency - probability| and the largest binomial SE."""
    frequencies = empirical_distribution(ensemble, dist.n_states)
    gaps = np.abs(frequencies - dist.matrix)
    ses = np.sqrt(frequencies * (1.0 - frequencies) / ensemble.n_paths)
    return float(gaps.max()), float(ses.max())
