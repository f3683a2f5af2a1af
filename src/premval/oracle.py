"""Independent cross-checks for the matrix valuation: exhaustive path
enumeration on small models and Monte Carlo simulation on any model.

The simulator is counter-based: path i always consumes the same fixed block
of the Philox stream derived from the master seed, regardless of how paths
are batched into chunks.  Results are therefore bit-reproducible for a given
(master_seed, n_paths), whatever the chunk size and the number of threads.

Every loop over the path axis (``simulate``'s chunks, the gather behind
``mc_pv`` and ``mc_premium``, and ``empirical_distribution``'s counts) runs
a chunk of ``chunk_size`` paths (``CHUNK_SIZE`` in the estimators) on
T = max(1, min(cores, chunk_size // 8192)) threads, the calling thread
among them, in contiguous blocks of ceil(chunk_size / T) paths and never
on more threads than blocks; the cores are those ``os.sched_getaffinity``
(else ``os.cpu_count()``) reports.  There is no setting for it, and the
thread count changes no result: a block writes only its own paths, each
path's total is summed over k in the same order in every block, and
integer counts add exactly.  Threads hand the interpreter lock over at
every numpy call, so a block below 8 192 paths runs faster on one thread.
Median ``simulate`` times, one thread vs two, by block size (2 cores,
numpy 2.4.6, seven alternating runs; more cores not measured):

    block size   200 000 fixture paths   16 384 paths, N=200, n=120
         1 024   306 vs 436 ms           187 vs 266 ms
         2 048   258 vs 297 ms           151 vs 186 ms
         4 096   216 vs 202 ms           125 vs 118 ms
         8 192   189 vs 134 ms           114 vs  98 ms
        16 384   185 vs 120 ms           -

A uniform u moves a path from row c of cumulative probabilities (last entry
forced to 1.0) to the 0-based state ``#{j : c_j < u}``.  The cumulative sum
can change value only at column 0, at a nonzero column or at the last
column, so the count equals the sum over those columns w of len_w x
[c_w < u], where len_w is the number of columns up to the next such column.
This identity holds for every row, including rows whose cumulative sum
decreases at an entry in [-1e-12, 0), and it lets the simulator step with a
few thresholds per row instead of N.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .cashflow import CashflowMatrix, premium_selector
from .errors import ValidationError
from .lifetable import DistributionMatrix, TransitionSequence, initial_distribution
from .statemodel import ArrivalOffsets
from .valuation import DiscountVector

#: Hard ceilings for exhaustive enumeration.
MAX_ENUM_STATES = 8
MAX_ENUM_HORIZON = 12

_PHILOX_WORDS_PER_BLOCK = 4

#: Default number of paths simulated per chunk.
CHUNK_SIZE = 1 << 15
#: Fewest paths in a block before threads gain on it; see the module docstring.
_THREADED_PATHS = 1 << 13
#: Paths whose raw draws ``simulate`` holds at once before copying them
#: time-major: 0.9 MB of draws on the fixture.
_STAGED_PATHS = 1 << 12


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths; entry (i, k) is the 1-based state of path i at time k.

    States are numbered 1..N, as in the model; an ensemble holding a state
    below 1 is refused, and the estimators refuse one above their N,
    because they index cash flows by ``state - 1``.

    ``simulate`` stores the states time-major: ``paths`` is the transpose of
    a C-contiguous (n+1, n_paths) array, so ``paths.T[k]``, the state of
    every path at time k, is one contiguous vector.  The estimators read
    those rows; a C-ordered ``paths`` gives the same results, only slower.
    """

    paths: np.ndarray  # shape (n_paths, n+1), integer dtype
    master_seed: int

    def __post_init__(self):
        if self.paths.ndim != 2 or 0 in self.paths.shape:
            raise ValidationError(
                f"paths must be 2-D with at least one path and one time, got shape {self.paths.shape}")
        if not np.issubdtype(self.paths.dtype, np.integer):
            raise ValidationError(f"paths must hold integer states, got dtype {self.paths.dtype}")
        if self.paths.min() < 1:
            i, k = np.argwhere(self.paths < 1)[0]
            raise ValidationError(f"state {int(self.paths[i, k])} below 1 in path {i} at time {k}")

    def _check_states_up_to(self, n_states: int):
        if self.paths.max() > n_states:
            i, k = np.argwhere(self.paths > n_states)[0]
            raise ValidationError(f"state {int(self.paths[i, k])} above {n_states} in path {i} at time {k}")

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

    weighted = discount.values[:, None] * c.matrix
    q = seq.matrices
    total = 0.0

    def walk(k: int, state: int, probability: float, cash: float):
        nonlocal total
        cash += weighted[k, state]
        if k == n:
            total += probability * cash
            return
        row = q[k, state]
        for nxt in np.nonzero(row)[0]:
            walk(k + 1, int(nxt), probability * row[nxt], cash)

    for start in np.nonzero(initial)[0]:
        walk(0, int(start), float(initial[start]), 0.0)
    return total


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _path_blocks(n_paths: int, chunk_size: int) -> tuple[list[tuple[int, int]], int]:
    """Contiguous blocks [start, stop) covering [0, n_paths), and the number
    of threads to run them on, as the module docstring sets out."""
    threads = max(1, min(_usable_cores(), chunk_size // _THREADED_PATHS))
    size = -(-chunk_size // threads)
    blocks = [(start, min(start + size, n_paths)) for start in range(0, n_paths, size)]
    return blocks, min(threads, len(blocks))


def _run_blocks(function, blocks: list[tuple[int, int]], threads: int) -> list:
    """``function(worker, start, stop)`` for every block, results in block order.

    Worker w in [0, threads), the calling thread being worker 0, runs blocks
    w, w + threads, ... in turn, so a function can keep one set of buffers
    per worker.  An exception is re-raised once every thread has ended.
    """
    results = [None] * len(blocks)
    errors = []

    def work(worker: int):
        try:
            for index in range(worker, len(blocks), threads):
                results[index] = function(worker, *blocks[index])
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
    return results


def _words_per_path(n: int) -> int:
    blocks = -(-(n + 1) // _PHILOX_WORDS_PER_BLOCK)
    return blocks * _PHILOX_WORDS_PER_BLOCK


def _chunk_uniforms(master_seed: int, start_path: int, out: np.ndarray):
    """Fill ``out``, shape (count, w), with the uniform draws of paths
    [start_path, start_path + count).

    Path i owns the words [i * w, (i + 1) * w) of the Philox stream keyed by
    the master seed, where w is the per-path block size; the chunk start
    only positions the counter, so batching cannot change any path's draws.
    """
    blocks = start_path * (out.shape[1] // _PHILOX_WORDS_PER_BLOCK)
    np.random.Generator(np.random.Philox(key=master_seed).advance(blocks)).random(out=out)


def _step_tables(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length tables of the dense stepping rule for every row of (n, R, N).

    A row's dense cumulative sum, last entry forced to 1.0, can change value
    only at column 0, at a nonzero column or at the last column.  Row (k, i)
    keeps, in slots w = 0..W-1, the cumulative value ``thresholds[k, w, i]``
    at column 0 and at each nonzero column before the last, and in
    ``lengths[k, w, i]`` the number of columns from there up to the next such
    column or the last one.  Unused slots have length 0.  The last column is
    left out: its forced 1.0 is never below a draw from [0, 1).
    """
    n, n_rows, n_columns = matrices.shape
    # One period at a time: a whole-sequence mask would be an (n, N, N) temporary.
    flat = np.concatenate([np.flatnonzero(matrix != 0) + k * matrix.size
                           for k, matrix in enumerate(matrices)] or [np.empty(0, dtype=np.intp)])
    column = flat % n_columns
    row_starts = np.arange(n * n_rows) * n_columns
    candidates = np.sort(np.concatenate([row_starts, flat[(column != 0) & (column != n_columns - 1)]]))
    row, column = np.divmod(candidates, n_columns)
    slot = np.arange(candidates.size) - np.searchsorted(candidates, row_starts)[row]
    width = int(slot.max(initial=0)) + 1
    # The skipped columns hold exact zeros, so a sequential sum over the
    # candidates' entries reproduces the dense cumulative sum bit for bit.
    thresholds = np.zeros((n * n_rows, width))
    thresholds[row, slot] = matrices.take(candidates)
    np.cumsum(thresholds, axis=1, out=thresholds)
    following = np.full(candidates.size, n_columns - 1)
    same_row = row[1:] == row[:-1]
    following[:-1][same_row] = column[1:][same_row]
    lengths = np.zeros((n * n_rows, width), dtype=np.intp)
    lengths[row, slot] = following - column

    def by_slot(table):
        return np.ascontiguousarray(table.reshape(n, n_rows, width).transpose(0, 2, 1))

    return by_slot(thresholds), by_slot(lengths)


def _step(thresholds: np.ndarray, lengths: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next 0-based states, ``#{j : cumulative[state, j] < u}``, from one
    period's (W, N) tables: the sum over slots of length x [threshold < u]."""
    following = np.zeros_like(states)
    below = np.empty(states.shape, dtype=bool)
    for w in range(thresholds.shape[0]):
        np.less(thresholds[w].take(states), u, out=below)
        following += lengths[w].take(states) * below
    return following


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__} {value}") from None


def simulate(seq: TransitionSequence, initial: np.ndarray, n_paths: int, master_seed: int,
             chunk_size: int = CHUNK_SIZE) -> PathEnsemble:
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

    Each step gathers a path's row from compact run-length tables (see
    ``_step_tables``) instead of a dense row of N cumulative values, so
    memory and time scale with the nonzeros, not with N.  ``chunk_size``
    bounds the paths whose uniform draws are held at once, counted across
    all threads: T = max(1, min(cores, chunk_size // 8192)) threads, as
    measured in the module docstring, each step blocks of ceil(chunk_size /
    T) paths and write their states straight into their columns of the
    time-major path array (see ``PathEnsemble``).  A block's draws are staged
    ``_STAGED_PATHS`` paths at a time into its time-major uniforms, and
    each thread's buffers are allocated once per call by the calling
    thread, so no helper thread's malloc arena keeps them once freed.
    ``n_paths``, ``master_seed`` and ``chunk_size`` must be integers (numpy
    integers included).  See the module docstring for the reproducibility
    contract.
    """
    n, n_states = seq.n, seq.n_states
    initial = initial_distribution(initial, n_states)
    n_paths = _integer("n_paths", n_paths)
    master_seed = _integer("master_seed", master_seed)
    chunk_size = _integer("chunk_size", chunk_size)
    if n_paths < 1:
        raise ValidationError("n_paths must be positive")
    if chunk_size < 1:
        raise ValidationError("chunk_size must be positive")
    if not 0 <= master_seed < 2 ** 64:
        raise ValidationError("master_seed must fit in an unsigned 64-bit integer")

    initial_thresholds, initial_lengths = _step_tables(initial[None, None, :])
    thresholds, lengths = _step_tables(seq.matrices)

    dtype = np.int16 if n_states < 2 ** 15 else np.int32
    # Time-major, so that every step reads and writes contiguous vectors.
    time_major = np.empty((n + 1, n_paths), dtype=dtype)
    blocks, threads = _path_blocks(n_paths, chunk_size)
    size = blocks[0][1]
    buffers = [(np.empty((min(size, _STAGED_PATHS), _words_per_path(n))), np.empty((n + 1, size)))
               for _ in range(threads)]

    def simulate_block(worker: int, start: int, stop: int):
        count = stop - start
        draws, u = buffers[worker][0], buffers[worker][1][:, :count]
        for first in range(0, count, len(draws)):
            staged = draws[:min(len(draws), count - first)]
            _chunk_uniforms(master_seed, start + first, staged)
            u[:, first:first + len(staged)] = staged[:, :n + 1].T
        columns = time_major[:, start:stop]
        states = _step(initial_thresholds[0], initial_lengths[0], np.zeros(count, dtype=np.intp), u[0])
        np.add(states, 1, out=columns[0])
        for k in range(n):
            states = _step(thresholds[k], lengths[k], states, u[k + 1])
            np.add(states, 1, out=columns[k + 1])

    _run_blocks(simulate_block, blocks, threads)
    return PathEnsemble(paths=time_major.T, master_seed=master_seed)


def _path_totals(ensemble: PathEnsemble, cashflows: list[CashflowMatrix],
                 discount: DiscountVector) -> np.ndarray:
    """Discounted cash total of every path under each of K cash-flow
    matrices, shape (K, n_paths); one fixed-order pass over k."""
    n = ensemble.n
    if any(c.matrix.shape[0] != n + 1 for c in cashflows) or discount.values.shape[0] != n + 1:
        raise ValidationError("cash-flow or discount shape does not match the ensemble horizon")
    ensemble._check_states_up_to(cashflows[0].n_states)
    weighted = discount.values[:, None, None] * np.stack([c.matrix for c in cashflows], axis=2)
    totals = np.zeros((ensemble.n_paths, len(cashflows)))

    def add_block(worker: int, start: int, stop: int):
        block = totals[start:stop]
        for k, states in enumerate(ensemble.paths.T):
            block += weighted[k].take(states[start:stop] - 1, axis=0)

    _run_blocks(add_block, *_path_blocks(ensemble.n_paths, CHUNK_SIZE))
    return np.ascontiguousarray(totals.T)


def mc_pv(ensemble: PathEnsemble, c: CashflowMatrix, discount: DiscountVector) -> McEstimate:
    """Monte Carlo estimate of the expected present value."""
    (values,) = _path_totals(ensemble, [c], discount)
    mean = float(np.mean(values))
    if values.shape[0] > 1:
        std_error = float(np.std(values, ddof=1) / np.sqrt(values.shape[0]))
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, n_paths=values.shape[0])


def mc_premium(ensemble: PathEnsemble, c_in: CashflowMatrix, discount: DiscountVector,
               pay_states, offsets: ArrivalOffsets, m: int) -> McEstimate:
    """Monte Carlo estimate of the period premium paid in ``pay_states``.

    The numerator is the per-path discounted benefit total; the denominator
    is the per-path discounted total of the premium selector, i.e. of the
    times k < m spent in a premium state at or after its earliest arrival
    time.  The premium estimate is the ratio of means and its standard
    error comes from the delta method.
    """
    if np.any(c_in.matrix < 0):
        raise ValidationError("negative entry in inflow matrix")
    selector = premium_selector(pay_states, offsets, m, ensemble.n, c_in.n_states)
    benefit, paying = _path_totals(ensemble, [c_in, selector], discount)
    mean_benefit = float(np.mean(benefit))
    mean_paying = float(np.mean(paying))
    if mean_paying == 0.0:
        raise ValidationError("no simulated path ever occupies a premium state; the ratio is undefined")
    premium = mean_benefit / mean_paying
    residuals = benefit - premium * paying
    if ensemble.n_paths > 1:
        std_error = float(np.std(residuals, ddof=1) / (mean_paying * np.sqrt(ensemble.n_paths)))
    else:
        std_error = 0.0
    return McEstimate(mean=premium, std_error=std_error, n_paths=ensemble.n_paths)


def empirical_distribution(ensemble: PathEnsemble, n_states: int) -> np.ndarray:
    """Occupancy frequencies by (time, state); shape (n+1, n_states)."""
    ensemble._check_states_up_to(n_states)

    def count_block(worker: int, start: int, stop: int) -> np.ndarray:
        return np.stack([np.bincount(states[start:stop] - 1, minlength=n_states)
                         for states in ensemble.paths.T])

    counts = _run_blocks(count_block, *_path_blocks(ensemble.n_paths, CHUNK_SIZE))
    return sum(counts, np.zeros((ensemble.n + 1, n_states), dtype=np.intp)) / ensemble.n_paths


def frequency_vs_distribution(ensemble: PathEnsemble, dist: DistributionMatrix) -> tuple[float, float]:
    """Largest |frequency - probability| and the largest binomial SE."""
    frequencies = empirical_distribution(ensemble, dist.n_states)
    gaps = np.abs(frequencies - dist.matrix)
    ses = np.sqrt(frequencies * (1.0 - frequencies) / ensemble.n_paths)
    return float(gaps.max()), float(ses.max())
