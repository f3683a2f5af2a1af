"""Independent cross-checks for the matrix valuation: exhaustive path
enumeration on small models and Monte Carlo simulation on any model.

The simulator is counter-based: path i always consumes the same fixed block
of the Philox stream derived from the master seed, regardless of how paths
are batched into chunks.  Results are therefore bit-reproducible for a given
(master_seed, n_paths), whether generated serially, in chunks of any size,
or by parallel workers that split on path index.

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
        if self.paths.ndim != 2:
            raise ValidationError(f"paths must be 2-D, got shape {self.paths.shape}")
        if self.paths.size and self.paths.min() < 1:
            i, k = np.argwhere(self.paths < 1)[0]
            raise ValidationError(f"state {int(self.paths[i, k])} below 1 in path {i} at time {k}")

    def _check_states_up_to(self, n_states: int):
        if self.paths.size and self.paths.max() > n_states:
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

    Refuses models beyond {MAX_ENUM_STATES} states or horizon {MAX_ENUM_HORIZON}:
    the path count grows exponentially and larger inputs belong to the
    simulator.
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


enumerate_pv.__doc__ = enumerate_pv.__doc__.format(
    MAX_ENUM_STATES=MAX_ENUM_STATES, MAX_ENUM_HORIZON=MAX_ENUM_HORIZON)


def _words_per_path(n: int) -> int:
    blocks = -(-(n + 1) // _PHILOX_WORDS_PER_BLOCK)
    return blocks * _PHILOX_WORDS_PER_BLOCK


def _chunk_uniforms(master_seed: int, n: int, start_path: int, count: int) -> np.ndarray:
    """Uniform draws for paths [start_path, start_path + count).

    Path i owns the words [i * w, (i + 1) * w) of the Philox stream keyed by
    the master seed, where w is the per-path block size; the chunk start
    only positions the counter, so batching cannot change any path's draws.
    """
    words = _words_per_path(n)
    blocks = start_path * (words // _PHILOX_WORDS_PER_BLOCK)
    generator = np.random.Generator(np.random.Philox(key=master_seed).advance(blocks))
    return generator.random((count, words))[:, : n + 1]


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
    memory and time scale with the nonzeros, not with N.  Chunks of
    ``chunk_size`` paths bound the uniform draws held at once; each chunk
    writes its states straight into its columns of the time-major path
    array (see ``PathEnsemble``).  On perfbench's mc-fixture workload
    (200 000 fixture paths, 2 cores, numpy 2.4.6) the peak resident size
    read 90.3-90.4 MB with the default of 32 768 and 91.7-91.8 MB with
    65 536, three runs each.  See the module docstring for the
    reproducibility contract.
    """
    n, n_states = seq.n, seq.n_states
    initial = initial_distribution(initial, n_states)
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
    for start in range(0, n_paths, chunk_size):
        count = min(chunk_size, n_paths - start)
        columns = time_major[:, start:start + count]
        u = _chunk_uniforms(master_seed, n, start, count).T.copy()
        states = _step(initial_thresholds[0], initial_lengths[0], np.zeros(count, dtype=np.intp), u[0])
        np.add(states, 1, out=columns[0])
        for k in range(n):
            states = _step(thresholds[k], lengths[k], states, u[k + 1])
            np.add(states, 1, out=columns[k + 1])
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
    for k, states in enumerate(ensemble.paths.T):
        totals += weighted[k].take(states - 1, axis=0)
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
    n = ensemble.n
    ensemble._check_states_up_to(n_states)
    counts = np.empty((n + 1, n_states))
    for k, states in enumerate(ensemble.paths.T):
        counts[k] = np.bincount(states - 1, minlength=n_states)
    return counts / ensemble.n_paths


def frequency_vs_distribution(ensemble: PathEnsemble, dist: DistributionMatrix) -> tuple[float, float]:
    """Largest |frequency - probability| and the largest binomial SE."""
    frequencies = empirical_distribution(ensemble, dist.n_states)
    gaps = np.abs(frequencies - dist.matrix)
    ses = np.sqrt(frequencies * (1.0 - frequencies) / ensemble.n_paths)
    return float(gaps.max()), float(ses.max())
