"""Independent cross-checks for the matrix valuation: exhaustive path
enumeration on small models and Monte Carlo simulation on any model.

The simulator is counter-based: path i always consumes the same fixed block
of the Philox stream derived from the master seed, regardless of how paths
are batched into chunks.  Results are therefore bit-reproducible for a given
(master_seed, n_paths), whether generated serially, in chunks of any size,
or by parallel workers that split on path index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cashflow import CashflowMatrix, premium_selector
from .errors import ValidationError
from .lifetable import DistributionMatrix, TransitionSequence
from .statemodel import ArrivalOffsets
from .valuation import DiscountVector

#: Hard ceilings for exhaustive enumeration.
MAX_ENUM_STATES = 8
MAX_ENUM_HORIZON = 12

_PHILOX_WORDS_PER_BLOCK = 4


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths; entry (i, k) is the 1-based state at time k."""

    paths: np.ndarray  # shape (n_paths, n+1), integer dtype
    master_seed: int

    def __post_init__(self):
        if self.paths.ndim != 2:
            raise ValidationError(f"paths must be 2-D, got shape {self.paths.shape}")

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
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (n_states,):
        raise ValidationError(f"initial distribution has shape {initial.shape}, expected ({n_states},)")
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


def simulate(seq: TransitionSequence, initial: np.ndarray, n_paths: int, master_seed: int,
             chunk_size: int = 1 << 16) -> PathEnsemble:
    """Draw state paths X(0..n) under the period transition matrices.

    The first uniform of each path picks the initial state from ``initial``;
    uniform k picks the transition into time k.  See the module docstring
    for the reproducibility contract.
    """
    n, n_states = seq.n, seq.n_states
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (n_states,):
        raise ValidationError(f"initial distribution has shape {initial.shape}, expected ({n_states},)")
    if n_paths < 1:
        raise ValidationError("n_paths must be positive")
    if chunk_size < 1:
        raise ValidationError("chunk_size must be positive")
    if not 0 <= master_seed < 2 ** 64:
        raise ValidationError("master_seed must fit in an unsigned 64-bit integer")

    cumulative_initial = np.cumsum(initial)
    cumulative_initial[-1] = 1.0
    cumulative = np.cumsum(seq.matrices, axis=2)
    cumulative[:, :, -1] = 1.0

    dtype = np.int16 if n_states < 2 ** 15 else np.int32
    paths = np.empty((n_paths, n + 1), dtype=dtype)
    for start in range(0, n_paths, chunk_size):
        count = min(chunk_size, n_paths - start)
        u = _chunk_uniforms(master_seed, n, start, count)
        states = (cumulative_initial[None, :] < u[:, 0, None]).sum(axis=1).astype(dtype)
        paths[start:start + count, 0] = states
        for k in range(n):
            rows = cumulative[k, states]
            states = (rows < u[:, k + 1, None]).sum(axis=1).astype(dtype)
            paths[start:start + count, k + 1] = states
    paths += 1
    return PathEnsemble(paths=paths, master_seed=master_seed)


def _path_values(ensemble: PathEnsemble, c: CashflowMatrix, discount: DiscountVector) -> np.ndarray:
    """Discounted cash total of every path; one fixed-order pass over k."""
    n = ensemble.n
    if c.matrix.shape[0] != n + 1 or discount.values.shape[0] != n + 1:
        raise ValidationError("cash-flow or discount shape does not match the ensemble horizon")
    weighted = discount.values[:, None] * c.matrix
    values = np.zeros(ensemble.n_paths)
    for k in range(n + 1):
        values += weighted[k, ensemble.paths[:, k] - 1]
    return values


def mc_pv(ensemble: PathEnsemble, c: CashflowMatrix, discount: DiscountVector) -> McEstimate:
    """Monte Carlo estimate of the expected present value."""
    values = _path_values(ensemble, c, discount)
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
    benefit = _path_values(ensemble, c_in, discount)
    selector = premium_selector(pay_states, offsets, m, ensemble.n, c_in.n_states)
    paying = _path_values(ensemble, selector, discount)
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
    counts = np.empty((n + 1, n_states))
    for k in range(n + 1):
        counts[k] = np.bincount(ensemble.paths[:, k] - 1, minlength=n_states)
    return counts / ensemble.n_paths


def frequency_vs_distribution(ensemble: PathEnsemble, dist: DistributionMatrix) -> tuple[float, float]:
    """Largest |frequency - probability| and the largest binomial SE."""
    frequencies = empirical_distribution(ensemble, dist.n_states)
    gaps = np.abs(frequencies - dist.matrix)
    ses = np.sqrt(frequencies * (1.0 - frequencies) / ensemble.n_paths)
    return float(gaps.max()), float(ses.max())
