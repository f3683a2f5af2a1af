"""Increment-decrement life tables and the chains built from them.

A table holds, for each period k = 0..n, the number of lives occupying each
tracked state (``l`` columns) and the number decrementing along each tracked
transition during [k, k+1) (``d`` columns).  Occupancy is tracked for
transient non-reflex states; reflex states need no columns of their own
because their occupants all leave after one period, so their occupancy
equals the previous period's inflow and can be inferred.  A tabulated
occupancy column for a reflex state is accepted and taken as authoritative.

From a table and its model we build the period transition matrices and the
row-stacked distribution of the process started from a given initial state;
:func:`build_chain` runs the whole way from a table to a :class:`Chain`.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .statemodel import ArrivalOffsets, StateModel, classify_states, shortest_arrival

_ROW_SUM_TOL = 1e-12
_PROB_TOL = 1e-12
_COUNT_SLACK = 1e-9

_L_COLUMN = re.compile(r"^l_(\d+)$")
_D_COLUMN = re.compile(r"^d_(\d+)_(\d+)$")


@dataclass(frozen=True)
class IncrementDecrementTable:
    """Occupancy and decrement counts for periods k = 0..n.

    Counts are nonnegative reals (graduated tables are common).  The entry
    age is metadata only; every computation is keyed by the period index.
    """

    n: int
    occupancy: Mapping[int, np.ndarray]
    decrements: Mapping[tuple[int, int], np.ndarray]
    entry_age: int = 0

    def __post_init__(self):
        for name, column in self._columns():
            if column.shape != (self.n + 1,):
                raise ValidationError(f"column {name!r} has {column.shape[0]} rows, expected {self.n + 1}")
            if not np.all(np.isfinite(column)):
                raise ValidationError(f"non-finite count in column {name!r}")
            if np.any(column < 0):
                k = int(np.argmax(column < 0))
                raise ValidationError(f"negative count at k={k}, column {name!r}")
        for i, l_col in self.occupancy.items():
            outflow = sum(col for (a, _b), col in self.decrements.items() if a == i)
            if isinstance(outflow, np.ndarray):
                bad = outflow > l_col + _COUNT_SLACK * np.maximum(1.0, l_col)
                if np.any(bad):
                    k = int(np.argmax(bad))
                    raise ValidationError(f"decrement exceeds occupancy at k={k} for state {i}")

    def _columns(self):
        for i, col in sorted(self.occupancy.items()):
            yield f"l_{i}", col
        for (i, j), col in sorted(self.decrements.items()):
            yield f"d_{i}_{j}", col


@dataclass(frozen=True)
class TransitionSequence:
    """Period transition matrices Q(0), ..., Q(n-1), each row-stochastic."""

    matrices: np.ndarray  # shape (n, N, N)

    def __post_init__(self):
        q = self.matrices
        if q.ndim != 3 or q.shape[1] != q.shape[2]:
            raise ValidationError(f"transition sequence must be (n, N, N), got {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValidationError("non-finite transition probability")
        if np.any(q < -_PROB_TOL) or np.any(q > 1 + _PROB_TOL):
            raise ValidationError("transition probability outside [0, 1]")
        sums = q.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            k, i = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise ValidationError(f"row {i + 1} of Q({k}) sums to {sums[k, i]!r}, not 1")

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_states(self) -> int:
        return self.matrices.shape[1]


@dataclass(frozen=True)
class DistributionMatrix:
    """Row k holds the state distribution of the process at time k."""

    matrix: np.ndarray  # shape (n+1, N)

    def __post_init__(self):
        d = self.matrix
        if d.ndim != 2:
            raise ValidationError(f"distribution matrix must be 2-D, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValidationError("non-finite occupancy probability")
        if np.any(d < -_PROB_TOL) or np.any(d > 1 + _PROB_TOL):
            raise ValidationError("occupancy probability outside [0, 1]")
        sums = d.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            k = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(f"row {k} sums to {sums[k]!r}, not 1")

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def n_states(self) -> int:
        return self.matrix.shape[1]


def _parse_header(names: list[str]) -> tuple[list[int], list[tuple[int, int]]]:
    if not names or names[0] != "k":
        raise ParseError("first CSV column must be 'k'")
    l_states: list[int] = []
    d_pairs: list[tuple[int, int]] = []
    for name in names[1:]:
        m = _L_COLUMN.match(name)
        if m:
            l_states.append(int(m.group(1)))
            continue
        m = _D_COLUMN.match(name)
        if m:
            d_pairs.append((int(m.group(1)), int(m.group(2))))
            continue
        raise ParseError(f"unrecognized column name {name!r} (expected l_<i> or d_<i>_<j>)")
    if len(set(l_states)) != len(l_states) or len(set(d_pairs)) != len(d_pairs):
        raise ParseError("duplicate column in CSV header")
    return l_states, d_pairs


def load_table(path_or_text, model: StateModel, entry_age: int = 0) -> IncrementDecrementTable:
    """Load a life table CSV and check it against the model.

    The header is ``k,l_<i>...,d_<i>_<j>...``; rows run k = 0..n in order
    and the row count fixes the horizon.  Occupancy columns are required
    for every transient non-reflex state and optional for reflex states;
    decrement columns are required exactly for the transitions leaving
    transient non-reflex states.  Reflex and absorbing states get no
    decrement columns (their exits are implied).
    """
    text = path_or_text
    if not isinstance(path_or_text, str) or "\n" not in path_or_text:
        try:
            with open(path_or_text, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read table file {path_or_text}: {exc}") from exc

    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ParseError("empty table file")
    header = [name.strip() for name in rows[0]]
    l_states, d_pairs = _parse_header(header)

    classes = classify_states(model)
    problems: list[str] = []
    required_l = sorted(classes.transient)
    required_d = sorted((i, j) for (i, j) in model.transitions if i in classes.transient)
    for i in required_l:
        if i not in l_states:
            problems.append(f"missing column 'l_{i}'")
    for (i, j) in required_d:
        if (i, j) not in d_pairs:
            problems.append(f"missing column 'd_{i}_{j}'")
    for i in l_states:
        if i not in classes.transient and i not in classes.reflex:
            problems.append(f"column 'l_{i}' does not match a transient or reflex state")
    for (i, j) in d_pairs:
        if (i, j) not in required_d:
            problems.append(f"column 'd_{i}_{j}' does not match a transition out of a transient state")
    if problems:
        raise ValidationError("; ".join(problems))

    n = len(rows) - 2
    if n < 1:
        raise ParseError("table needs at least rows k=0 and k=1")
    data = np.empty((n + 1, len(header) - 1))
    for r, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ParseError(f"row {r} has {len(row)} fields, expected {len(header)}")
        try:
            k = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"row {r}: {exc}") from exc
        if k != r:
            raise ParseError(f"rows must run k=0..n in order; found k={k} at position {r}")
        data[r] = values

    occupancy = {}
    decrements = {}
    for idx, name in enumerate(header[1:]):
        m = _L_COLUMN.match(name)
        if m:
            occupancy[int(m.group(1))] = data[:, idx].copy()
        else:
            m = _D_COLUMN.match(name)
            decrements[(int(m.group(1)), int(m.group(2)))] = data[:, idx].copy()
    return IncrementDecrementTable(n=n, occupancy=occupancy, decrements=decrements, entry_age=entry_age)


def infer_reflex_columns(table: IncrementDecrementTable, model: StateModel) -> IncrementDecrementTable:
    """Fill in occupancy and exit counts for reflex states.

    A reflex state is always left after one period, so its occupancy at k
    equals the total inflow during [k-1, k): the tabulated decrements into
    it, or the full occupancy of a reflex feeder (whose occupants all move
    on).  Inferred occupancies start at zero for k = 0.  The single exit
    count of a reflex state equals its occupancy.  Tabulated reflex
    occupancy columns are kept as-is; already-present values are never
    overwritten, so the operation is idempotent.
    """
    classes = classify_states(model)
    occupancy = {i: col.copy() for i, col in table.occupancy.items()}
    decrements = {pair: col.copy() for pair, col in table.decrements.items()}
    n = table.n

    for r in sorted(classes.reflex):
        if not model.predecessors(r):
            raise ValidationError(f"reflex state {r} has no inbound transition; its occupancy cannot be inferred")

    todo = [r for r in sorted(classes.reflex) if r not in occupancy]
    for r in todo:
        occupancy[r] = np.zeros(n + 1)
    # Occupancy at k depends only on period k-1, so one forward sweep fills
    # every reflex state even when reflex states feed each other.
    for k in range(1, n + 1):
        for r in todo:
            inflow = 0.0
            for i in model.predecessors(r):
                if (i, r) in decrements:
                    inflow += decrements[(i, r)][k - 1]
                elif i in classes.reflex:
                    inflow += occupancy[i][k - 1]
                else:
                    raise ValidationError(f"no decrement column for transition ({i}, {r})")
            occupancy[r][k] = inflow

    for r in sorted(classes.reflex):
        successor = model.successors(r)[0]
        if (r, successor) not in decrements:
            decrements[(r, successor)] = occupancy[r].copy()
    return IncrementDecrementTable(n=n, occupancy=occupancy, decrements=decrements, entry_age=table.entry_age)


def transition_sequence(table: IncrementDecrementTable, model: StateModel) -> TransitionSequence:
    """Build the period transition matrices from table counts.

    Off-diagonal entries of row i are decrement counts over occupancy; the
    diagonal is one minus the row's exits.  Reflex rows route all mass to
    the unique successor, absorbing rows keep it in place, and rows for
    periods where a state is unoccupied fall back to the identity row.
    """
    classes = classify_states(model)
    n, n_states = table.n, model.n_states
    q = np.zeros((n, n_states, n_states))
    for i in sorted(classes.absorbing):
        q[:, i - 1, i - 1] = 1.0
    for i in sorted(classes.reflex):
        successor = model.successors(i)[0]
        q[:, i - 1, successor - 1] = 1.0
    for i in sorted(classes.transient):
        if i not in table.occupancy:
            raise ValidationError(f"missing occupancy column 'l_{i}'")
        out_pairs = [(i, j) for j in model.successors(i)]
        for pair in out_pairs:
            if pair not in table.decrements:
                raise ValidationError(f"missing decrement column 'd_{pair[0]}_{pair[1]}'")
        for k in range(n):
            living = table.occupancy[i][k]
            if living <= 0.0:
                q[k, i - 1, i - 1] = 1.0
                continue
            total = 0.0
            for (a, b) in out_pairs:
                p = table.decrements[(a, b)][k] / living
                if p < -_PROB_TOL or p > 1 + _PROB_TOL:
                    raise ValidationError(f"probability {p!r} outside [0, 1] at k={k}, transition ({a}, {b})")
                p = min(max(p, 0.0), 1.0)
                q[k, i - 1, b - 1] = p
                total += p
            diagonal = 1.0 - total
            if diagonal < -_PROB_TOL:
                raise ValidationError(f"exit probabilities exceed 1 at k={k}, state {i}")
            q[k, i - 1, i - 1] = max(diagonal, 0.0)
    return TransitionSequence(q)


def unit_distribution(n_states: int, state: int) -> np.ndarray:
    """Initial distribution concentrated on one state."""
    if not 1 <= state <= n_states:
        raise ValidationError(f"state {state} out of range 1..{n_states}")
    p = np.zeros(n_states)
    p[state - 1] = 1.0
    return p


def distribution_matrix(seq: TransitionSequence, initial: np.ndarray) -> DistributionMatrix:
    """Stack the state distribution at times 0..n, starting from ``initial``."""
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (seq.n_states,):
        raise ValidationError(f"initial distribution has shape {initial.shape}, expected ({seq.n_states},)")
    if abs(initial.sum() - 1.0) > _ROW_SUM_TOL or np.any(initial < -_PROB_TOL):
        raise ValidationError("initial distribution must be nonnegative and sum to 1")
    rows = np.empty((seq.n + 1, seq.n_states))
    rows[0] = initial
    p = initial
    for k in range(seq.n):
        p = p @ seq.matrices[k]
        rows[k + 1] = p
    return DistributionMatrix(rows)


@dataclass(frozen=True)
class Chain:
    """A model with its table, transition matrices and occupancy distribution.

    ``offsets`` count from the model's initial state, whatever ``initial`` is.
    """

    model: StateModel
    table: IncrementDecrementTable
    seq: TransitionSequence
    initial: np.ndarray
    dist: DistributionMatrix
    offsets: ArrivalOffsets


def build_chain(model: StateModel, table_source, initial_state: "int | None" = None,
                entry_age: int = 0) -> Chain:
    """Chain from a table (path or CSV text), started in ``initial_state`` or the model's."""
    table = infer_reflex_columns(load_table(table_source, model, entry_age), model)
    seq = transition_sequence(table, model)
    initial = unit_distribution(model.n_states, model.initial_state if initial_state is None else initial_state)
    return Chain(model, table, seq, initial, distribution_matrix(seq, initial), shortest_arrival(model))


def state_probability(dist: DistributionMatrix, t: int, state: int) -> float:
    """Probability of occupying ``state`` at time ``t``."""
    if not 0 <= t <= dist.n:
        raise ValidationError(f"time {t} out of range 0..{dist.n}")
    if not 1 <= state <= dist.n_states:
        raise ValidationError(f"state {state} out of range 1..{dist.n_states}")
    return float(dist.matrix[t, state - 1])


def allowed_pattern(model: StateModel) -> np.ndarray:
    """Boolean mask of entries that may be nonzero in any period matrix.

    Transitions of the model are allowed, transient non-reflex and
    absorbing states may hold their diagonal, and reflex diagonals are
    forced to zero.
    """
    classes = classify_states(model)
    mask = np.zeros((model.n_states, model.n_states), dtype=bool)
    for (i, j) in model.transitions:
        mask[i - 1, j - 1] = True
    for i in classes.transient | classes.absorbing:
        mask[i - 1, i - 1] = True
    return mask


def pattern_violations(seq: TransitionSequence, model: StateModel) -> list[tuple[int, int, int]]:
    """(k, i, j) entries that are nonzero where the model allows none."""
    mask = allowed_pattern(model)
    bad = (seq.matrices != 0.0) & ~mask[None, :, :]
    return [(int(k), int(i) + 1, int(j) + 1) for k, i, j in zip(*np.nonzero(bad))]


def diagonal_residuals(table: IncrementDecrementTable, model: StateModel, tol: float = 1e-9) -> dict[tuple[int, int], float]:
    """Gap between two diagonal conventions, keyed by (k, state).

    The row-complement convention used here sets the stay-put probability
    to one minus the exit probabilities.  An alternative convention divides
    next-period occupancy net of exits by current occupancy; the gap
    between the two equals the net occupancy change over the period, so
    nonzero residuals flag entrant or exit flows that the alternative
    convention would misread (or an inconsistent table).
    """
    classes = classify_states(model)
    residuals: dict[tuple[int, int], float] = {}
    for i in sorted(classes.transient):
        if i not in table.occupancy:
            continue
        l_col = table.occupancy[i]
        for k in range(table.n):
            if l_col[k] <= 0.0:
                continue
            exits = sum(table.decrements[(i, j)][k] for j in model.successors(i) if (i, j) in table.decrements)
            alternative = (l_col[k + 1] - exits) / l_col[k]
            row_complement = 1.0 - exits / l_col[k]
            gap = alternative - row_complement
            if abs(gap) > tol:
                residuals[(k, i)] = float(gap)
    return residuals
