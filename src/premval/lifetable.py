"""Increment-decrement life tables and the chains built from them.

A table holds, for each period k = 0..n, the number of lives occupying each
tracked state (``l`` columns) and the number decrementing along each tracked
transition during [k, k+1) (``d`` columns), as the columns of one read-only
array that every reader here indexes.  Occupancy is tracked for
transient non-reflex states; reflex states need no columns of their own
because their occupants all leave after one period, so their occupancy
equals the previous period's inflow and can be inferred.  A tabulated
occupancy column for a reflex state is accepted and taken as authoritative.

From a table and its model we build the period transition matrices and the
row-stacked distribution of the process started from a given initial state;
:func:`build_chain` runs the whole way from a table to a :class:`Chain`.
The matrices live on the edges of the state graph, the entries the model
lets be nonzero (:func:`allowed_pattern`): a :class:`TransitionSequence`
holds one (n, E) array of probabilities on a fixed edge list, and builds
the dense (n, N, N) array only when ``matrices`` is read.  D is stepped on
the same edges, each column adding its in-edges in stored order, no BLAS.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import _REAL_KINDS, ParseError, ValidationError, _integer, _read_only, read_text
from .statemodel import ArrivalOffsets, StateClassification, StateModel, classify_states, shortest_arrival

_ROW_SUM_TOL = 1e-12
_PROB_TOL = 1e-12
_COUNT_SLACK = 1e-9
_RESIDUAL_TOL = 1e-9

_COLUMN = re.compile(r"l_(\d+)|d_(\d+)_(\d+)")
# One line of a table text, its "\n" kept, as a text stream yields it.
_LINE = re.compile(r"[^\n]*\n|[^\n]+")
# The bytes of a whole-count table body, and the others a plain body may hold; see _plain_table.
_WHOLE = b"0123456789,\n"
_FRACTION = b".eE+-"


@dataclass(frozen=True)
class IncrementDecrementTable:
    """Occupancy and decrement counts for periods k = 0..n.

    Counts are nonnegative reals (graduated tables are common).  The entry
    age is metadata only; every computation is keyed by the period index.

    A table owns one read-only float array of counts, row k for period k.
    Its column 0 holds zeros, which pad gathers of a state's exits, and
    ``_column`` gives the column of each state's ``l`` count and each
    transition's ``d`` count.  ``occupancy`` and ``decrements`` are
    read-only mappings, in the order they were given, onto read-only column
    views of that array, so no count can change once checked.  The
    constructor copies the mappings it is given into a new array in
    ``_columns`` order; ``load_table`` keeps the file's columns with k's
    zeroed, and ``infer_reflex_columns`` adds a column per inferred
    occupancy and lets a reflex state's exit share its occupancy's column.

    The columns are checked in ``_columns`` order (occupancy by state, then
    decrements by transition): length, then non-finite counts, then
    negative ones.  Then each state's outflow, its decrement columns added
    in the decrements' mapping order from +0.0, must not exceed its
    occupancy beyond a 1e-9 relative slack; the fault named is the first
    state in the occupancy's mapping order, then the first k.  A table
    ``infer_reflex_columns`` returns re-checks the outflow of its reflex
    states only: no other state's columns or exits differ from the checked
    table it came from.
    """

    n: int
    occupancy: Mapping[int, np.ndarray]
    decrements: Mapping[tuple[int, int], np.ndarray]
    entry_age: int = 0

    def __post_init__(self):
        vars(self)["n"] = _integer("horizon n", self.n)
        keys = [*sorted(self.occupancy), *sorted(self.decrements)]
        given = {**self.occupancy, **self.decrements}
        try:
            counts = np.array([np.zeros(self.n + 1), *map(given.get, keys)])
            if counts.dtype.kind not in _REAL_KINDS:
                raise TypeError
            counts = counts.astype(float, copy=False).T
        except (TypeError, ValueError):  # a column that is not n + 1 numbers
            self._check_columns()
            raise
        column = {key: c for c, key in enumerate(keys, 1)}
        self._own(counts, {i: column[i] for i in self.occupancy}, {pair: column[pair] for pair in self.decrements})

    @classmethod
    def _of(cls, n: int, counts: np.ndarray, occupancy: dict, decrements: dict, entry_age: int,
            outflows=None):
        """The table over ``counts``, checked, given the column of each state
        and each transition in the mapping orders the table keeps; see ``_own``
        for ``outflows``."""
        table = object.__new__(cls)
        vars(table).update(n=n, entry_age=entry_age)
        table._own(counts, occupancy, decrements, outflows)
        return table

    def _own(self, counts: np.ndarray, occupancy: dict, decrements: dict, outflows=None):
        """Take ``counts`` read-only, point the mappings at its columns, and check it.

        The outflow check covers the states in ``outflows``, every state in
        ``occupancy`` when None; the other checks cover the whole array.
        """
        counts.flags.writeable = False
        views = list(counts.T)
        vars(self).update(_counts=counts, _column={**occupancy, **decrements},
                          occupancy=MappingProxyType({i: views[c] for i, c in occupancy.items()}),
                          decrements=MappingProxyType({pair: views[c] for pair, c in decrements.items()}))
        if not (np.min(counts, initial=np.inf) >= 0.0 and np.max(counts, initial=0.0) < np.inf):
            self._check_columns()
        leaving: dict[int, list[int]] = {i: [] for i in occupancy if outflows is None or i in outflows}
        for (i, _), c in decrements.items():
            if i in leaving:
                leaving[i].append(c)
        width = max(map(len, leaving.values()), default=0)
        # Column 0, all zeros, pads the feeds.
        feeds = np.array([c + [0] * (width - len(c)) for c in leaving.values()], dtype=np.intp)
        feeds = feeds.reshape(len(leaving), width)
        living = counts.T[[occupancy[i] for i in leaving]]
        with np.errstate(over="ignore"):  # a sum past the largest float is inf, and exceeds the occupancy
            outflow = sum((counts.T[f] for f in feeds.T), np.zeros((len(leaving), self.n + 1)))
            bad = outflow > living + _COUNT_SLACK * np.maximum(1.0, living)
        if bad.any():
            s, k = np.argwhere(bad)[0]
            raise ValidationError(f"decrement exceeds occupancy at k={k} for state {list(leaving)[s]}")

    def __reduce__(self):
        # The read-only mappings do not pickle; a copy is rebuilt from them.
        return IncrementDecrementTable, (self.n, dict(self.occupancy), dict(self.decrements), self.entry_age)

    def _check_columns(self):
        """Refuse the first column, in ``_columns`` order, that is not a sequence of
        numbers, or is one of the wrong length, with a non-finite count, then a
        negative one."""
        for name, column in self._columns():
            try:
                column = np.asarray(column)
                column = None if column.dtype.kind not in _REAL_KINDS else column.astype(float, copy=False)
            except (TypeError, ValueError):
                column = None
            if column is None or column.ndim == 0:
                raise ValidationError(f"column {name!r} is not a sequence of {self.n + 1} counts")
            if column.shape != (self.n + 1,):
                raise ValidationError(f"column {name!r} has {column.shape[0]} rows, expected {self.n + 1}")
            if not np.isfinite(column).all():
                raise ValidationError(f"non-finite count in column {name!r}")
            if (column < 0).any():
                raise ValidationError(f"negative count at k={int(np.argmax(column < 0))}, column {name!r}")

    def _columns(self):
        for i, col in sorted(self.occupancy.items()):
            yield f"l_{i}", col
        for (i, j), col in sorted(self.decrements.items()):
            yield f"d_{i}_{j}", col


@dataclass(frozen=True, kw_only=True)
class TransitionSequence:
    """Period transition matrices Q(0), ..., Q(n-1), each row-stochastic,
    stored on the edges of the state graph.

    ``rows`` and ``columns`` hold the 0-based (row, column) of the E entries
    that may be nonzero in some period, as distinct integers in 0..N-1,
    sorted by (row, column); ``probabilities[k, e]`` is Q(k)'s entry at edge
    e, and every entry off the edges is +0.0.  ``transition_sequence`` puts
    the model's transitions and transient and absorbing diagonals there.

    Checked for the state count, edges and shape, then non-finite and range
    on the edges (min and max propagate NaN), then row sums.  A row sum adds
    the row's edges in column order, starting from +0.0, so a row with no
    edge sums to 0.0; all of them come from one ``np.add.at`` over the
    edges.  The fault named is the first (k, row) with the largest distance
    from 1.  The three arrays are read-only views, so a checked sequence
    stays as checked.
    """

    n_states: int
    rows: np.ndarray  # shape (E,)
    columns: np.ndarray  # shape (E,)
    probabilities: np.ndarray  # shape (n, E)

    def __post_init__(self):
        if (n_states := _integer("state count", self.n_states)) < 1:
            raise ValidationError("a transition sequence needs at least one state")
        edges = [np.asarray(a) for a in (self.rows, self.columns)]
        whole = all(a.dtype.kind in "iu" or a.size == 0 for a in edges)  # [] reads as floats
        rows, columns = (_read_only(a, "edges", np.intp) if whole else a for a in edges)
        p = _read_only(self.probabilities, "transition probabilities", float)
        if (not whole or p.ndim != 2 or not rows.shape == columns.shape == p.shape[1:]
                or np.any((np.minimum(rows, columns) < 0) | (np.maximum(rows, columns) >= n_states))
                or np.any(np.diff(rows * n_states + columns) <= 0)):
            raise ValidationError("transition sequence edges must be distinct (row, column) pairs in 0..N-1, "
                                  "sorted, with one probability per period and edge")
        vars(self).update(n_states=n_states, rows=rows, columns=columns, probabilities=p)
        lo, hi = np.min(p, initial=0.0), np.max(p, initial=0.0)
        if not np.isfinite([lo, hi]).all():
            raise ValidationError("non-finite transition probability")
        if lo < -_PROB_TOL or hi > 1 + _PROB_TOL:
            raise ValidationError("transition probability outside [0, 1]")
        # Each (k, row) adds its edges in edge order, from +0.0.
        sums = np.zeros((self.n, n_states))
        np.add.at(sums, (slice(None), rows), p)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            k, i = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise ValidationError(f"row {i + 1} of Q({k}) sums to {float(sums[k, i])!r}, not 1")

    @property
    def n(self) -> int:
        return self.probabilities.shape[0]

    @property
    def matrices(self) -> np.ndarray:
        """Dense (n, N, N) copy of the sequence, built on each access; the library
        never reads it, and keeps it for callers outside it."""
        q = np.zeros((self.n, self.n_states, self.n_states))
        q[:, self.rows, self.columns] = self.probabilities
        return q


@dataclass(frozen=True)
class DistributionMatrix:
    """Row k holds the state distribution of the process at time k.

    ``matrix`` is a read-only view of the array given, so a checked
    distribution stays as checked.
    """

    matrix: np.ndarray  # shape (n+1, N)

    def __post_init__(self):
        d = _read_only(self.matrix, "distribution matrix")
        object.__setattr__(self, "matrix", d)
        if d.ndim != 2:
            raise ValidationError(f"distribution matrix must be 2-D, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValidationError("non-finite occupancy probability")
        if np.any(d < -_PROB_TOL) or np.any(d > 1 + _PROB_TOL):
            raise ValidationError("occupancy probability outside [0, 1]")
        sums = d.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            k = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(f"row {k} sums to {float(sums[k])!r}, not 1")

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def n_states(self) -> int:
        return self.matrix.shape[1]


def _parse_header(names: list[str]) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Column of each ``l_<i>`` by state and each ``d_<i>_<j>`` by transition, k being column 0."""
    if not names or names[0] != "k":
        raise ParseError("first CSV column must be 'k'")
    l_columns: dict[int, int] = {}
    d_columns: dict[tuple[int, int], int] = {}
    for idx, name in enumerate(names[1:], 1):
        try:
            if not (m := _COLUMN.fullmatch(name)):
                raise ParseError(f"unrecognized column name {name!r} (expected l_<i> or d_<i>_<j>)")
            i, source, target = m.groups()
            if i is not None:
                l_columns[int(i)] = idx
            else:
                d_columns[(int(source), int(target))] = idx
        except ValueError as exc:  # a state id past int()'s digit limit
            raise ParseError(f"header column {idx + 1}: {exc}") from exc
    if len(l_columns) + len(d_columns) != len(names) - 1:
        raise ParseError("duplicate column in CSV header")
    return l_columns, d_columns


def _records(reader):
    """The records of a csv reader over a table's lines, blank and comment lines skipped."""
    try:
        yield from (r for r in reader if r and not r[0].lstrip().startswith("#"))
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from exc


def _row_by_row(rows: list[list[str]], width: int) -> np.ndarray:
    """The body records as one array with column k zeroed, checked row by row.

    numpy reads each cell as float() does, with float()'s message on a fault.
    """
    data = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"row {r} has {len(row)} fields, expected {width}")
        try:
            k = int(row[0])
            data[r, 1:] = row[1:]
        except ValueError as exc:
            raise ParseError(f"row {r}: {exc}") from exc
        if k != r:
            raise ParseError(f"rows must run k=0..n in order; found k={k} at position {r}")
    return data


def _plain_table(text: str, skip: int, width: int) -> "np.ndarray | None":
    """The body, the text after its first ``skip`` lines, with column k zeroed, when
    it is plain; else None.  Never raises.

    Plain means only ASCII digits, ``.,eE+-`` and line ends, no line longer than
    the csv field limit, one ``np.loadtxt`` call reading every line into a full
    (rows, header width) array, and a first field that ``int()`` reads as 0..n
    in order.  numpy's C reader then gives the values ``float()`` gives, and the
    loop of :func:`_row_by_row` would have raised nothing.

    A body of whole counts, digits, commas and line ends only, is read as int64,
    about twice as fast as the float reader, and cast: the cast rounds to
    nearest even, as ``float()`` rounds the same decimal, so each value is the
    same bit for bit, past 2^53 too.  A field the int64 reader refuses (empty,
    or above 2^63 - 1) leaves the body to the csv loop.
    """
    body = "".join(text.split("\n", skip)[skip:])
    if not body.isascii():
        return None
    rest = body.encode().translate(None, _WHOLE)
    if rest.translate(None, _FRACTION):
        return None
    lines = body.split()
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float if rest else np.int64)
        data = data.astype(float, copy=False)
        in_order = [int(line.partition(",")[0]) for line in lines] == list(range(len(lines)))
    except ValueError:
        return None
    if not in_order or data.shape != (len(lines), width):
        return None
    data[:, 0] = 0.0
    return data


def load_table(path_or_text, model: StateModel, entry_age: int = 0) -> IncrementDecrementTable:
    """Load a life table CSV and check it against the model.

    The header is ``k,l_<i>...,d_<i>_<j>...``; rows run k = 0..n in order
    and the row count fixes the horizon.  Occupancy columns are required
    for every transient non-reflex state and optional for reflex states;
    decrement columns are required exactly for the transitions leaving
    transient non-reflex states.  Reflex and absorbing states get no
    decrement columns (their exits are implied).  A ``str`` holding a line break
    is CSV text, split at ``\n``, ``\r\n`` or ``\r`` as a file is; else a path.

    One csv reader over the text's lines reads the header record.  A plain
    body, the text after the lines the header took (see :func:`_plain_table`),
    is read in one call of numpy's C text reader: as int64 when it holds whole
    counts only, as float otherwise.  Any other body, and every body with a
    fault, is read row by row from the records of the same reader, which alone
    names a body fault; all ways give the same values and the same messages.
    """
    text = path_or_text
    if not isinstance(path_or_text, str) or "\n" not in path_or_text and "\r" not in path_or_text:
        text = read_text(path_or_text, "table")
    if "\r" in text:  # line ends as a universal-newline stream reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")

    reader = csv.reader(line[0] for line in _LINE.finditer(text))
    records = _records(reader)
    header = next(records, None)
    if header is None:
        raise ParseError("empty table file")
    data = _plain_table(text, reader.line_num, len(header))
    if data is None:
        rows = list(records)
    n = (len(rows) if data is None else len(data)) - 1
    header = [name.strip() for name in header]
    l_columns, d_columns = _parse_header(header)

    classes = classify_states(model)
    problems = [f"missing column 'l_{i}'" for i in sorted(classes.transient) if i not in l_columns]
    problems += [f"missing column 'd_{i}_{j}'" for i in sorted(classes.transient)
                 for j in model.successors(i) if (i, j) not in d_columns]
    problems += [f"column 'l_{i}' does not match a transient or reflex state"
                 for i in l_columns if i not in classes.transient and i not in classes.reflex]
    problems += [f"column 'd_{i}_{j}' does not match a transition out of a transient state"
                 for (i, j) in d_columns if i not in classes.transient or (i, j) not in model.transitions]
    if problems:
        raise ValidationError("; ".join(problems))

    if n < 1:
        raise ParseError("table needs at least rows k=0 and k=1")
    if data is None:
        data = _row_by_row(rows, len(header))

    return IncrementDecrementTable._of(n, data, l_columns, d_columns, entry_age)


def infer_reflex_columns(table: IncrementDecrementTable, model: StateModel) -> IncrementDecrementTable:
    """Fill in occupancy and exit counts for reflex states.

    A reflex state is always left after one period, so its occupancy at k
    equals the total inflow during [k-1, k): the tabulated decrements into
    it, or the full occupancy of a reflex feeder (whose occupants all move
    on), added in predecessor order from +0.0 as Python's ``sum`` does.
    Inferred occupancies start at zero for k = 0.  The new table's array is
    the old one with a column per inferred occupancy added; all of them are
    filled at every k at once, again until nothing changes, which, as
    occupancy at k depends only on period k-1, gives each the same sums as
    a sweep over k, even where reflex states feed each other in a cycle.
    The single exit count of a reflex state equals its occupancy and reads
    the same column.  Tabulated reflex occupancy columns are kept as-is;
    already-present values are never overwritten, so it is idempotent.

    The new table's counts are checked for finiteness and sign in full, so
    an inflow past the largest float is named as a non-finite ``l`` column;
    the outflow check is re-run for the reflex states only.  They are the
    only states inference can give an occupancy column or an exit; every
    other state keeps the columns and exits the given table was checked
    with, so the first fault named is the one a full re-check names.
    """
    classes = classify_states(model)
    n = table.n
    reflex = sorted(classes.reflex)
    for r in reflex:
        if not model.predecessors(r):
            raise ValidationError(f"reflex state {r} has no inbound transition; its occupancy cannot be inferred")

    todo = [r for r in reflex if r not in table.occupancy]
    for r in todo:
        for i in model.predecessors(r):
            if (i, r) not in table.decrements and i not in classes.reflex:
                raise ValidationError(f"no decrement column for transition ({i}, {r})")
    width = table._counts.shape[1]
    occupancy = {**{i: table._column[i] for i in table.occupancy}, **{r: width + t for t, r in enumerate(todo)}}
    decrements = {pair: table._column[pair] for pair in table.decrements}
    # The table's columns, then the inferred ones; the zero column 0 pads the feeders.
    columns = np.zeros((width + len(todo), n + 1))
    columns[:width] = table._counts.T
    feeding = [model.predecessors(r) for r in todo]
    feeders = np.zeros((max(map(len, feeding), default=0), len(todo)), dtype=np.intp)
    for t, (r, sources) in enumerate(zip(todo, feeding)):
        feeders[:len(sources), t] = [decrements.get((i, r), occupancy.get(i)) for i in sources]
    inferred = columns[width:, 1:]
    for _ in range(n):  # row k is final after k rounds
        with np.errstate(over="ignore"):  # a sum past the largest float is inf, refused as non-finite
            inflow = sum((columns[sources, :-1] for sources in feeders), np.zeros(inferred.shape))
        if np.array_equal(inflow, inferred):
            break
        inferred[:] = inflow

    for r in reflex:
        decrements.setdefault((r, model.successors(r)[0]), occupancy[r])
    return IncrementDecrementTable._of(n, columns.T, occupancy, decrements, table.entry_age, classes.reflex)


def transition_sequence(table: IncrementDecrementTable, model: StateModel) -> TransitionSequence:
    """Build the period transition matrices from table counts, on the edges
    of ``allowed_pattern``.

    All transient rows are built at once from their decrement columns,
    gathered from the table's array and zero-padded to the widest
    out-degree: each off-diagonal entry is a decrement over the occupancy,
    clamped to [0, 1], and the diagonal is one minus those exits added in
    successor order.  Reflex rows route all mass to the unique successor,
    absorbing rows keep it in place, and unoccupied periods get the identity
    row.  The fault named is the first by state (missing column first), k,
    successor, then the exit total.
    """
    classes = classify_states(model)
    n = table.n
    transient = sorted(classes.transient)
    successors = [model.successors(i) for i in transient]
    gaps = [(t, -1, f"missing occupancy column 'l_{i}'") for t, i in enumerate(transient) if i not in table.occupancy]
    gaps += [(t, w, f"missing decrement column 'd_{i}_{j}'") for t, (i, js) in enumerate(zip(transient, successors))
             for w, j in enumerate(js) if (i, j) not in table.decrements]
    stop, _, missing = min(gaps, default=(len(transient), 0, None))
    transient, successors = transient[:stop], successors[:stop]
    width = max(map(len, successors), default=0)
    # Padded slots point at the diagonal, which is written last; 0 / living cannot fault.
    targets = np.array([js + [i] * (width - len(js)) for i, js in zip(transient, successors)], dtype=np.intp)
    # Exit columns by (transient state, slot); padded slots read the zero column 0.
    feeds = np.array([[table._column[(i, j)] for j in js] + [0] * (width - len(js))
                      for i, js in zip(transient, successors)], dtype=np.intp).reshape(len(transient), width)
    counts = table._counts.T[:, :n]
    exits = counts[feeds]
    living = counts[[table._column[i] for i in transient]].reshape(len(transient), 1, n)
    unoccupied = living <= 0.0
    with np.errstate(over="ignore"):  # an exit over a subnormal occupancy may be inf, refused below
        raw = np.divide(exits, np.where(unoccupied, 1.0, living), out=exits)
    np.copyto(raw, 0.0, where=unoccupied)
    outside = raw < -_PROB_TOL
    outside |= raw > 1 + _PROB_TOL
    in_range = not outside.any()
    # Clipped in place unless a fault quotes a raw value.
    p = np.clip(raw, 0.0, 1.0, out=raw if in_range else None)
    diagonal = 1.0 - sum((p[:, w] for w in range(width)), np.zeros((len(transient), n)))
    if not in_range or (diagonal < -_PROB_TOL).any():
        faults = np.concatenate([outside, diagonal[:, None] < -_PROB_TOL], axis=1)
        t, k, c = (int(x) for x in np.argwhere(faults.transpose(0, 2, 1))[0])
        if c < width:
            raise ValidationError(f"probability {float(raw[t, c, k])!r} outside [0, 1] at k={k}, "
                                  f"transition ({transient[t]}, {targets[t, c]})")
        raise ValidationError(f"exit probabilities exceed 1 at k={k}, state {transient[t]}")
    if missing is not None:
        raise ValidationError(missing)
    rows, columns = _allowed_entries(model, classes)
    keys = rows * model.n_states + columns

    def at(i, j) -> np.ndarray:
        """Edge index of each 1-based entry (i, j)."""
        return np.searchsorted(keys, (np.asarray(i) - 1) * model.n_states + np.asarray(j) - 1)

    q = np.zeros((n, keys.size))
    fixed = sorted(classes.absorbing) + sorted(classes.reflex)
    q[:, at(fixed, [model.successors(i)[0] if i in classes.reflex else i for i in fixed])] = 1.0
    q[:, at(np.array(transient, dtype=np.intp)[:, None], targets)] = p.transpose(2, 0, 1)
    q[:, at(transient, transient)] = np.maximum(diagonal, 0.0).T
    return TransitionSequence(n_states=model.n_states, rows=rows, columns=columns, probabilities=q)


def unit_distribution(n_states: int, state: int) -> np.ndarray:
    """Initial distribution concentrated on one state."""
    n_states, state = _integer("state count", n_states), _integer("state", state)
    if not 1 <= state <= n_states:
        raise ValidationError(f"state {state} out of range 1..{n_states}")
    p = np.zeros(n_states)
    p[state - 1] = 1.0
    return p


def initial_distribution(initial, n_states: int) -> np.ndarray:
    """``initial`` as a read-only float vector, refused unless it holds
    numbers and is a distribution over ``n_states`` states (NaN fails the sum test)."""
    initial = _read_only(initial, "initial distribution", float)
    if initial.shape != (n_states,):
        raise ValidationError(f"initial distribution has shape {initial.shape}, expected ({n_states},)")
    if not abs(initial.sum() - 1.0) <= _ROW_SUM_TOL or np.any(initial < -_PROB_TOL):
        raise ValidationError("initial distribution must be nonnegative and sum to 1")
    return initial


def distribution_matrix(seq: TransitionSequence, initial: np.ndarray) -> DistributionMatrix:
    """Stack the state distribution at times 0..n, starting from ``initial``.

    Each step is taken on the edges: ``bincount`` adds each edge's product
    D[k, i] * Q(k)[i, j] into its column j, so a column sums its in-edges in
    stored edge order from +0.0.  No platform kernel picks the order, so D
    is a fixed function of its float inputs on any host.
    """
    initial = initial_distribution(initial, seq.n_states)
    rows = np.empty((seq.n + 1, seq.n_states))
    rows[0] = initial
    for k in range(seq.n):
        rows[k + 1] = np.bincount(seq.columns, weights=rows[k][seq.rows] * seq.probabilities[k],
                                  minlength=seq.n_states)
    return DistributionMatrix(rows)


@dataclass(frozen=True)
class Chain:
    """A model with its table, transition matrices and occupancy distribution.

    ``offsets`` count from the state the chain starts in, which ``initial``
    puts all mass on; ``model`` keeps its own initial state.
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
    start = model.initial_state if initial_state is None else initial_state
    initial = unit_distribution(model.n_states, start)
    offsets = shortest_arrival(model if start == model.initial_state else replace(model, initial_state=start))
    return Chain(model, table, seq, initial, distribution_matrix(seq, initial), offsets)


def _allowed_entries(model: StateModel, classes: StateClassification) -> np.ndarray:
    """0-based (row, column) pairs, sorted, of the entries a period matrix may hold nonzero, as a
    (2, E) array: the transitions and the transient and absorbing diagonals (never a reflex one)."""
    entries = sorted(model.transitions | {(i, i) for i in classes.transient | classes.absorbing})
    return np.array(entries, dtype=np.intp).reshape(-1, 2).T - 1


def allowed_pattern(model: StateModel) -> np.ndarray:
    """Boolean mask of the entries that may be nonzero in any period matrix."""
    mask = np.zeros((model.n_states, model.n_states), dtype=bool)
    mask[tuple(_allowed_entries(model, classify_states(model)))] = True
    return mask


def pattern_violations(seq: TransitionSequence, model: StateModel) -> list[tuple[int, int, int]]:
    """(k, i, j) entries that are nonzero where the model allows none, in (k, i, j) order."""
    off_pattern = ~allowed_pattern(model)[seq.rows, seq.columns]
    k, e = np.nonzero((seq.probabilities != 0.0) & off_pattern)
    return [(int(k), int(i) + 1, int(j) + 1) for k, i, j in zip(k, seq.rows[e], seq.columns[e])]


def diagonal_residuals(table: IncrementDecrementTable, model: StateModel) -> dict[tuple[int, int], float]:
    """Gap between two diagonal conventions, keyed by (k, state).

    The row-complement convention used here sets the stay-put probability
    to one minus the exit probabilities.  An alternative convention divides
    next-period occupancy net of exits by current occupancy; the gap
    between the two equals the net occupancy change over the period, so
    nonzero residuals flag entrant or exit flows that the alternative
    convention would misread (or an inconsistent table).  A gap counts when
    its size exceeds 1e-9.
    """
    classes = classify_states(model)
    n = table.n
    residuals: dict[tuple[int, int], float] = {}
    for i in sorted(classes.transient & table.occupancy.keys()):
        l_col = table.occupancy[i]
        living = l_col[:n]
        exits = sum((table.decrements[(i, j)][:n] for j in model.successors(i) if (i, j) in table.decrements), np.zeros(n))
        with np.errstate(over="ignore"):  # over a subnormal occupancy the gap may be inf, which counts
            alternative = np.divide(l_col[1:] - exits, living, out=np.zeros(n), where=living > 0.0)
            row_complement = 1.0 - np.divide(exits, living, out=np.zeros(n), where=living > 0.0)
        gap = alternative - row_complement
        for k in np.flatnonzero((living > 0.0) & (np.abs(gap) > _RESIDUAL_TOL)):
            residuals[(int(k), i)] = float(gap[k])
    return residuals
