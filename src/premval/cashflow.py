"""Cash flows attached to states of the extended model.

A contract is summarised by an (n+1) x N matrix: entry (k, j) is the signed
amount payable at time k while the process occupies state j.  Benefits are
positive, premiums negative.  The one value kernel of :mod:`premval.valuation`
adds the products (m_k * D[k, j]) * C[k, j] over k for each state, then over
the states, so every contract written this way prices in one fixed order.

Premiums use the same shape: :func:`premium_selector` alone says where a
premium is payable, as a 0/1 matrix that every premium computation takes
against the distribution or the simulated paths.  A state collects from its
earliest arrival time, the offset of
:func:`~premval.statemodel.shortest_arrival`.  The benefit builders of the
bundled example live in :mod:`premval.fixtures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError, _allocate, _fields, _integer, _read_only, _real, read_text
from .statemodel import ArrivalOffsets


@dataclass(frozen=True)
class CashflowMatrix:
    """Signed per-period, per-state amounts; shape (n+1, N).

    The constructor checks the matrix once, where it enters; only a builder
    whose output no argument can make fail the check skips it, through
    :meth:`_of` (the builders are listed in ``tests/test_cashflow.py``).
    ``matrix`` is read-only, so a checked matrix stays as checked: a view of
    the array given to the constructor, or the builder's own array.
    """

    matrix: np.ndarray

    def __post_init__(self):
        c = _read_only(self.matrix, "cash-flow matrix")
        object.__setattr__(self, "matrix", c)
        if c.ndim != 2:
            raise ValidationError(f"cash-flow matrix must be 2-D, got shape {c.shape}")
        if c.shape[0] == 0:
            raise ValidationError("cash-flow matrix has no periods")
        if c.shape[1] == 0:
            raise ValidationError("cash-flow matrix has no states")
        if not np.isfinite(c).all():
            raise ValidationError("non-finite cash-flow amount")

    @classmethod
    def _of(cls, matrix: np.ndarray) -> "CashflowMatrix":
        """``matrix``, made read-only, unchecked: only for a builder's own matrix that
        the check cannot refuse."""
        matrix.setflags(write=False)
        c = object.__new__(cls)
        object.__setattr__(c, "matrix", matrix)
        return c

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def n_states(self) -> int:
        return self.matrix.shape[1]

    def __add__(self, other: "CashflowMatrix") -> "CashflowMatrix":
        if self.matrix.shape != other.matrix.shape:
            raise ValidationError("cash-flow matrices have different shapes")
        return CashflowMatrix(self.matrix + other.matrix)


@dataclass(frozen=True)
class CashflowEntry:
    """Amount payable in ``state`` at every time k with k_start <= k < k_end."""

    state: int
    k_start: int
    k_end: int
    amount: float


def _periods(n: int) -> int:
    n = _integer("horizon n", n)
    if n < 0:
        raise ValidationError(f"horizon n={n} is negative")
    return n + 1


def build_cashflow(entries, n: int, n_states: int) -> CashflowMatrix:
    """Accumulate entries into a matrix; overlapping entries add up, and the matrix checks the sums."""
    periods, n_states = _periods(n), _integer("state count", n_states)
    c = _allocate((periods, max(n_states, 0)), "cash-flow matrix")
    for e in entries:
        state = _integer("state", e.state)
        if not 1 <= state <= n_states:
            raise ValidationError(f"state {e.state} out of range 1..{n_states}")
        k_start, k_end = _integer("period", e.k_start), _integer("period", e.k_end)
        if not 0 <= k_start <= k_end <= periods:
            raise ValidationError(f"period range [{e.k_start}, {e.k_end}) out of range 0..{periods}")
        try:
            amount = _real("amount", e.amount)
        except ValidationError:
            raise ValidationError(f"amount {e.amount!r} for state {e.state} is not a real number") from None
        if not math.isfinite(amount):
            raise ValidationError(f"non-finite amount for state {e.state}")
        c[k_start:k_end, state - 1] += amount
    return CashflowMatrix(c)


def parse_cashflow_text(text: str) -> list[CashflowEntry]:
    """Parse ``flow <state> <k1> <k2> <amount>`` lines ('#' comments)."""
    entries = []
    for line_no, parts in _fields(text):
        if parts[0] != "flow" or len(parts) != 5:
            raise ParseError(f"line {line_no}: expected 'flow <state> <k1> <k2> <amount>'")
        try:
            entries.append(CashflowEntry(int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4])))
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
    return entries


def load_cashflow_file(path) -> list[CashflowEntry]:
    return parse_cashflow_text(read_text(path, "cash-flow"))


def premium_selector(pay_states, offsets: ArrivalOffsets, m: int, n: int,
                     n_states: int) -> CashflowMatrix:
    """0/1 matrix of the times and states in which a period premium is payable.

    A state of ``pay_states`` collects from its earliest arrival time
    through m-1, so a state not reachable before m never collects.  With
    nowhere to collect, the premium is undefined.
    """
    n, m, n_states = _integer("horizon n", n), _integer("premium horizon m", m), _integer("state count", n_states)
    if not 1 <= m <= n:
        raise ValidationError(f"premium horizon m={m} out of range 1..{n}")
    pay = sorted(set(pay_states), key=lambda s: _integer("pay state", s))
    selector = _allocate((n + 1, max(n_states, 0)), "premium selector")
    payable = False
    for s in pay:
        if not 1 <= s <= n_states:
            raise ValidationError(f"pay state {s} out of range 1..{n_states}")
        if offsets.payable(s, m):
            selector[offsets.offset(s):m, s - 1] = 1.0
            payable = True
    if not payable:
        raise ValidationError(f"no payable state: none of {pay} is reachable before m={m}")
    return CashflowMatrix._of(selector)  # zeros and ones, n >= 1 and a payable state


def premium_outflow(premium: float, pay_states, offsets: ArrivalOffsets, m: int,
                    n: int, n_states: int) -> CashflowMatrix:
    """Outflow matrix of a period premium: ``-premium`` wherever the selector is one."""
    selector = premium_selector(pay_states, offsets, m, n, n_states).matrix
    # The selector holds a one, so the outflow is finite just when the premium is.
    if not math.isfinite(premium := _real("premium", premium)):
        raise ValidationError("non-finite cash-flow amount")
    return CashflowMatrix._of(-premium * selector)


def __getattr__(name):
    # perfbench's ``tracing.FUNCTIONS["cashflow"]`` still looks these two fixture builders
    # up here; ROADMAP item 8 points it at ``premval.fixtures`` and deletes this alias.
    if name in ("accelerated_benefit", "dread_disease_case"):
        from . import fixtures
        return getattr(fixtures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
