"""Cash flows attached to states of the extended model.

A contract is summarised by an (n+1) x N matrix: entry (k, j) is the signed
amount payable at time k while the process occupies state j.  Benefits are
positive, premiums negative.  The value kernel multiplies this matrix
elementwise with the occupancy distribution, so every product that can be
written this way prices through the same two lines of algebra.

The builders in this module produce the inflow matrices for a ten-state
dread-disease layout:

    1  healthy                       6  terminal stage, under 1 year left
    2  diagnosed, local disease      7  death payout due (from 1 or 2)
    3  terminal stage, under 4 years 8  dead (from 1 or 2)
    4  terminal stage, under 3 years 9  death payout due (terminal)
    5  terminal stage, under 2 years 10 dead (terminal)

States 3..6 order the terminal illness by remaining lifetime; a new terminal
case always enters at state 3, one step after diagnosis at the earliest, so
per-state payments start at the row matching each state's earliest possible
arrival time.

Premiums use the same shape: :func:`premium_selector` alone says where a
premium is payable, as a 0/1 matrix that every premium computation takes
against the distribution or the simulated paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .statemodel import ArrivalOffsets

#: Number of states in the dread-disease layout used by the builders.
DREAD_DISEASE_STATES = 10

#: Terminal-illness states of that layout.
TERMINAL_STATES = frozenset({3, 4, 5, 6})


@dataclass(frozen=True)
class CashflowMatrix:
    """Signed per-period, per-state amounts; shape (n+1, N)."""

    matrix: np.ndarray

    def __post_init__(self):
        c = self.matrix
        if c.ndim != 2:
            raise ValidationError(f"cash-flow matrix must be 2-D, got shape {c.shape}")
        if c.shape[0] == 0:
            raise ValidationError("cash-flow matrix has no periods")
        if c.shape[1] == 0:
            raise ValidationError("cash-flow matrix has no states")
        if not np.isfinite(c).all():
            raise ValidationError("non-finite cash-flow amount")

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
    if n < 0:
        raise ValidationError(f"horizon n={n} is negative")
    return n + 1


def build_cashflow(entries, n: int, n_states: int) -> CashflowMatrix:
    """Accumulate entries into a matrix; overlapping entries add up."""
    c = np.zeros((_periods(n), max(n_states, 0)))
    for e in entries:
        if not 1 <= e.state <= n_states:
            raise ValidationError(f"state {e.state} out of range 1..{n_states}")
        if not 0 <= e.k_start <= e.k_end <= n + 1:
            raise ValidationError(f"period range [{e.k_start}, {e.k_end}) out of range 0..{n + 1}")
        if not np.isfinite(e.amount):
            raise ValidationError(f"non-finite amount for state {e.state}")
        c[e.k_start:e.k_end, e.state - 1] += e.amount
    return CashflowMatrix(c)


def parse_cashflow_text(text: str) -> list[CashflowEntry]:
    """Parse ``flow <state> <k1> <k2> <amount>`` lines ('#' comments)."""
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "flow" or len(parts) != 5:
            raise ParseError(f"line {line_no}: expected 'flow <state> <k1> <k2> <amount>'")
        try:
            entries.append(CashflowEntry(int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4])))
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
    return entries


def load_cashflow_file(path) -> list[CashflowEntry]:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_cashflow_text(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read cash-flow file {path}: {exc}") from exc


def accelerated_benefit(acceleration: float, n: int) -> CashflowMatrix:
    """Inflows for a death benefit of 1 with an accelerated share.

    The share ``acceleration`` of the benefit is brought forward and paid on
    entry into the terminal stage (state 3); the remaining share is paid at
    death after a terminal illness (state 9).  Death without a preceding
    terminal stage (state 7) always pays the full benefit.  An acceleration
    of 0 is the plain death cover with a zero terminal-entry row kept in
    place; an acceleration of 1 is the stand-alone cover, where nothing is
    left to pay at state 9.
    """
    if not 0.0 <= acceleration <= 1.0:
        raise ValidationError(f"acceleration share {acceleration!r} outside [0, 1]")
    c = np.zeros((_periods(n), DREAD_DISEASE_STATES))
    c[1:, 2] = acceleration        # state 3, reachable from k = 1
    c[1:, 6] = 1.0                 # state 7, reachable from k = 1
    c[2:, 8] = 1.0 - acceleration  # state 9, reachable from k = 2
    return CashflowMatrix(c)


def ceased_cover_states(acceleration: float) -> frozenset[int]:
    """States where premium collection stops under stand-alone cover.

    With the whole benefit accelerated the contract ends at terminal
    diagnosis, so no premium can be collected in states 3..6.
    """
    return TERMINAL_STATES if acceleration >= 1.0 else frozenset()


def dread_disease_case(case: int, n: int, *, lump_sum: float = 1.0, annuity_rate: float = 0.25,
                       death_benefit: float = 1.0, endowment: float = 1.0) -> CashflowMatrix:
    """Inflows for three additional-benefit variants on the same layout.

    Case 1 pays ``lump_sum`` on entry into the terminal stage on top of the
    death benefit.  Case 2 replaces the lump sum with a terminal-illness
    annuity of ``annuity_rate`` per year, payable in every terminal state;
    each state's payments start at its earliest possible arrival time.
    Case 3 is case 1 plus a pure endowment of ``endowment`` paid at the
    horizon in every alive state (1..6).
    """
    if case not in (1, 2, 3):
        raise ValidationError(f"unknown case id {case!r} (expected 1, 2 or 3)")
    c = np.zeros((_periods(n), DREAD_DISEASE_STATES))
    c[1:, 6] = death_benefit
    c[2:, 8] = death_benefit
    if case in (1, 3):
        c[1:, 2] = lump_sum
    else:
        for state in sorted(TERMINAL_STATES):
            first = state - 2  # earliest arrival: diagnosis at 1, one stage per year
            c[first:, state - 1] = annuity_rate
    if case == 3:
        c[n, 0:6] += endowment
    return CashflowMatrix(c)


def premium_selector(pay_states, offsets: ArrivalOffsets, m: int, n: int,
                     n_states: int) -> CashflowMatrix:
    """0/1 matrix of the times and states in which a period premium is payable.

    A state of ``pay_states`` collects from its earliest arrival time
    through m-1, so a state not reachable before m never collects.  With
    nowhere to collect, the premium is undefined.
    """
    if not 1 <= m <= n:
        raise ValidationError(f"premium horizon m={m} out of range 1..{n}")
    pay = sorted(set(pay_states))
    selector = np.zeros((n + 1, n_states))
    for s in pay:
        if not 1 <= s <= n_states:
            raise ValidationError(f"pay state {s} out of range 1..{n_states}")
        if offsets.payable(s, m):
            selector[offsets.offset(s):m, s - 1] = 1.0
    if not selector.any():
        raise ValidationError(f"no payable state: none of {pay} is reachable before m={m}")
    return CashflowMatrix(selector)


def premium_outflow(premium: float, pay_states, offsets: ArrivalOffsets, m: int,
                    n: int, n_states: int) -> CashflowMatrix:
    """Outflow matrix of a period premium: ``-premium`` wherever the selector is one."""
    return CashflowMatrix(-premium * premium_selector(pay_states, offsets, m, n, n_states).matrix)
