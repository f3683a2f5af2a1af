"""Expected present values, annuities and net premiums.

Everything here reduces to one kernel, :func:`_contract`: the expected
present value of a state-attached cash-flow matrix C under an occupancy
distribution D and a discount vector M, summed in one order that no platform
kernel chooses.  Each term is (m_k * D[k, j]) * C[k, j], written in place as
``w = m[:, None] * D; w *= C``; the terms are added over k for each state,
then the state totals over the states.  So a value is a fixed function of
its float inputs on any host, and a 0/1 selector gives the sum of its
one-state parts bit for bit.  Values, net single premiums, residuals and
premium numerators take a cash-flow matrix; annuities a 0/1 selector of one
state over an interval, and premium denominators the selector of
:func:`~premval.cashflow.premium_selector`, whose states collect from their
earliest arrival after the chain's start.  All interval arguments are
half-open: [k1, k2) covers payments at times k1, ..., k2 - 1.

Matrices and vectors are checked where they are made; the functions here
check only what they add: matching shapes, nonnegative inflows and a
nonzero annuity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cashflow import CashflowEntry, CashflowMatrix, build_cashflow, premium_selector
from .errors import ParseError, ValidationError, _allocate, _fields, _integer, _read_only, _real, read_text
from .lifetable import DistributionMatrix
from .statemodel import ArrivalOffsets

_M0_TOL = 1e-12
_RESULT_TOL = 1e-10


@dataclass(frozen=True)
class DiscountVector:
    """Expected discount factors m_0..m_n with m_0 = 1; ``values`` is a read-only
    view of the array given, so a checked vector stays as checked."""

    values: np.ndarray

    def __post_init__(self):
        v = _read_only(self.values, "discount vector")
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValidationError("discount vector must be a nonempty 1-D array")
        if not (v.min() > 0 and v.max() < np.inf):  # NaN fails both
            raise ValidationError("discount factors must be positive and finite")
        if abs(v[0] - 1.0) > _M0_TOL:
            raise ValidationError(f"m_0 must equal 1, got {float(v[0])!r}")

    @property
    def n(self) -> int:
        return self.values.shape[0] - 1


@dataclass(frozen=True)
class PremiumResult:
    """A premium value together with how it was obtained.

    For period premiums, ``value * denominator`` reproduces ``numerator``
    (the net single premium of the benefit side).
    """

    value: float
    kind: str  # "single" | "period"
    pay_states: "frozenset[int] | None" = None
    m: "int | None" = None
    numerator: "float | None" = None
    denominator: "float | None" = None

    def __post_init__(self):
        if self.kind not in ("single", "period"):
            raise ValidationError(f"unknown premium kind {self.kind!r}")
        if self.kind == "period":
            gap = abs(self.value * self.denominator - self.numerator)
            if gap > _RESULT_TOL * max(1.0, abs(self.numerator)):
                raise ValidationError("inconsistent premium result: value * denominator != numerator")


def constant_rate_discount(n: int, v: "float | None" = None, rate: "float | None" = None) -> DiscountVector:
    """Discount vector (1, v, v^2, ..., v^n) for a constant interest rate.

    Pass either the one-period discount factor ``v`` in (0, 1] or the rate
    ``r`` with v = 1 / (1 + r).
    """
    if (v is None) == (rate is None):
        raise ValidationError("pass exactly one of v or rate")
    if v is None:
        if not (rate := _real("interest rate", rate)) > -1.0:
            raise ValidationError(f"interest rate {rate!r} must exceed -1")
        v = 1.0 / (1.0 + rate)
    if not 0.0 < (v := _real("discount factor", v)) <= 1.0:
        raise ValidationError(f"discount factor {v!r} outside (0, 1]")
    powers = _allocate(max(_integer("horizon n", n) + 1, 0), "discount vector", make=np.arange)
    return DiscountVector(np.asarray(v, dtype=float) ** powers)


def parse_discount_text(text: str, n: int) -> DiscountVector:
    """Parse n+1 factors separated by whitespace or commas ('#' comments)."""
    values = []
    for line_no, tokens in _fields(text.replace(",", " ")):
        for token in tokens:
            try:
                values.append(float(token))
            except ValueError as exc:
                raise ParseError(f"line {line_no}: {exc}") from exc
    if len(values) != n + 1:
        raise ValidationError(f"discount file holds {len(values)} values, expected {n + 1}")
    return DiscountVector(np.asarray(values))


def load_discount_file(path, n: int) -> DiscountVector:
    text = read_text(path, "discount")
    try:
        return parse_discount_text(text, n)
    except ParseError as exc:
        raise ParseError(f"discount file {path}: {exc}") from exc


def _contract(c: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector) -> float:
    """The kernel: the discounted expected sum of ``c`` under ``dist``, in the module's one order."""
    if c.matrix.shape != dist.matrix.shape:
        raise ValidationError(
            f"cash-flow shape {c.matrix.shape} does not match distribution shape {dist.matrix.shape}")
    if discount.values.shape[0] != dist.matrix.shape[0]:
        raise ValidationError(
            f"discount vector length {discount.values.shape[0]} does not match horizon {dist.matrix.shape[0] - 1}")
    w = discount.values[:, None] * dist.matrix
    w *= c.matrix
    return float(np.add.accumulate(np.add.accumulate(w)[-1])[-1])


def expected_pv(c: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector) -> float:
    """Expected present value of the cash flows under the distribution."""
    return _contract(c, dist, discount)


def _check_inflows(c_in: CashflowMatrix):
    c = c_in.matrix
    # One pass when no entry is negative; a NaN, only in a matrix changed after its check, takes both.
    if not c.min() >= 0 and (c < 0).any():
        k, j = np.unravel_index(int(np.argmin(c)), c.shape)
        raise ValidationError(f"negative entry {float(c[k, j])!r} at (k={k}, state={j + 1}) in inflow matrix")


def net_single_premium(c_in: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector) -> PremiumResult:
    """Net single premium of the benefit inflows (all entries nonnegative)."""
    _check_inflows(c_in)
    return PremiumResult(value=_contract(c_in, dist, discount), kind="single")


def annuity_due(dist: DistributionMatrix, discount: DiscountVector, state: int, k_start: int, k_end: int) -> float:
    """Expected discounted time spent in ``state`` over [k_start, k_end).

    This values a unit annuity-due payable at each of the times k_start,
    ..., k_end - 1 in which the state is occupied.  An empty interval is
    worth zero.
    """
    selector = build_cashflow([CashflowEntry(state, k_start, k_end, 1.0)], dist.n, dist.n_states)
    return _contract(selector, dist, discount)


def period_premium_initial(c_in: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector,
                           m: int, initial_state: int = 1) -> PremiumResult:
    """Net period premium payable in the initial state at times 0..m-1."""
    s = _integer("pay state", initial_state)
    return period_premium(c_in, dist, discount, {s}, ArrivalOffsets({s: 0}, s), m)


def period_premium(c_in: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector,
                   pay_states, offsets: ArrivalOffsets, m: int) -> PremiumResult:
    """Net period premium payable in every state of ``pay_states``.

    The denominator is the premium selector's contraction, so it equals the
    sum of the paying states' :func:`annuity_due` values bit for bit.
    """
    pay = frozenset(pay_states)
    selector = premium_selector(pay, offsets, m, dist.n, dist.n_states)
    _check_inflows(c_in)
    numerator = _contract(c_in, dist, discount)
    denominator = _contract(selector, dist, discount)
    if denominator == 0.0:
        raise ValidationError("premium annuity value is zero; the premium is undefined")
    return PremiumResult(value=numerator / denominator, kind="period", pay_states=pay, m=m,
                         numerator=numerator, denominator=denominator)


def equivalence_residual(c_in: CashflowMatrix, c_out: CashflowMatrix,
                         dist: DistributionMatrix, discount: DiscountVector) -> float:
    """Expected present value of benefits plus premiums.

    Zero (up to rounding) when the premium satisfies the equivalence
    principle for the given contract.
    """
    return _contract(c_in + c_out, dist, discount)
