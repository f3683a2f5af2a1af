"""Expected present values, annuities and net premiums.

Everything here reduces to a single kernel: the expected present value of a
state-attached cash-flow matrix C under an occupancy distribution D and a
discount vector M is

    sum over k of  m_k * sum over j of  C[k, j] * D[k, j].

Net single premiums apply the kernel to the inflow matrix.  Period premiums
divide it by the same contraction taken against the 0/1 premium selector:
the sum of state-conditional annuity values, one per premium state, each
starting at the state's earliest possible arrival time.  All interval
arguments are half-open: [k1, k2) covers payments at times k1, ..., k2 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cashflow import CashflowMatrix, premium_selector
from .errors import ParseError, ValidationError
from .lifetable import DistributionMatrix
from .statemodel import ArrivalOffsets

_M0_TOL = 1e-12
_RESULT_TOL = 1e-10


@dataclass(frozen=True)
class DiscountVector:
    """Expected discount factors m_0..m_n with m_0 = 1."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValidationError("discount vector must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
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
        if not rate > -1.0:
            raise ValidationError(f"interest rate {rate!r} must exceed -1")
        v = 1.0 / (1.0 + rate)
    if not 0.0 < v <= 1.0:
        raise ValidationError(f"discount factor {v!r} outside (0, 1]")
    return DiscountVector(np.asarray(v, dtype=float) ** np.arange(n + 1))


def parse_discount_text(text: str, n: int) -> DiscountVector:
    values = []
    for token in text.replace(",", " ").split():
        if token.startswith("#"):
            break
        values.append(float(token))
    if len(values) != n + 1:
        raise ValidationError(f"discount file holds {len(values)} values, expected {n + 1}")
    return DiscountVector(np.asarray(values))


def load_discount_file(path, n: int) -> DiscountVector:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read discount file {path}: {exc}") from exc
    try:
        return parse_discount_text(text, n)
    except ValueError as exc:
        raise ParseError(f"discount file {path}: {exc}") from exc


def _check_shapes(c: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector):
    if c.matrix.shape != dist.matrix.shape:
        raise ValidationError(
            f"cash-flow shape {c.matrix.shape} does not match distribution shape {dist.matrix.shape}")
    if discount.values.shape[0] != dist.matrix.shape[0]:
        raise ValidationError(
            f"discount vector length {discount.values.shape[0]} does not match horizon {dist.matrix.shape[0] - 1}")


def expected_pv(c: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector) -> float:
    """Expected present value of the cash flows under the distribution."""
    _check_shapes(c, dist, discount)
    return float(discount.values @ np.sum(c.matrix * dist.matrix, axis=1))


def net_single_premium(c_in: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector) -> PremiumResult:
    """Net single premium of the benefit inflows (all entries nonnegative)."""
    if np.any(c_in.matrix < 0):
        k, j = np.unravel_index(int(np.argmin(c_in.matrix)), c_in.matrix.shape)
        raise ValidationError(f"negative entry {float(c_in.matrix[k, j])!r} at (k={k}, state={j + 1}) in inflow matrix")
    value = expected_pv(c_in, dist, discount)
    return PremiumResult(value=value, kind="single")


def annuity_due(dist: DistributionMatrix, discount: DiscountVector, state: int, k_start: int, k_end: int) -> float:
    """Expected discounted time spent in ``state`` over [k_start, k_end).

    This values a unit annuity-due payable at each of the times k_start,
    ..., k_end - 1 in which the state is occupied.  An empty interval is
    worth zero.
    """
    if discount.values.shape[0] != dist.matrix.shape[0]:
        raise ValidationError("discount vector length does not match distribution horizon")
    if not 1 <= state <= dist.n_states:
        raise ValidationError(f"state {state} out of range 1..{dist.n_states}")
    if not 0 <= k_start <= k_end <= dist.n + 1:
        raise ValidationError(f"interval [{k_start}, {k_end}) out of range 0..{dist.n + 1}")
    column = dist.matrix[:, state - 1]
    total = 0.0
    for t in range(k_start, k_end):
        total += discount.values[t] * column[t]
    return total


def period_premium_initial(c_in: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector,
                           m: int, initial_state: int = 1) -> PremiumResult:
    """Net period premium payable in the initial state at times 0..m-1."""
    if not 1 <= m <= dist.n:
        raise ValidationError(f"premium horizon m={m} out of range 1..{dist.n}")
    numerator = net_single_premium(c_in, dist, discount).value
    denominator = annuity_due(dist, discount, initial_state, 0, m)
    if denominator == 0.0:
        raise ValidationError("premium annuity value is zero; the premium is undefined")
    return PremiumResult(value=numerator / denominator, kind="period",
                         pay_states=frozenset({initial_state}), m=m,
                         numerator=numerator, denominator=denominator)


def period_premium(c_in: CashflowMatrix, dist: DistributionMatrix, discount: DiscountVector,
                   pay_states, offsets: ArrivalOffsets, m: int) -> PremiumResult:
    """Net period premium payable in every state of ``pay_states``.

    The denominator contracts the distribution with the premium selector,
    summing sequentially over k and then over states, so it equals the sum
    of the paying states' :func:`annuity_due` values bit for bit.
    """
    pay = frozenset(pay_states)
    selector = premium_selector(pay, offsets, m, dist.n, dist.n_states)
    numerator = net_single_premium(c_in, dist, discount).value
    weighted = discount.values[:, None] * dist.matrix * selector.matrix
    denominator = float(np.add.accumulate(np.add.accumulate(weighted)[-1])[-1])
    if denominator == 0.0:
        raise ValidationError("premium annuity value is zero; the premium is undefined")
    return PremiumResult(value=numerator / denominator, kind="period",
                         pay_states=pay, m=m,
                         numerator=numerator, denominator=denominator)


def equivalence_residual(c_in: CashflowMatrix, c_out: CashflowMatrix,
                         dist: DistributionMatrix, discount: DiscountVector) -> float:
    """Expected present value of benefits plus premiums.

    Zero (up to rounding) when the premium satisfies the equivalence
    principle for the given contract.
    """
    return expected_pv(c_in + c_out, dist, discount)
