"""The quote path, bit for bit against the references in ``chains.py``.

A quote prices a benefit as perfbench's quote-book does: a discount vector,
an inflow matrix, its net single premium, the premium selector, the period
premium, the premium outflow and the equivalence residual.  Each step must
give what the reference gives, which checked every matrix and discount
vector in full and values by explicit loops in the kernel's stated order:
the same ``float.hex`` of every value, the same bytes of every matrix, or
the same exception type and message.  The inputs reach the faults each
check exists for: non-finite, signed-zero and huge premiums, bad discount
factors, negative and -0.0 inflows, overlapping entries that overflow,
unreachable and out-of-range pay states and horizons at and past the ends.

Both sides run with numpy's overflow and invalid-value warnings off: an
overflowing entry sum warns on both, and the reference's outflow warned on
an infinite premium (``tests/test_cashflow.py`` checks that the library's
does not).
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import premval as pv
from chains import (random_chain, reference_accelerated_benefit, reference_build_cashflow,
                    reference_check_inflows, reference_discount_fault, reference_expected_pv,
                    reference_premium_outflow, reference_premium_selector)

PREMIUMS = [None, 0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 0.37]
AMOUNTS = [1.0, 0.25, -1.0, -0.0, 0.0, 1e308, float("nan"), float("inf"), 3e-310]
SHARES = [0.0, 1.0, 0.5, 0.123456789, -0.1, 1.5, float("nan")]


def reference_period_premium(c_in, dist, discount, pay_states, offsets, m) -> pv.PremiumResult:
    """``period_premium`` over the reference selector and inflow check, in the library's order."""
    pay = frozenset(pay_states)
    selector = reference_premium_selector(pay, offsets, m, dist.n, dist.n_states)
    reference_check_inflows(c_in)
    numerator = reference_expected_pv(c_in, dist, discount)
    denominator = reference_expected_pv(selector, dist, discount)
    if denominator == 0.0:
        raise pv.ValidationError("premium annuity value is zero; the premium is undefined")
    return pv.PremiumResult(value=numerator / denominator, kind="period", pay_states=pay, m=m,
                            numerator=numerator, denominator=denominator)


def reference_nsp(c_in, dist, discount) -> float:
    reference_check_inflows(c_in)
    return reference_expected_pv(c_in, dist, discount)


LIBRARY = SimpleNamespace(
    discount=pv.DiscountVector, build=pv.build_cashflow, accelerated=pv.accelerated_benefit,
    nsp=lambda c_in, dist, discount: pv.net_single_premium(c_in, dist, discount).value,
    selector=pv.premium_selector, period=pv.period_premium, outflow=pv.premium_outflow,
    residual=pv.equivalence_residual)


def _reference_discount(values):
    fault = reference_discount_fault(values)
    if fault:
        raise fault[0](fault[1])
    return SimpleNamespace(values=values)


REFERENCE = SimpleNamespace(
    discount=_reference_discount, build=reference_build_cashflow, accelerated=reference_accelerated_benefit,
    nsp=reference_nsp, selector=reference_premium_selector, period=reference_period_premium,
    outflow=reference_premium_outflow,
    residual=lambda c_in, c_out, dist, discount: reference_expected_pv(c_in + c_out, dist, discount))


def fingerprint(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, pv.CashflowMatrix):
        return value.matrix.shape, value.matrix.dtype.str, value.matrix.tobytes()
    if isinstance(value, pv.PremiumResult):
        return (value.value.hex(), value.numerator.hex(), value.denominator.hex(), value.kind,
                value.pay_states, value.m)
    return value.values.tobytes()  # a discount vector


def mostly(usual, other, odds: int = 3):
    """``other`` about once in 2**odds draws, else ``usual``."""
    return st.tuples(*[st.booleans()] * odds).flatmap(lambda coins: other if all(coins) else usual)


def run_quote(api, quote) -> list:
    """Every step's fingerprint or fault, in order; a step runs when its inputs exist."""
    steps = []

    def step(name, f, *args):
        try:
            value = f(*args)
        except Exception as exc:  # the type and message are what is compared
            steps.append((name, type(exc).__name__, str(exc)))
            return None
        steps.append((name, fingerprint(value)))
        return value

    n, n_states = quote.dist.n, quote.dist.n_states
    with np.errstate(over="ignore", invalid="ignore"):
        discount = step("discount", api.discount, quote.discount)
        if quote.kind == "accelerated":
            c_in = step("inflows", api.accelerated, quote.inflows, n)
        elif quote.kind == "entries":
            c_in = step("inflows", api.build, quote.inflows, n, n_states)
        else:
            c_in = quote.inflows
        step("selector", api.selector, quote.pay, quote.offsets, quote.m, n, n_states)
        result = None
        if discount is not None and c_in is not None:
            step("nsp", api.nsp, c_in, quote.dist, discount)
            result = step("period", api.period, c_in, quote.dist, discount, quote.pay, quote.offsets, quote.m)
        premium = result.value if quote.premium is None and result is not None else quote.premium
        if premium is None:
            return steps
        c_out = step("outflow", api.outflow, premium, quote.pay, quote.offsets, quote.m, n, n_states)
        if discount is not None and c_in is not None and c_out is not None:
            step("residual", api.residual, c_in, c_out, quote.dist, discount)
    return steps


@st.composite
def discounts(draw, base: np.ndarray) -> np.ndarray:
    values = base.copy()
    fault = draw(mostly(st.none(), st.sampled_from(["zero", "negative", "nan", "inf", "m0", "m0-within"])))
    k = draw(st.integers(0, len(values) - 1))
    if fault == "m0":
        values[0] = 1.0 + 1e-11
    elif fault == "m0-within":
        values[0] = 1.0 - 1e-13
    elif fault is not None:
        values[k] = {"zero": 0.0, "negative": -0.5, "nan": np.nan, "inf": np.inf}[fault]
    return values


@st.composite
def inflows(draw, n: int, n_states: int, cash: "np.ndarray | None"):
    kinds = ["accelerated", "entries"] + (["matrix"] if cash is not None else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "accelerated":
        return kind, draw(st.sampled_from(SHARES) | st.floats(0.0, 1.0))
    if kind == "matrix":
        signs = draw(st.sampled_from(["as drawn", "nonnegative", "negative zeros"]))
        matrix = {"as drawn": cash, "nonnegative": np.abs(cash),
                  "negative zeros": np.where(cash > 0, cash, -0.0)}[signs]
        return kind, pv.CashflowMatrix(matrix)
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        state = draw(mostly(st.integers(1, n_states), st.sampled_from([0, n_states + 1]), 5))
        k_start = draw(mostly(st.integers(0, n + 1), st.just(-1), 5))
        k_end = draw(mostly(st.integers(max(k_start, 0), n + 1), st.sampled_from([k_start - 1, n + 2]), 5))
        amount = draw(st.sampled_from(AMOUNTS) | st.floats(0.0, 2.0) | st.floats(-2.0, 2.0))
        entries.append(pv.CashflowEntry(state, k_start, k_end, amount))
    if entries and draw(st.booleans()):  # two more on the first one's cells, which overflow at 1e308
        first = entries[0]
        entries += [pv.CashflowEntry(first.state, first.k_start, first.k_end,
                                     draw(st.sampled_from([first.amount, 1e308, -1e308])))] * 2
    return kind, entries


@st.composite
def quotes(draw, dist, offsets, base_discount: np.ndarray, cash: "np.ndarray | None"):
    n, n_states = dist.n, dist.n_states
    kind, c_in = draw(inflows(n, n_states, cash))
    pay = draw(mostly(st.frozensets(st.integers(1, n_states), min_size=1, max_size=3),
                      st.frozensets(st.integers(-1, n_states + 2), max_size=4)))
    m = draw(mostly(st.integers(1, n), st.sampled_from([0, 1, n, n + 1])))
    return SimpleNamespace(dist=dist, offsets=offsets, discount=draw(discounts(base_discount)), kind=kind,
                           inflows=c_in, pay=pay, m=m, premium=draw(st.sampled_from(PREMIUMS)))


def assert_same_quote(quote):
    assert run_quote(LIBRARY, quote) == run_quote(REFERENCE, quote)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fixture_quotes_match_the_reference(dread, data):
    rate = data.draw(st.floats(0.0, 0.05))
    base = pv.constant_rate_discount(dread.dist.n, rate=rate).values
    assert_same_quote(data.draw(quotes(dread.dist, dread.offsets, base, None)))


@st.composite
def random_chain_quotes(draw):
    seq, initial, cash, discount = random_chain(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    dist = pv.distribution_matrix(seq, initial)
    offset = mostly(st.integers(0, dist.n), st.sampled_from([None, dist.n + 1]), 2)
    offsets = pv.ArrivalOffsets({s: draw(offset) for s in range(1, dist.n_states + 1)}, initial_state=1)
    return draw(quotes(dist, offsets, discount.values, cash.matrix))


@settings(max_examples=400, deadline=None)
@given(random_chain_quotes())
def test_random_chain_quotes_match_the_reference(quote):
    assert_same_quote(quote)
