"""Float values against their exact rational values.

Every contract of criterion C8, priced through the fixture builders, is
valued again in ``Fraction``s over the chain's edges (``chains.py``).  The
floats must agree to 1e-12 relative: the expected present value, the net
single premium, each state's annuity and each period premium's numerator,
denominator and value.  The same values of a nonnegative contract, and D
entry by entry, must agree as well on criterion C1's 200 random chains and
the three-state chain, and on the pins' wide chain (40 states, 30 periods),
past the ceiling of path enumeration.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import premval as pv
from chains import (THREE_STATE_TABLE, make_three_state_model, random_chain, rational_distribution,
                    rational_expected_pv, reference_build_cashflow, reference_premium_selector)
from test_acceptance import LAMBDAS, MASTER_SEED, PAY_SETS
from test_chain_pins import wide_table_case

REL_TOL = 1e-12


def _contracts(n):
    return ([(f"accel {lam:g}", pv.accelerated_benefit(lam, n)) for lam in LAMBDAS]
            + [(f"case {case}", pv.dread_disease_case(case, n)) for case in (1, 2, 3)])


def _relative_error(value: float, exact) -> float:
    if exact == 0:
        assert value == 0.0
        return 0.0
    return float(abs(Fraction(value) - exact) / abs(exact))


@pytest.fixture(scope="module")
def exact_dist(dread):
    return rational_distribution(dread.seq, dread.initial)


def test_rational_distribution_matches_the_float_one(dread, exact_dist):
    for row, exact_row in zip(dread.dist.matrix.tolist(), exact_dist):
        for value, exact in zip(row, exact_row):
            assert _relative_error(value, exact) <= REL_TOL


def test_c8_contracts_agree_with_their_exact_values(dread, exact_dist):
    started = time.perf_counter()
    n, n_states = dread.table.n, dread.model.n_states
    d, discount = exact_dist, dread.discount
    worst = {"expected_pv": 0.0, "net_single_premium": 0.0, "annuity_due": 0.0, "numerator": 0.0,
             "denominator": 0.0, "value": 0.0}

    def check(kind, value, exact, where):
        error = _relative_error(value, exact)
        assert error <= REL_TOL, f"{kind} of {where}: relative error {error:.2e}"
        worst[kind] = max(worst[kind], error)

    for state in range(1, n_states + 1):
        for k_start, k_end in ((0, n), (0, n + 1), (dread.offsets.offset(state), 10)):
            selector = reference_build_cashflow([pv.CashflowEntry(state, k_start, k_end, 1.0)], n, n_states)
            check("annuity_due", pv.annuity_due(dread.dist, discount, state, k_start, k_end),
                  rational_expected_pv(selector, d, discount), f"state {state} [{k_start}, {k_end})")

    denominators = {(pay, m): rational_expected_pv(reference_premium_selector(pay, dread.offsets, m, n, n_states),
                                                   d, discount)
                    for pay in PAY_SETS for m in (10, n)}
    for name, c_in in _contracts(n):
        exact = rational_expected_pv(c_in, d, discount)
        check("expected_pv", pv.expected_pv(c_in, dread.dist, discount), exact, name)
        check("net_single_premium", pv.net_single_premium(c_in, dread.dist, discount).value, exact, name)
        for (pay, m), denominator in denominators.items():
            result = pv.period_premium(c_in, dread.dist, discount, pay, dread.offsets, m)
            where = f"{name}, pay {sorted(pay)}, m={m}"
            check("numerator", result.numerator, exact, where)
            check("denominator", result.denominator, denominator, where)
            check("value", result.value, exact / denominator, where)
    elapsed = time.perf_counter() - started
    print("\n[PASS] C8 contracts against exact rationals, worst relative errors: "
          + ", ".join(f"{kind} {error:.1e}" for kind, error in worst.items()) + f" ({elapsed:.2f} s)")


def c1_chains():
    """Criterion C1's chains, as (name, seq, initial, dist, nonnegative cash, discount, offsets);
    a random chain has no model, so every state pays from time 0."""
    rng = np.random.default_rng(MASTER_SEED)
    for index in range(200):
        seq, initial, cash, discount = random_chain(rng, max_states=6, max_horizon=8)
        offsets = pv.ArrivalOffsets(dict.fromkeys(range(1, seq.n_states + 1), 0),
                                    initial_state=int(np.argmax(initial)) + 1)
        yield (f"C1 chain {index}", seq, initial, pv.distribution_matrix(seq, initial),
               pv.CashflowMatrix(np.abs(cash.matrix)), discount, offsets)
    chain = pv.build_chain(make_three_state_model(), THREE_STATE_TABLE)
    yield ("three-state chain", chain.seq, chain.initial, chain.dist,
           pv.build_cashflow([pv.CashflowEntry(2, 1, 3, 1.0)], n=2, n_states=3),
           pv.DiscountVector(np.array([1.0, 0.9, 0.81])), chain.offsets)


def wide_chain():
    chain = pv.build_chain(*wide_table_case())
    rng = np.random.default_rng(MASTER_SEED + 40)
    cash = rng.uniform(0.0, 2.0, chain.dist.matrix.shape) * (rng.random(chain.dist.matrix.shape) < 0.3)
    discount = pv.constant_rate_discount(chain.seq.n, rate=0.03)
    yield ("wide chain", chain.seq, chain.initial, chain.dist, pv.CashflowMatrix(cash), discount, chain.offsets)


@pytest.mark.parametrize("chains", [c1_chains, wide_chain], ids=["c1-chains", "wide-chain"])
def test_chains_past_the_fixture_agree_with_their_exact_values(chains):
    started = time.perf_counter()
    worst: dict = {}

    def check(kind, value, exact, where):
        error = _relative_error(value, exact)
        assert error <= REL_TOL, f"{kind} of {where}: relative error {error:.2e}"
        worst[kind] = max(worst.get(kind, 0.0), error)

    for name, seq, initial, dist, c_in, discount, offsets in chains():
        d = rational_distribution(seq, initial)
        for k, (row, exact_row) in enumerate(zip(dist.matrix.tolist(), d)):
            for j, (value, exact) in enumerate(zip(row, exact_row)):
                check("D", value, exact, f"{name} at (k={k}, state={j + 1})")
        n, n_states = dist.n, dist.n_states
        exact = rational_expected_pv(c_in, d, discount)
        check("expected_pv", pv.expected_pv(c_in, dist, discount), exact, name)
        check("net_single_premium", pv.net_single_premium(c_in, dist, discount).value, exact, name)
        for state in range(1, n_states + 1):
            selector = reference_build_cashflow([pv.CashflowEntry(state, 0, n + 1, 1.0)], n, n_states)
            check("annuity_due", pv.annuity_due(dist, discount, state, 0, n + 1),
                  rational_expected_pv(selector, d, discount), f"{name}, state {state}")
        reachable = [s for s in range(1, n_states + 1) if offsets.payable(s, n)]
        for pay in ({offsets.initial_state}, set(reachable[:3]), set(reachable)):
            for m in sorted({1, (n + 1) // 2, n}):
                if not any(offsets.payable(s, m) for s in pay):
                    continue
                denominator = rational_expected_pv(reference_premium_selector(pay, offsets, m, n, n_states),
                                                   d, discount)
                if denominator == 0:  # reachable on the graph, never occupied before m
                    with pytest.raises(pv.ValidationError, match="premium annuity value is zero"):
                        pv.period_premium(c_in, dist, discount, pay, offsets, m)
                    continue
                result = pv.period_premium(c_in, dist, discount, pay, offsets, m)
                where = f"{name}, pay {sorted(pay)}, m={m}"
                check("numerator", result.numerator, exact, where)
                check("denominator", result.denominator, denominator, where)
                check("value", result.value, exact / denominator, where)
    elapsed = time.perf_counter() - started
    print("\n[PASS] against exact rationals, worst relative errors: "
          + ", ".join(f"{kind} {error:.1e}" for kind, error in worst.items()) + f" ({elapsed:.2f} s)")
