"""The fixture's float values against their exact rational values.

Every contract of criterion C8, priced through the fixture builders, is
valued again in ``Fraction``s over the chain's edges (``chains.py``).  The
floats must agree to 1e-12 relative: the expected present value, the net
single premium, each state's annuity and each period premium's numerator,
denominator and value.
"""

import time
from fractions import Fraction

import pytest

import premval as pv
from chains import (rational_distribution, rational_expected_pv, reference_build_cashflow,
                    reference_premium_selector)
from test_acceptance import LAMBDAS, PAY_SETS

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
