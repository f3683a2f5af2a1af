"""Acceptance gate: one test per contracted behavior, each at its stated
tolerance.  Every test prints a single [PASS] line with the observed numbers
(visible with ``pytest -s``); a failing criterion fails its test.
"""

import time

import numpy as np
import pytest

import premval as pv
from chains import (THREE_STATE_TABLE, dijkstra_offsets, make_three_state_model,
                    random_chain, random_digraph, random_table_case)

MASTER_SEED = 20260817
PAY_SETS = (frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3, 4, 5, 6}))
LAMBDAS = (0.001, 0.25, 0.5, 0.75, 1.0)


def _report(text):
    print(f"\n[PASS] {text}")


def _three_state_chain():
    model = make_three_state_model()
    table = pv.infer_reflex_columns(pv.load_table(THREE_STATE_TABLE, model), model)
    seq = pv.transition_sequence(table, model)
    dist = pv.distribution_matrix(seq, pv.unit_distribution(3, 1))
    return seq, dist


def test_c1_path_enumeration_agrees_with_matrix_valuation():
    """Exhaustive enumeration and the matrix method agree to 1e-12 relative."""
    started = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    checked = 0
    for _ in range(200):
        seq, initial, cash, discount = random_chain(rng, max_states=6, max_horizon=8)
        dist = pv.distribution_matrix(seq, initial)
        want = pv.expected_pv(cash, dist, discount)
        got = pv.enumerate_pv(seq, initial, cash, discount)
        gap = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, gap)
        assert gap <= 1e-12
        checked += 1

    seq, dist = _three_state_chain()
    cash = pv.build_cashflow([pv.CashflowEntry(2, 1, 3, 1.0)], n=2, n_states=3)
    discount = pv.DiscountVector(np.array([1.0, 0.9, 0.81]))
    want = pv.expected_pv(cash, dist, discount)
    got = pv.enumerate_pv(seq, pv.unit_distribution(3, 1), cash, discount)
    assert abs(got - want) / max(1.0, abs(want)) <= 1e-12
    checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(f"enumeration oracle matches matrix values on {checked} chains; "
            f"worst relative gap {worst:.2e}; {elapsed:.2f}s (budget 5s)")


def test_c2_fixture_premiums_match_independent_simulation(dread):
    """Matrix premiums sit within 4 standard errors of a one-million-path run."""
    started = time.perf_counter()
    c_in = pv.accelerated_benefit(0.5, dread.table.n)
    initial = pv.unit_distribution(dread.model.n_states, 1)
    ensemble = pv.simulate(dread.seq, initial, 1_000_000, MASTER_SEED)

    checks = []
    single = pv.net_single_premium(c_in, dread.dist, dread.discount)
    estimate = pv.mc_pv(ensemble, c_in, dread.discount)
    z = abs(estimate.mean - single.value) / estimate.std_error
    checks.append(("single", z))
    assert z < 4.0

    for pay in PAY_SETS:
        want = pv.period_premium(c_in, dread.dist, dread.discount, pay,
                                 dread.offsets, dread.table.n)
        got = pv.mc_premium(ensemble, c_in, dread.discount, pay,
                            dread.offsets, dread.table.n)
        z = abs(got.mean - want.value) / got.std_error
        checks.append((f"pay {{{','.join(map(str, sorted(pay)))}}}", z))
        assert z < 4.0

    gap, scale = pv.frequency_vs_distribution(ensemble, dread.dist)
    assert gap < 5 * scale

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    detail = ", ".join(f"{label} z={z:.2f}" for label, z in checks)
    _report(f"1e6-path simulation (seed {MASTER_SEED}) confirms all fixture premiums "
            f"within 4 SE ({detail}); occupancy frequencies within 5 SE; "
            f"{elapsed:.1f}s (budget 60s)")


def test_c3_general_premium_reduces_to_initial_state_formula(dread):
    """Premiums payable only in the initial state match the direct formula."""
    worst = 0.0
    for lam in LAMBDAS:
        c_in = pv.accelerated_benefit(lam, dread.table.n)
        for m in (1, 10, dread.table.n):
            general = pv.period_premium(c_in, dread.dist, dread.discount,
                                        {1}, dread.offsets, m)
            direct = pv.period_premium_initial(c_in, dread.dist, dread.discount, m)
            gap = abs(general.value - direct.value) / max(1.0, abs(direct.value))
            worst = max(worst, gap)
            assert gap <= 1e-12
    _report(f"general premium on pay set {{1}} reproduces the initial-state formula, "
            f"worst relative gap {worst:.1e} (tolerance 1e-12)")


def test_c4_annuity_values_equal_selector_contraction(dread):
    """The interval annuity loop equals a full-horizon 0/1-selector sum, bitwise."""
    compared = 0
    for dist, discount in ((_three_state_chain()[1], pv.DiscountVector(np.array([1.0, 0.9, 0.81]))),
                           (dread.dist, dread.discount)):
        n, n_states = dist.n, dist.n_states
        for state in range(1, n_states + 1):
            column = dist.matrix[:, state - 1]
            for k1 in range(n + 1):
                for k2 in range(k1, n + 2):
                    selector = np.zeros(n + 1)
                    selector[k1:k2] = 1.0
                    contracted = 0.0
                    for t in range(n + 1):
                        contracted += discount.values[t] * column[t] * selector[t]
                    direct = pv.annuity_due(dist, discount, state, k1, k2)
                    assert direct == contracted
                    compared += 1
    _report(f"annuity values equal full-horizon selector contractions bitwise "
            f"on {compared} (state, interval) pairs")


def test_c5_earliest_arrival_offsets(dread):
    """Arrival offsets are exact on the fixture and match Dijkstra elsewhere."""
    got = [dread.offsets.offset(s) for s in range(1, 11)]
    assert got == [0, 1, 1, 2, 3, 4, 1, 2, 2, 3]

    rng = np.random.default_rng(MASTER_SEED + 5)
    for _ in range(1000):
        model = random_digraph(rng)
        offsets = pv.shortest_arrival(model)
        want = dijkstra_offsets(model)
        for s in range(1, model.n_states + 1):
            assert offsets.offset(s) == want[s]
    _report("earliest arrivals (0,1,1,2,3,4,1,2,2,3) on the fixture; "
            "breadth-first search matches Dijkstra on 1000 random digraphs")


def test_c6_transition_rows_are_stochastic_and_sparse(dread):
    """Rows sum to one within 1e-12 and vanish exactly off the model graph."""
    sums = dread.seq.matrices.sum(axis=2)
    assert np.abs(sums - 1.0).max() <= 1e-12
    assert np.abs(dread.dist.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    mask = pv.allowed_pattern(dread.model)
    off_graph = dread.seq.matrices[:, ~mask]
    assert (off_graph == 0.0).all()
    assert pv.pattern_violations(dread.seq, dread.model) == []

    rng = np.random.default_rng(MASTER_SEED + 6)
    worst = 0.0
    for _ in range(500):
        model, text = random_table_case(rng)
        table = pv.infer_reflex_columns(pv.load_table(text, model), model)
        seq = pv.transition_sequence(table, model)
        worst = max(worst, np.abs(seq.matrices.sum(axis=2) - 1.0).max())
        assert worst <= 1e-12
    _report(f"rows are stochastic within 1e-12 on the fixture and 500 random tables "
            f"(worst {worst:.1e}); off-graph entries are exactly zero")


def test_c7_every_premium_satisfies_the_equivalence_principle(dread):
    """Collecting the computed premium balances the contract to 1e-10 relative."""
    n, n_states = dread.table.n, dread.model.n_states
    contracts = [pv.accelerated_benefit(lam, n) for lam in LAMBDAS]
    contracts += [pv.dread_disease_case(case, n) for case in (1, 2, 3)]
    checked = 0
    worst = 0.0

    for c_in in contracts:
        single = pv.net_single_premium(c_in, dread.dist, dread.discount)
        outflow = np.zeros((n + 1, n_states))
        outflow[0, 0] = -single.value
        residual = pv.equivalence_residual(c_in, pv.CashflowMatrix(outflow),
                                           dread.dist, dread.discount)
        scaled = abs(residual) / max(1.0, single.value)
        worst = max(worst, scaled)
        assert scaled <= 1e-10
        checked += 1

        for pay in PAY_SETS:
            for m in (10, n):
                result = pv.period_premium(c_in, dread.dist, dread.discount,
                                           pay, dread.offsets, m)
                c_out = pv.premium_outflow(result.value, pay, dread.offsets,
                                           m, n, n_states)
                residual = pv.equivalence_residual(c_in, c_out, dread.dist, dread.discount)
                scaled = abs(residual) / max(1.0, result.numerator)
                worst = max(worst, scaled)
                assert scaled <= 1e-10
                checked += 1
    _report(f"equivalence residual below 1e-10 for all {checked} computed premiums "
            f"(worst {worst:.1e})")


def test_c8_premium_trends_across_contracts(dread):
    """More acceleration costs more; wider pay sets and richer covers order correctly."""
    n = dread.table.n
    singles = []
    for lam in LAMBDAS:
        c_in = pv.accelerated_benefit(lam, n)
        singles.append(pv.net_single_premium(c_in, dread.dist, dread.discount).value)
    assert all(a < b for a, b in zip(singles, singles[1:]))

    c_mid = pv.accelerated_benefit(0.5, n)
    by_set = [pv.period_premium(c_mid, dread.dist, dread.discount, pay,
                                dread.offsets, n).value for pay in PAY_SETS]
    assert by_set[0] > by_set[1] > by_set[2]

    cases = [pv.net_single_premium(pv.dread_disease_case(case, n),
                                   dread.dist, dread.discount).value
             for case in (1, 2, 3)]
    assert cases[1] < cases[0] < cases[2]

    _report("premiums rise with the accelerated share "
            f"({singles[0]:.5f} -> {singles[-1]:.5f}), fall as the pay set widens "
            f"({by_set[0]:.5f} > {by_set[1]:.5f} > {by_set[2]:.5f}), and the annuity "
            f"variant is cheapest while the endowment variant is dearest "
            f"({cases[1]:.5f} < {cases[0]:.5f} < {cases[2]:.5f})")
