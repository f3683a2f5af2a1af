"""Discounting, expected present values, annuity values and premiums."""

import numpy as np
import pytest

import premval as pv
from chains import random_table_case


class TestDiscountVector:
    def test_constant_rate_matches_explicit_factor(self):
        by_rate = pv.constant_rate_discount(4, rate=0.01)
        by_factor = pv.constant_rate_discount(4, v=1 / 1.01)
        np.testing.assert_allclose(by_rate.values, by_factor.values, rtol=1e-15)
        assert by_rate.values[0] == 1.0

    def test_exactly_one_source_required(self):
        with pytest.raises(pv.ValidationError, match="exactly one"):
            pv.constant_rate_discount(3)
        with pytest.raises(pv.ValidationError, match="exactly one"):
            pv.constant_rate_discount(3, v=0.99, rate=0.01)

    def test_factor_outside_unit_interval_rejected(self):
        with pytest.raises(pv.ValidationError, match="outside"):
            pv.constant_rate_discount(3, v=1.2)
        with pytest.raises(pv.ValidationError, match="outside"):
            pv.constant_rate_discount(3, v=0.0)

    @pytest.mark.parametrize("rate", [-1.0, -2.5, float("nan")])
    def test_rate_at_or_below_minus_one_rejected(self, rate):
        with pytest.raises(pv.ValidationError, match=f"interest rate {rate!r} must exceed -1"):
            pv.constant_rate_discount(3, rate=rate)

    def test_first_factor_must_be_one(self):
        with pytest.raises(pv.ValidationError, match=r"^m_0 must equal 1, got 0\.99$"):
            pv.DiscountVector(np.array([0.99, 0.98]))

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(pv.ValidationError, match="positive"):
            pv.DiscountVector(np.array([1.0, -0.5]))

    def test_parse_and_length_check(self):
        d = pv.parse_discount_text("1.0\n0.9\n0.81\n", n=2)
        np.testing.assert_array_equal(d.values, [1.0, 0.9, 0.81])
        with pytest.raises(pv.ValidationError, match="expected 4"):
            pv.parse_discount_text("1.0\n0.9\n", n=3)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(pv.ParseError, match="cannot read discount file"):
            pv.load_discount_file(tmp_path / "absent.txt", n=2)


class TestExpectedPv:
    def test_flat_discount_value(self, chain3, claim_cash3, flat_discount3):
        value = pv.expected_pv(claim_cash3, chain3.dist, flat_discount3)
        assert value == pytest.approx(0.19, rel=1e-14)

    def test_geometric_discount_value(self, chain3, claim_cash3, geometric_discount3):
        value = pv.expected_pv(claim_cash3, chain3.dist, geometric_discount3)
        assert value == pytest.approx(0.1629, rel=1e-14)

    def test_shape_mismatch_rejected(self, chain3, flat_discount3):
        bad = pv.CashflowMatrix(np.ones((5, 3)))
        with pytest.raises(pv.ValidationError):
            pv.expected_pv(bad, chain3.dist, flat_discount3)

    def test_linear_in_cash(self, chain3, geometric_discount3):
        rng = np.random.default_rng(3)
        a = pv.CashflowMatrix(rng.normal(size=(3, 3)))
        b = pv.CashflowMatrix(rng.normal(size=(3, 3)))
        lhs = pv.expected_pv(a + b, chain3.dist, geometric_discount3)
        rhs = (pv.expected_pv(a, chain3.dist, geometric_discount3)
               + pv.expected_pv(b, chain3.dist, geometric_discount3))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestNetSinglePremium:
    def test_three_state_value(self, chain3, claim_cash3, geometric_discount3):
        result = pv.net_single_premium(claim_cash3, chain3.dist, geometric_discount3)
        assert result.kind == "single"
        assert result.value == pytest.approx(0.1629, rel=1e-14)

    def test_negative_inflow_rejected_with_location(self, chain3, geometric_discount3):
        cash = np.zeros((3, 3))
        cash[1, 1] = -2.0
        with pytest.raises(pv.ValidationError, match=r"^negative entry -2\.0 at \(k=1, state=2\) in inflow matrix$"):
            pv.net_single_premium(pv.CashflowMatrix(cash), chain3.dist, geometric_discount3)


class TestAnnuityDue:
    def test_initial_state_value(self, chain3, geometric_discount3):
        assert pv.annuity_due(chain3.dist, geometric_discount3, 1, 0, 2) == \
            pytest.approx(1.81, rel=1e-14)

    def test_claim_state_value(self, chain3, geometric_discount3):
        assert pv.annuity_due(chain3.dist, geometric_discount3, 2, 1, 3) == \
            pytest.approx(0.9 * 0.1 + 0.81 * 0.09, rel=1e-14)

    def test_empty_interval_is_zero(self, chain3, geometric_discount3):
        assert pv.annuity_due(chain3.dist, geometric_discount3, 1, 2, 2) == 0.0

    def test_interval_out_of_range(self, chain3, geometric_discount3):
        with pytest.raises(pv.ValidationError, match="out of range"):
            pv.annuity_due(chain3.dist, geometric_discount3, 1, 0, 9)
        with pytest.raises(pv.ValidationError, match="out of range"):
            pv.annuity_due(chain3.dist, geometric_discount3, 1, -1, 2)

    def test_state_out_of_range(self, chain3, geometric_discount3):
        with pytest.raises(pv.ValidationError, match="state 9"):
            pv.annuity_due(chain3.dist, geometric_discount3, 9, 0, 2)


class TestPeriodPremium:
    def test_three_state_value(self, chain3, claim_cash3, geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        result = pv.period_premium(claim_cash3, chain3.dist, geometric_discount3,
                                   {1}, offsets, m=2)
        assert result.kind == "period"
        assert result.value == pytest.approx(0.09, rel=1e-14)
        assert result.numerator == pytest.approx(0.1629, rel=1e-14)
        assert result.denominator == pytest.approx(1.81, rel=1e-14)

    def test_initial_state_shortcut_matches_general(self, chain3, claim_cash3,
                                                    geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        general = pv.period_premium(claim_cash3, chain3.dist, geometric_discount3,
                                    {1}, offsets, m=2)
        direct = pv.period_premium_initial(claim_cash3, chain3.dist, geometric_discount3, m=2)
        assert general.value == direct.value
        assert general.denominator == direct.denominator

    def test_widening_pay_set_lowers_premium(self, chain3, claim_cash3, geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        narrow = pv.period_premium(claim_cash3, chain3.dist, geometric_discount3,
                                   {1}, offsets, m=2)
        wide = pv.period_premium(claim_cash3, chain3.dist, geometric_discount3,
                                 {1, 2}, offsets, m=2)
        assert wide.value < narrow.value
        assert wide.denominator > narrow.denominator

    def test_m_out_of_range(self, chain3, claim_cash3, geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        with pytest.raises(pv.ValidationError, match="premium horizon"):
            pv.period_premium(claim_cash3, chain3.dist, geometric_discount3, {1}, offsets, m=0)

    def test_no_payable_state(self, chain3, claim_cash3, geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        with pytest.raises(pv.ValidationError, match="no payable state"):
            pv.period_premium(claim_cash3, chain3.dist, geometric_discount3, {3}, offsets, m=2)

    def test_zero_annuity_value_rejected(self):
        # state 2 is reachable by the graph but carries no probability mass
        # before m, so the premium is undefined
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (1, 3), (2, 3)}))
        text = "k,l_1,l_2,d_1_2,d_1_3,d_2_3\n0,100,0,0,10,0\n1,90,0,5,9,0\n2,76,5,0,0,0\n"
        table = pv.load_table(text, model)
        seq = pv.transition_sequence(table, model)
        dist = pv.distribution_matrix(seq, pv.unit_distribution(3, 1))
        discount = pv.constant_rate_discount(2, rate=0.0)
        cash = pv.build_cashflow([pv.CashflowEntry(3, 1, 3, 1.0)], n=2, n_states=3)
        offsets = pv.shortest_arrival(model)
        with pytest.raises(pv.ValidationError, match="annuity value is zero"):
            pv.period_premium(cash, dist, discount, {2}, offsets, m=2)

    def test_result_consistency_enforced(self):
        with pytest.raises(pv.ValidationError, match="inconsistent premium result"):
            pv.PremiumResult(value=2.0, kind="period", pay_states=frozenset({1}),
                             m=1, numerator=1.0, denominator=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(pv.ValidationError, match="unknown premium kind"):
            pv.PremiumResult(value=1.0, kind="level")


class TestEquivalence:
    def test_single_premium_balances(self, chain3, claim_cash3, geometric_discount3):
        result = pv.net_single_premium(claim_cash3, chain3.dist, geometric_discount3)
        outflow = np.zeros((3, 3))
        outflow[0, 0] = -result.value
        residual = pv.equivalence_residual(claim_cash3, pv.CashflowMatrix(outflow),
                                           chain3.dist, geometric_discount3)
        assert abs(residual) < 1e-14

    def test_period_premium_balances(self, chain3, claim_cash3, geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        result = pv.period_premium(claim_cash3, chain3.dist, geometric_discount3,
                                   {1, 2}, offsets, m=2)
        c_out = pv.premium_outflow(result.value, {1, 2}, offsets, m=2, n=2, n_states=3)
        residual = pv.equivalence_residual(claim_cash3, c_out, chain3.dist, geometric_discount3)
        assert abs(residual) < 1e-14

    @pytest.mark.parametrize("seed", range(30))
    def test_random_contracts_balance(self, seed):
        rng = np.random.default_rng(40_000 + seed)
        model, text = random_table_case(rng)
        table = pv.infer_reflex_columns(pv.load_table(text, model), model)
        seq = pv.transition_sequence(table, model)
        dist = pv.distribution_matrix(seq, pv.unit_distribution(model.n_states, 1))
        discount = pv.constant_rate_discount(table.n, rate=rng.uniform(0.0, 0.08))
        cash = rng.uniform(0.0, 2.0, (table.n + 1, model.n_states))
        cash[rng.random(cash.shape) < 0.5] = 0.0
        c_in = pv.CashflowMatrix(cash)
        offsets = pv.shortest_arrival(model)
        m = int(rng.integers(1, table.n + 1))
        pay = {1} | {s for s in range(2, model.n_states + 1) if rng.random() < 0.3}
        result = pv.period_premium(c_in, dist, discount, pay, offsets, m)
        c_out = pv.premium_outflow(result.value, pay, offsets, m, table.n, model.n_states)
        residual = pv.equivalence_residual(c_in, c_out, dist, discount)
        assert abs(residual) <= 1e-10 * max(1.0, result.numerator)
