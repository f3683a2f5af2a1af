"""Cash-flow matrices: builders for the dread-disease contracts, the file
format, the premium selector and premium outflows, the integer check of
their states, periods and horizons, and the builders allowed to skip the
matrix check."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import premval as pv

SRC = Path(pv.__file__).parent

#: The builders that make a CashflowMatrix without its check, each with the
#: reason no argument can give it a matrix the check would refuse.
UNCHECKED_BUILDERS = {
    ("fixtures", "accelerated_benefit"):
        "its amounts are the share, 1 and 1 - share, with the share checked a real in [0, 1], on n + 1 >= 1 periods",
    ("fixtures", "dread_disease_case"):
        "its amounts are 0, 0.25, 1 and 2, with the case checked in 1..3, on n + 1 >= 1 periods",
    ("cashflow", "premium_selector"):
        "its amounts are 0 and 1, on n + 1 >= 2 periods, with a state payable before m or a refusal",
    ("cashflow", "premium_outflow"):
        "its amounts are -premium times a selector holding a one, after the premium is checked a finite real",
}


class TestCashflowMatrix:
    def test_addition(self):
        a = pv.CashflowMatrix(np.ones((2, 3)))
        b = pv.CashflowMatrix(np.full((2, 3), 2.0))
        np.testing.assert_array_equal((a + b).matrix, 3.0)

    def test_shape_mismatch_rejected(self):
        a = pv.CashflowMatrix(np.ones((2, 3)))
        b = pv.CashflowMatrix(np.ones((3, 2)))
        with pytest.raises(pv.ValidationError, match="different shapes"):
            a + b

    def test_non_finite_rejected(self):
        with pytest.raises(pv.ValidationError, match="non-finite"):
            pv.CashflowMatrix(np.array([[np.nan]]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(pv.ValidationError, match="2-D"):
            pv.CashflowMatrix(np.ones(4))

    def test_no_periods_rejected(self):
        with pytest.raises(pv.ValidationError, match="cash-flow matrix has no periods"):
            pv.CashflowMatrix(np.ones((0, 3)))

    def test_a_checked_matrix_cannot_be_edited(self, dread):
        """Built by a checking or an unchecking builder, or from the caller's array,
        which stays the caller's to write."""
        given = np.ones((26, 10))
        matrices = [pv.accelerated_benefit(0.5, 25), pv.dread_disease_case(2, 25), pv.CashflowMatrix(given),
                    pv.build_cashflow([pv.CashflowEntry(2, 1, 5, 1.0)], 25, 10),
                    pv.premium_selector({1}, dread.offsets, 10, 25, 10),
                    pv.premium_outflow(0.1, {1}, dread.offsets, 10, 25, 10)]
        matrices.append(matrices[0] + matrices[-1])
        for c in matrices:
            with pytest.raises(ValueError, match="read-only"):
                c.matrix[3, 2] = np.nan
        given[3, 2] = 2.0  # the caller's array stays the caller's to write


class TestBuildCashflow:
    def test_overlapping_entries_add(self):
        entries = [pv.CashflowEntry(1, 0, 2, 1.0), pv.CashflowEntry(1, 1, 3, 0.5)]
        c = pv.build_cashflow(entries, n=2, n_states=2)
        np.testing.assert_array_equal(c.matrix, [[1.0, 0.0], [1.5, 0.0], [0.5, 0.0]])

    def test_state_out_of_range(self):
        with pytest.raises(pv.ValidationError, match="state 5 out of range"):
            pv.build_cashflow([pv.CashflowEntry(5, 0, 1, 1.0)], n=2, n_states=2)

    def test_period_out_of_range(self):
        with pytest.raises(pv.ValidationError, match="out of range"):
            pv.build_cashflow([pv.CashflowEntry(1, 0, 9, 1.0)], n=2, n_states=2)

    @pytest.mark.parametrize("n_states", [0, -1])
    def test_no_states_rejected(self, n_states):
        with pytest.raises(pv.ValidationError, match="cash-flow matrix has no states"):
            pv.build_cashflow([], n=2, n_states=n_states)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_horizon_rejected(self, n):
        with pytest.raises(pv.ValidationError, match=rf"^horizon n={n} is negative$"):
            pv.build_cashflow([], n=n, n_states=2)

    def test_parse_round_trip(self):
        entries = pv.parse_cashflow_text("# contract\nflow 2 1 3 0.25\nflow 1 0 1 -1\n")
        assert entries == [pv.CashflowEntry(2, 1, 3, 0.25), pv.CashflowEntry(1, 0, 1, -1.0)]

    def test_parse_error_carries_line_number(self):
        with pytest.raises(pv.ParseError, match="line 2"):
            pv.parse_cashflow_text("flow 1 0 1 1\nflow 1 0\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(pv.ParseError, match="cannot read cash-flow file"):
            pv.load_cashflow_file(tmp_path / "absent.flows")


class TestAcceleratedBenefit:
    def test_half_accelerated_rows(self):
        c = pv.accelerated_benefit(0.5, n=3)
        assert c.matrix.shape == (4, 10)
        np.testing.assert_array_equal(c.matrix[0], np.zeros(10))
        np.testing.assert_array_equal(c.matrix[1],
                                      [0, 0, 0.5, 0, 0, 0, 1.0, 0, 0.0, 0])
        np.testing.assert_array_equal(c.matrix[2],
                                      [0, 0, 0.5, 0, 0, 0, 1.0, 0, 0.5, 0])
        np.testing.assert_array_equal(c.matrix[3], c.matrix[2])

    def test_case_one_is_plain_cover_plus_terminal_lump_sum(self):
        plain = pv.accelerated_benefit(0.0, n=5).matrix
        extra = pv.dread_disease_case(1, n=5).matrix - plain
        want = np.zeros_like(plain)
        want[1:, 2] = 1.0
        np.testing.assert_array_equal(extra, want)

    def test_fully_accelerated_pays_nothing_on_later_death(self):
        c = pv.accelerated_benefit(1.0, n=4)
        np.testing.assert_array_equal(c.matrix[:, 8], np.zeros(5))

    @pytest.mark.parametrize("share", [0.1, 0.25, 0.8])
    def test_affine_in_the_accelerated_share(self, share):
        lo = pv.accelerated_benefit(0.0, n=6).matrix
        hi = pv.accelerated_benefit(1.0, n=6).matrix
        mid = pv.accelerated_benefit(share, n=6).matrix
        np.testing.assert_allclose(mid, (1 - share) * lo + share * hi, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("share", [-0.01, 1.01, np.nan])
    def test_share_outside_unit_interval_rejected(self, share):
        with pytest.raises(pv.ValidationError):
            pv.accelerated_benefit(share, n=3)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_horizon_rejected(self, n):
        with pytest.raises(pv.ValidationError, match=rf"^horizon n={n} is negative$"):
            pv.accelerated_benefit(0.5, n)

    def test_ceased_cover_states(self):
        assert pv.ceased_cover_states(0.99) == frozenset()
        assert pv.ceased_cover_states(1.0) == frozenset({3, 4, 5, 6})


class TestDreadDiseaseCases:
    def test_unknown_case_rejected(self):
        with pytest.raises(pv.ValidationError, match="unknown case id"):
            pv.dread_disease_case(4, n=3)

    @pytest.mark.parametrize("case", [2.0, "2", None])
    def test_non_integer_case_id_rejected(self, case):
        # 2.0 == 2, so a membership test alone would price case 2.
        with pytest.raises(pv.ValidationError, match=r"^case id must be an integer, got "):
            pv.dread_disease_case(case, n=3)

    def test_numpy_integer_case_id_accepted(self):
        np.testing.assert_array_equal(pv.dread_disease_case(np.int64(2), n=3).matrix,
                                      pv.dread_disease_case(2, n=3).matrix)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_horizon_rejected(self, n):
        with pytest.raises(pv.ValidationError, match=rf"^horizon n={n} is negative$"):
            pv.dread_disease_case(1, n)

    def test_annuity_case_replaces_lump_sum_with_terminal_income(self):
        plain = pv.accelerated_benefit(0.0, n=6).matrix
        extra = pv.dread_disease_case(2, n=6).matrix - plain
        want = np.zeros_like(plain)
        for state in (3, 4, 5, 6):
            want[state - 2:, state - 1] = 0.25
        np.testing.assert_array_equal(extra, want)

    def test_endowment_case_adds_survival_payment(self):
        base = pv.dread_disease_case(1, n=6).matrix
        endow = pv.dread_disease_case(3, n=6).matrix
        extra = endow - base
        want = np.zeros_like(base)
        want[6, 0:6] = 1.0
        np.testing.assert_array_equal(extra, want)


class TestPremiumSelector:
    def test_ones_from_earliest_arrival_to_m(self, model3):
        offsets = pv.shortest_arrival(model3)
        s = pv.premium_selector({1, 2}, offsets, m=2, n=2, n_states=3)
        np.testing.assert_array_equal(s.matrix, [[1.0, 0.0, 0.0],
                                                 [1.0, 1.0, 0.0],
                                                 [0.0, 0.0, 0.0]])

    def test_state_reached_at_m_is_left_out(self, model3):
        offsets = pv.shortest_arrival(model3)
        s = pv.premium_selector({1, 2}, offsets, m=1, n=2, n_states=3)
        np.testing.assert_array_equal(s.matrix[:, 1], np.zeros(3))

    @pytest.mark.parametrize("pay, bad", [({0}, 0), ({4}, 4), ({1, 4}, 4), ({0, 9}, 0)])
    def test_pay_state_out_of_range(self, model3, pay, bad):
        offsets = pv.shortest_arrival(model3)
        with pytest.raises(pv.ValidationError, match=f"^pay state {bad} out of range 1..3$"):
            pv.premium_selector(pay, offsets, m=2, n=2, n_states=3)

    def test_fixture_pay_state_out_of_range_in_every_consumer(self, dread):
        c_in = pv.accelerated_benefit(0.5, dread.table.n)
        ensemble = pv.simulate(dread.seq, dread.initial, 10, 1)
        calls = [
            lambda: pv.premium_selector({99}, dread.offsets, 25, 25, 10),
            lambda: pv.premium_outflow(0.1, {1, 11}, dread.offsets, 25, 25, 10),
            lambda: pv.period_premium(c_in, dread.dist, dread.discount, {99}, dread.offsets, 25),
            lambda: pv.mc_premium(ensemble, c_in, dread.discount, {99}, dread.offsets, 25),
        ]
        for call, bad in zip(calls, (99, 11, 99, 99)):
            with pytest.raises(pv.ValidationError, match=f"^pay state {bad} out of range 1..10$"):
                call()

    def test_horizon_past_numpys_largest_array_is_named(self, dread):
        with pytest.raises(pv.ValidationError,
                           match=rf"^premium selector of shape \(1{'0' * 26}1, 10\) does not fit in memory$"):
            pv.premium_selector({1}, dread.offsets, 1, 10 ** 27, 10)


class TestPremiumOutflow:
    def test_offsets_shift_payment_start(self, model3):
        offsets = pv.shortest_arrival(model3)
        c = pv.premium_outflow(2.0, {1, 2}, offsets, m=2, n=2, n_states=3)
        np.testing.assert_array_equal(c.matrix, [[-2.0, 0.0, 0.0],
                                                 [-2.0, -2.0, 0.0],
                                                 [0.0, 0.0, 0.0]])

    def test_m_out_of_range(self, model3):
        offsets = pv.shortest_arrival(model3)
        with pytest.raises(pv.ValidationError, match="premium horizon m=9"):
            pv.premium_outflow(1.0, {1}, offsets, m=9, n=2, n_states=3)

    def test_no_payable_state(self, model3):
        offsets = pv.shortest_arrival(model3)
        with pytest.raises(pv.ValidationError, match="no payable state"):
            pv.premium_outflow(1.0, {3}, offsets, m=2, n=2, n_states=3)

    def test_unreachable_state_never_pays(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 2)}))
        offsets = pv.shortest_arrival(model)
        c = pv.premium_outflow(1.0, {1, 3}, offsets, m=2, n=2, n_states=3)
        np.testing.assert_array_equal(c.matrix[:, 2], np.zeros(3))

    @pytest.mark.parametrize("premium", [np.nan, np.inf, -np.inf])
    def test_non_finite_premium_refused_without_a_warning(self, dread, premium):
        # The suite turns numpy's RuntimeWarning into an error, so this also shows none is raised.
        with pytest.raises(pv.ValidationError, match="^non-finite cash-flow amount$"):
            pv.premium_outflow(premium, {1}, dread.offsets, 10, 25, 10)


class TestIntegerArguments:
    """States, periods, m and n must be integers (numpy integers included) and
    amounts real numbers; anything else is a ValidationError naming it."""

    def test_fractional_pay_state(self, dread):
        with pytest.raises(pv.ValidationError, match=r"^pay state must be an integer, got float 1\.5$"):
            pv.premium_selector({1.5}, dread.offsets, 10, 25, 10)

    def test_pay_states_of_mixed_types(self, dread):
        with pytest.raises(pv.ValidationError, match=r"^pay state must be an integer, got str 2$"):
            pv.premium_selector({1, "2"}, dread.offsets, 10, 25, 10)

    def test_integral_float_pay_state(self, dread):
        with pytest.raises(pv.ValidationError, match=r"^pay state must be an integer, got float 2\.0$"):
            pv.premium_selector({2.0}, dread.offsets, 10, 25, 10)

    def test_float_premium_horizon(self, dread):
        with pytest.raises(pv.ValidationError, match=r"^premium horizon m must be an integer, got float 10\.0$"):
            pv.premium_selector({1}, dread.offsets, 10.0, 25, 10)

    def test_float_premium_horizon_in_period_premium(self, dread):
        c_in = pv.accelerated_benefit(0.5, 25)
        with pytest.raises(pv.ValidationError, match=r"^premium horizon m must be an integer, got float 20\.0$"):
            pv.period_premium(c_in, dread.dist, dread.discount, {1}, dread.offsets, 20.0)

    def test_float_state_in_an_entry(self):
        with pytest.raises(pv.ValidationError, match=r"^state must be an integer, got float 2\.0$"):
            pv.build_cashflow([pv.CashflowEntry(2.0, 0, 5, 1.0)], 25, 10)

    def test_float_state_in_annuity_due(self, dread):
        with pytest.raises(pv.ValidationError, match=r"^state must be an integer, got float 2\.0$"):
            pv.annuity_due(dread.dist, dread.discount, 2.0, 0, 5)

    def test_fractional_period_in_an_entry(self):
        with pytest.raises(pv.ValidationError, match=r"^period must be an integer, got float 1\.5$"):
            pv.build_cashflow([pv.CashflowEntry(2, 1.5, 5, 1.0)], 25, 10)

    @pytest.mark.parametrize("amount", ["1", None, 1j])
    def test_amount_that_is_not_a_real_number(self, amount):
        with pytest.raises(pv.ValidationError, match=rf"^amount {re.escape(repr(amount))} for state 2 is not a real number$"):
            pv.build_cashflow([pv.CashflowEntry(2, 1, 5, amount)], 25, 10)

    @pytest.mark.parametrize("premium", ["x", 1j, np.complex128(0.1)], ids=["str", "complex", "numpy-complex"])
    def test_premium_that_is_not_a_real_number(self, dread, premium):
        got = f"{type(premium).__name__} {re.escape(repr(premium))}"
        with pytest.raises(pv.ValidationError, match=rf"^premium must be a real number, got {got}$"):
            pv.premium_outflow(premium, {1}, dread.offsets, 10, 25, 10)

    def test_premium_too_large_for_a_float(self, dread):
        with pytest.raises(pv.ValidationError, match=rf"^premium {10 ** 400} is too large for a float$"):
            pv.premium_outflow(10 ** 400, {1}, dread.offsets, 10, 25, 10)

    @pytest.mark.parametrize("share", ["x", 0.5j], ids=["str", "complex"])
    def test_share_that_is_not_a_real_number(self, share):
        got = f"{type(share).__name__} {re.escape(repr(share))}"
        with pytest.raises(pv.ValidationError, match=rf"^acceleration share must be a real number, got {got}$"):
            pv.accelerated_benefit(share, 3)

    def test_float_horizon_in_accelerated_benefit(self):
        with pytest.raises(pv.ValidationError, match=r"^horizon n must be an integer, got float 25\.0$"):
            pv.accelerated_benefit(0.5, 25.0)

    def test_float_state_count_in_build_cashflow(self):
        with pytest.raises(pv.ValidationError, match=r"^state count must be an integer, got float 10\.0$"):
            pv.build_cashflow([], 25, 10.0)

    def test_float_state_count_in_premium_selector(self, dread):
        with pytest.raises(pv.ValidationError, match=r"^state count must be an integer, got float 10\.0$"):
            pv.premium_selector({1}, dread.offsets, 10, 25, 10.0)

    def test_numpy_integers_give_the_same_matrices(self, dread):
        i = np.int64
        assert (pv.premium_selector({i(2), i(3)}, dread.offsets, i(10), i(25), i(10)).matrix.tobytes()
                == pv.premium_selector({2, 3}, dread.offsets, 10, 25, 10).matrix.tobytes())
        entries = [pv.CashflowEntry(i(2), i(1), i(5), np.float64(0.5)), pv.CashflowEntry(np.int16(3), 0, i(26), 1)]
        assert (pv.build_cashflow(entries, i(25), i(10)).matrix.tobytes()
                == pv.build_cashflow([pv.CashflowEntry(2, 1, 5, 0.5), pv.CashflowEntry(3, 0, 26, 1)], 25, 10)
                .matrix.tobytes())
        assert pv.accelerated_benefit(0.5, i(25)).matrix.tobytes() == pv.accelerated_benefit(0.5, 25).matrix.tobytes()


def unchecked_constructions():
    """(module, function) of every ``CashflowMatrix._of`` in the package, and of
    every ``_of`` or ``__new__`` reached from inside the class itself."""
    for source in sorted(SRC.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        function: dict = {}
        in_class: dict = {}
        for node in ast.walk(tree):  # breadth first, so a parent comes before its children
            for child in ast.iter_child_nodes(node):
                function[child] = node.name if isinstance(node, ast.FunctionDef) else function.get(node)
                in_class[child] = node.name if isinstance(node, ast.ClassDef) else in_class.get(node)
            if isinstance(node, ast.Attribute) and node.attr in {"_of", "__new__"}:
                named = getattr(node.value, "id", None) == "CashflowMatrix" or in_class.get(node) == "CashflowMatrix"
                if named and function.get(node) != "_of":
                    yield source.stem, function.get(node)
            if isinstance(node, ast.Call) and any(getattr(arg, "id", None) == "CashflowMatrix" for arg in node.args):
                if getattr(node.func, "attr", None) == "__new__":
                    yield source.stem, function.get(node)


def test_only_the_listed_builders_skip_the_cash_flow_check():
    assert sorted(set(unchecked_constructions())) == sorted(UNCHECKED_BUILDERS)
