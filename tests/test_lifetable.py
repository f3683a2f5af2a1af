"""Table loading, one-period-state inference, transition sequences and
occupancy distributions."""

import numpy as np
import pytest

import premval as pv
import premval.fixtures as fx
from chains import THREE_STATE_TABLE, make_three_state_model, random_table_case


class TestLoadTable:
    def test_three_state_counts(self, model3):
        table = pv.load_table(THREE_STATE_TABLE, model3)
        assert table.n == 2
        np.testing.assert_array_equal(table.occupancy[1], [100.0, 90.0, 81.0])
        np.testing.assert_array_equal(table.decrements[(1, 2)], [10.0, 9.0, 0.0])

    def test_accepts_path(self, model3, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(THREE_STATE_TABLE)
        table = pv.load_table(path, model3)
        assert table.n == 2

    def test_entry_age_recorded(self, model3):
        table = pv.load_table(THREE_STATE_TABLE, model3, entry_age=40)
        assert table.entry_age == 40

    def test_comment_rows_skipped(self, model3):
        text = "# cohort\nk,l_1,d_1_2\n0,100,10\n# middle\n1,90,9\n2,81,0\n"
        assert pv.load_table(text, model3).n == 2

    def test_first_column_must_be_k(self, model3):
        with pytest.raises(pv.ParseError, match="must be 'k'"):
            pv.load_table("t,l_1,d_1_2\n0,100,10\n1,90,0\n", model3)

    def test_unknown_column_rejected(self, model3):
        with pytest.raises(pv.ParseError, match="unrecognized column name"):
            pv.load_table("k,l_1,d_1_2,bogus\n0,100,10,0\n1,90,0,0\n", model3)

    def test_duplicate_column_rejected(self, model3):
        with pytest.raises(pv.ParseError, match="duplicate column"):
            pv.load_table("k,l_1,l_1,d_1_2\n0,100,100,10\n1,90,90,0\n", model3)

    def test_missing_occupancy_column(self, model3):
        with pytest.raises(pv.ValidationError, match="missing column 'l_1'"):
            pv.load_table("k,d_1_2\n0,10\n1,0\n", model3)

    def test_missing_decrement_column(self, model3):
        with pytest.raises(pv.ValidationError, match="missing column 'd_1_2'"):
            pv.load_table("k,l_1\n0,100\n1,90\n", model3)

    def test_out_of_order_rows_rejected(self, model3):
        with pytest.raises(pv.ParseError, match="rows must run k=0..n in order"):
            pv.load_table("k,l_1,d_1_2\n0,100,10\n2,81,0\n", model3)

    def test_short_table_rejected(self, model3):
        with pytest.raises(pv.ParseError, match="at least rows k=0 and k=1"):
            pv.load_table("k,l_1,d_1_2\n0,100,10\n", model3)

    def test_ragged_row_rejected(self, model3):
        with pytest.raises(pv.ParseError, match="fields"):
            pv.load_table("k,l_1,d_1_2\n0,100\n1,90,0\n", model3)

    def test_empty_text_rejected(self, model3):
        with pytest.raises(pv.ParseError, match="empty table"):
            pv.load_table("\n", model3)

    def test_negative_count_rejected(self, model3):
        with pytest.raises(pv.ValidationError, match="negative count at k=1"):
            pv.load_table("k,l_1,d_1_2\n0,100,10\n1,-90,0\n", model3)

    def test_decrement_exceeding_occupancy_rejected(self, model3):
        with pytest.raises(pv.ValidationError, match="exceeds occupancy at k=0"):
            pv.load_table("k,l_1,d_1_2\n0,100,101\n1,0,0\n", model3)


class TestInferReflexColumns:
    def test_occupancy_lagged_one_period(self, model3):
        table = pv.infer_reflex_columns(pv.load_table(THREE_STATE_TABLE, model3), model3)
        np.testing.assert_array_equal(table.occupancy[2], [0.0, 10.0, 9.0])
        np.testing.assert_array_equal(table.decrements[(2, 3)], [0.0, 10.0, 9.0])

    def test_idempotent(self, model3):
        once = pv.infer_reflex_columns(pv.load_table(THREE_STATE_TABLE, model3), model3)
        twice = pv.infer_reflex_columns(once, model3)
        np.testing.assert_array_equal(once.occupancy[2], twice.occupancy[2])
        np.testing.assert_array_equal(once.decrements[(2, 3)], twice.decrements[(2, 3)])

    def test_tabulated_occupancy_kept(self, model3):
        text = "k,l_1,l_2,d_1_2\n0,100,5,10\n1,90,11,9\n2,81,10,0\n"
        table = pv.infer_reflex_columns(pv.load_table(text, model3), model3)
        np.testing.assert_array_equal(table.occupancy[2], [5.0, 11.0, 10.0])

    def test_reflex_feeding_reflex(self):
        model = pv.StateModel(n_states=4, transitions=frozenset({(1, 2), (2, 3), (3, 4)}),
                              reflex=frozenset({2, 3}))
        text = "k,l_1,d_1_2\n0,100,10\n1,90,9\n2,81,8\n3,73,0\n"
        table = pv.infer_reflex_columns(pv.load_table(text, model), model)
        np.testing.assert_array_equal(table.occupancy[2], [0, 10, 9, 8])
        np.testing.assert_array_equal(table.occupancy[3], [0, 0, 10, 9])

    def test_reflex_without_inbound_rejected(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 3), (2, 3)}),
                              reflex=frozenset({2}))
        text = "k,l_1,d_1_3\n0,100,10\n1,90,0\n"
        with pytest.raises(pv.ValidationError, match="no inbound transition"):
            pv.infer_reflex_columns(pv.load_table(text, model), model)


class TestTransitionSequence:
    def test_three_state_matrices(self, chain3):
        q = chain3.seq.matrices
        np.testing.assert_allclose(q[0], [[0.9, 0.1, 0.0],
                                          [0.0, 0.0, 1.0],
                                          [0.0, 0.0, 1.0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(q[1], [[0.9, 0.1, 0.0],
                                          [0.0, 0.0, 1.0],
                                          [0.0, 0.0, 1.0]], rtol=0, atol=1e-15)

    def test_zero_occupancy_gives_identity_row(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 3), (2, 3)}))
        text = "k,l_1,l_2,d_1_3,d_2_3\n0,100,0,10,0\n1,90,0,0,0\n"
        table = pv.load_table(text, model)
        seq = pv.transition_sequence(table, model)
        np.testing.assert_array_equal(seq.matrices[0][1], [0.0, 1.0, 0.0])

    def test_rows_sum_to_one(self, dread):
        sums = dread.seq.matrices.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tables_give_stochastic_rows(self, seed):
        rng = np.random.default_rng(7_000 + seed)
        model, text = random_table_case(rng)
        table = pv.infer_reflex_columns(pv.load_table(text, model), model)
        seq = pv.transition_sequence(table, model)
        sums = seq.matrices.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)
        assert pv.pattern_violations(seq, model) == []

    def test_nonstochastic_matrix_rejected(self):
        q = np.ones((1, 2, 2))
        with pytest.raises(pv.ValidationError, match=r"^row 1 of Q\(0\) sums to 2\.0, not 1$"):
            pv.TransitionSequence(q)

    def test_probability_outside_unit_interval_rejected(self):
        q = np.array([[[1.5, -0.5], [0.0, 1.0]]])
        with pytest.raises(pv.ValidationError, match="outside"):
            pv.TransitionSequence(q)


class TestDistributionMatrix:
    def test_three_state_rows(self, chain3):
        np.testing.assert_allclose(chain3.dist.matrix,
                                   [[1.0, 0.0, 0.0],
                                    [0.9, 0.1, 0.0],
                                    [0.81, 0.09, 0.1]], rtol=1e-15, atol=0)

    def test_initial_distribution_validated(self, chain3):
        with pytest.raises(pv.ValidationError, match="shape"):
            pv.distribution_matrix(chain3.seq, np.ones(5))
        with pytest.raises(pv.ValidationError, match="sum to 1"):
            pv.distribution_matrix(chain3.seq, np.array([0.5, 0.0, 0.0]))

    def test_nan_initial_distribution_refused(self, chain3):
        with pytest.raises(pv.ValidationError, match="^initial distribution must be nonnegative and sum to 1$"):
            pv.distribution_matrix(chain3.seq, np.array([np.nan, 0.0, 0.0]))

    def test_row_not_summing_to_one_rejected(self):
        with pytest.raises(pv.ValidationError, match=r"^row 1 sums to 0\.9, not 1$"):
            pv.DistributionMatrix(np.array([[1.0, 0.0], [0.5, 0.4]]))

    def test_mass_conserved_on_bundled_table(self, dread):
        total = dread.dist.matrix.sum(axis=1)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)


class TestBuildChain:
    def test_matches_stage_by_stage(self, model3):
        chain = pv.build_chain(model3, THREE_STATE_TABLE, entry_age=40)
        table = pv.infer_reflex_columns(pv.load_table(THREE_STATE_TABLE, model3), model3)
        seq = pv.transition_sequence(table, model3)
        dist = pv.distribution_matrix(seq, pv.unit_distribution(3, 1))
        assert chain.model is model3
        assert chain.table.entry_age == 40
        np.testing.assert_array_equal(chain.table.occupancy[2], table.occupancy[2])
        np.testing.assert_array_equal(chain.seq.matrices, seq.matrices)
        np.testing.assert_array_equal(chain.initial, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(chain.dist.matrix, dist.matrix)
        assert chain.offsets == pv.shortest_arrival(model3)

    def test_explicit_initial_state(self, dread):
        chain = pv.build_chain(dread.model, fx.bundled_path(fx.TABLE_FILE), initial_state=2)
        np.testing.assert_array_equal(chain.dist.matrix[0], pv.unit_distribution(10, 2))
        assert chain.offsets.offset(1) == 0  # still measured from the model's initial state

    @pytest.mark.parametrize("state", [0, 4])
    def test_initial_state_out_of_range(self, model3, state):
        with pytest.raises(pv.ValidationError, match=f"state {state} out of range 1..3"):
            pv.build_chain(model3, THREE_STATE_TABLE, initial_state=state)

    def test_chain_is_frozen(self, chain3):
        with pytest.raises(AttributeError):
            chain3.dist = None


class TestAllowedPattern:
    def test_three_state_pattern(self, model3):
        mask = pv.allowed_pattern(model3)
        want = np.array([[True, True, False],
                         [False, False, True],
                         [False, False, True]])
        np.testing.assert_array_equal(mask, want)

    def test_fixture_has_no_violations(self, dread):
        assert pv.pattern_violations(dread.seq, dread.model) == []

    def test_perturbed_entry_reported_one_based(self, chain3):
        q = chain3.seq.matrices.copy()
        q[1, 0, 2] += 0.05
        q[1, 0, 0] -= 0.05
        seq = pv.TransitionSequence(q)
        assert pv.pattern_violations(seq, chain3.model) == [(1, 1, 3)]


class TestDiagonalResiduals:
    def test_shrinking_cohort_flagged(self, chain3):
        residuals = pv.diagonal_residuals(chain3.table, chain3.model)
        assert set(residuals) == {(0, 1), (1, 1)}
        assert residuals[(0, 1)] == pytest.approx(-0.1, rel=1e-12)
        assert residuals[(1, 1)] == pytest.approx(-0.1, rel=1e-12)

    def test_static_occupancy_silent(self):
        model = pv.StateModel(n_states=2, transitions=frozenset({(1, 2)}))
        text = "k,l_1,d_1_2\n0,100,0\n1,100,0\n2,100,0\n"
        table = pv.load_table(text, model)
        assert pv.diagonal_residuals(table, model) == {}
