"""The independent valuation oracle: exhaustive path enumeration for tiny
chains and reproducible path simulation for big ones."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import premval as pv
from chains import dense_sequence, random_chain, reference_enumerate_pv
from test_acceptance import MASTER_SEED as C1_SEED


def _unit(n_states, state):
    return pv.unit_distribution(n_states, state)


class TestEnumeratePv:
    def test_matches_matrix_value_flat(self, chain3, claim_cash3, flat_discount3):
        want = pv.expected_pv(claim_cash3, chain3.dist, flat_discount3)
        got = pv.enumerate_pv(chain3.seq, _unit(3, 1), claim_cash3, flat_discount3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_matches_matrix_value_geometric(self, chain3, claim_cash3, geometric_discount3):
        want = pv.expected_pv(claim_cash3, chain3.dist, geometric_discount3)
        got = pv.enumerate_pv(chain3.seq, _unit(3, 1), claim_cash3, geometric_discount3)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_matrix_value_random(self, seed):
        rng = np.random.default_rng(90_000 + seed)
        seq, initial, cash, discount = random_chain(rng)
        dist = pv.distribution_matrix(seq, initial)
        want = pv.expected_pv(cash, dist, discount)
        got = pv.enumerate_pv(seq, initial, cash, discount)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_edge_walk_matches_the_dense_walk(self, chain3, claim_cash3, flat_discount3):
        # C1's 200 chains, the three-state chain, and a chain with -0.0 and +0.0 on its edges.
        rng = np.random.default_rng(C1_SEED)
        cases = [random_chain(rng, max_states=6, max_horizon=8) for _ in range(200)]
        cases.append((chain3.seq, _unit(3, 1), claim_cash3, flat_discount3))
        q = np.array([[[0.5, 0.5, -0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                      [[0.0, 0.25, 0.75], [-0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]])
        cash = pv.CashflowMatrix(np.arange(9.0).reshape(3, 3) / 7)
        cases.append((dense_sequence(q), np.array([0.5, 0.5, 0.0]), cash, flat_discount3))
        for seq, initial, cash, discount in cases:
            got = pv.enumerate_pv(seq, initial, cash, discount)
            assert float.hex(got) == float.hex(reference_enumerate_pv(seq, initial, cash, discount))

    def test_state_budget_enforced(self):
        n_states = pv.MAX_ENUM_STATES + 1
        q = np.tile(np.eye(n_states), (2, 1, 1))
        seq = dense_sequence(q)
        cash = pv.CashflowMatrix(np.zeros((3, n_states)))
        discount = pv.DiscountVector(np.ones(3))
        with pytest.raises(pv.ValidationError, match="enumeration is limited"):
            pv.enumerate_pv(seq, _unit(n_states, 1), cash, discount)

    def test_horizon_budget_enforced(self):
        n = pv.MAX_ENUM_HORIZON + 1
        q = np.tile(np.eye(2), (n, 1, 1))
        seq = dense_sequence(q)
        cash = pv.CashflowMatrix(np.zeros((n + 1, 2)))
        discount = pv.DiscountVector(np.ones(n + 1))
        with pytest.raises(pv.ValidationError, match="enumeration is limited"):
            pv.enumerate_pv(seq, _unit(2, 1), cash, discount)

    def test_wrong_horizon_refused(self, chain3, claim_cash3, flat_discount3):
        long_cash = pv.build_cashflow([], n=3, n_states=3)
        message = "^cash-flow or discount shape does not match the transition sequence$"
        for cash, discount in [(long_cash, flat_discount3), (claim_cash3, pv.DiscountVector(np.ones(4)))]:
            with pytest.raises(pv.ValidationError, match=message):
                pv.enumerate_pv(chain3.seq, _unit(3, 1), cash, discount)

    def test_package_imports_without_docstrings(self):
        # enumerate_pv's docstring used to be formatted at import, and python -OO strips it to None.
        env = dict(os.environ, PYTHONPATH=str(Path(pv.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-OO", "-c", "import premval"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr


class TestSimulate:
    def test_paths_start_in_initial_state(self, chain3):
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 500, master_seed=7)
        assert ensemble.paths.shape == (500, 3)
        assert (ensemble.paths[:, 0] == 1).all()

    def test_paths_follow_allowed_transitions(self, chain3):
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 2_000, master_seed=8)
        allowed = {(1, 1), (1, 2), (2, 3), (3, 3)}
        steps = {(int(a), int(b))
                 for a, b in zip(ensemble.paths[:, :-1].ravel(), ensemble.paths[:, 1:].ravel())}
        assert steps <= allowed

    def test_chunk_size_does_not_change_paths(self, chain3, monkeypatch):
        def paths(chunk_size):
            monkeypatch.setattr(pv.oracle, "CHUNK_SIZE", chunk_size)
            return pv.simulate(chain3.seq, _unit(3, 1), 1_000, master_seed=9)
        small, medium, huge = paths(17), paths(256), paths(1 << 20)
        np.testing.assert_array_equal(small.paths, medium.paths)
        np.testing.assert_array_equal(small.paths, huge.paths)

    def test_different_seeds_differ(self, chain3):
        a = pv.simulate(chain3.seq, _unit(3, 1), 1_000, master_seed=1)
        b = pv.simulate(chain3.seq, _unit(3, 1), 1_000, master_seed=2)
        assert (a.paths != b.paths).any()

    def test_random_initial_distribution_respected(self, chain3):
        initial = np.array([0.5, 0.5, 0.0])
        ensemble = pv.simulate(chain3.seq, initial, 4_000, master_seed=3)
        share = (ensemble.paths[:, 0] == 1).mean()
        assert abs(share - 0.5) < 4 * 0.5 / np.sqrt(4_000)

    def test_zero_horizon_draws_only_initial_states(self):
        seq = dense_sequence(np.zeros((0, 3, 3)))
        ensemble = pv.simulate(seq, np.array([0.2, 0.3, 0.5]), 400, master_seed=10)
        assert ensemble.paths.shape == (400, 1)
        assert set(ensemble.paths[:, 0]) == {1, 2, 3}

    def test_seed_out_of_range_rejected(self, chain3):
        with pytest.raises(pv.ValidationError, match="64-bit"):
            pv.simulate(chain3.seq, _unit(3, 1), 10, master_seed=-1)
        with pytest.raises(pv.ValidationError, match="64-bit"):
            pv.simulate(chain3.seq, _unit(3, 1), 10, master_seed=1 << 64)

    def test_path_count_must_be_positive(self, chain3):
        with pytest.raises(pv.ValidationError, match="positive"):
            pv.simulate(chain3.seq, _unit(3, 1), 0, master_seed=1)

    def test_ensemble_shape_validated(self):
        # Empty shapes used to be accepted: zero paths gave NaN estimates, zero times n = -1.
        for shape in [(3,), (0, 26), (3, 0)]:
            with pytest.raises(pv.ValidationError, match=rf"2-D .*got shape \({shape[0]},"):
                pv.PathEnsemble(np.ones(shape, dtype=np.int16), master_seed=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_ensemble_states_must_be_integers(self, dtype):
        # A float ensemble used to be accepted and fail later inside numpy's take or bincount.
        paths = np.ones((4, 3), dtype=dtype)
        with pytest.raises(pv.ValidationError, match=rf"^paths must hold integer states, got dtype {np.dtype(dtype)}$"):
            pv.PathEnsemble(paths, master_seed=0)

    @pytest.mark.parametrize("argument, value, message", [
        ("master_seed", 1.5, "master_seed must be an integer, got float 1.5"),
        ("master_seed", np.float64(2.0), "master_seed must be an integer, got float64 2.0"),
        ("n_paths", 8.0, "n_paths must be an integer, got float 8.0"),
    ], ids=["float-seed", "numpy-float-seed", "float-paths"])
    def test_non_integral_arguments_refused(self, chain3, argument, value, message):
        arguments = {"n_paths": 8, "master_seed": 1, argument: value}
        with pytest.raises(pv.ValidationError, match=f"^{message}$"):
            pv.simulate(chain3.seq, _unit(3, 1), **arguments)

    def test_numpy_integer_arguments_accepted(self, chain3):
        plain = pv.simulate(chain3.seq, _unit(3, 1), 50, master_seed=3)
        numpy = pv.simulate(chain3.seq, _unit(3, 1), np.int32(50), master_seed=np.uint64(3))
        assert np.array_equal(plain.paths, numpy.paths)
        assert numpy.master_seed == 3 and type(numpy.master_seed) is int

    @pytest.mark.parametrize("layout", ["path-major", "time-major"])
    def test_ensemble_states_below_one_refused(self, layout):
        # The estimators take cash flows at state - 1, which wraps -1 to state N.
        paths = np.array([[1, 2, 3], [2, 3, 3], [1, 0, -1]], dtype=np.int16)
        if layout == "time-major":
            paths = np.ascontiguousarray(paths.T).T
        with pytest.raises(pv.ValidationError, match=r"^state 0 below 1 in path 2 at time 1$"):
            pv.PathEnsemble(paths, master_seed=0)

    @pytest.mark.parametrize("layout", ["path-major", "time-major"])
    @pytest.mark.parametrize("estimator", ["mc_pv", "mc_premium", "empirical_distribution"])
    def test_states_above_the_cash_flow_width_refused(self, chain3, claim_cash3, flat_discount3,
                                                      estimator, layout):
        estimate = {
            "mc_pv": lambda e: pv.mc_pv(e, claim_cash3, flat_discount3),
            "mc_premium": lambda e: pv.mc_premium(e, claim_cash3, flat_discount3, [1], chain3.offsets, 2),
            "empirical_distribution": lambda e: pv.empirical_distribution(e, 3),
        }[estimator]
        uniform = np.full((4, 3), 5, dtype=np.int16)
        mixed = np.array([[1, 2, 3], [2, 3, 4], [1, 5, 3]], dtype=np.int16)
        for paths, message in [(uniform, r"^state 5 above 3 in path 0 at time 0$"),
                               (mixed, r"^state 4 above 3 in path 1 at time 2$")]:
            if layout == "time-major":
                paths = np.ascontiguousarray(paths.T).T
            with pytest.raises(pv.ValidationError, match=message):
                estimate(pv.PathEnsemble(paths, master_seed=0))

    @pytest.mark.parametrize("initial", [[0.0, 0.0, 0.0], [2.0, -1.0, 0.0], [np.nan, 0.0, 0.0], [1.0, 0.0]],
                             ids=["zeros", "negative", "nan", "shape"])
    def test_initial_must_be_a_distribution(self, chain3, claim_cash3, flat_discount3, initial):
        message = "shape" if len(initial) == 2 else r"^initial distribution must be nonnegative and sum to 1$"
        with pytest.raises(pv.ValidationError, match=message):
            pv.simulate(chain3.seq, initial, 10, master_seed=1)
        with pytest.raises(pv.ValidationError, match=message):
            pv.enumerate_pv(chain3.seq, initial, claim_cash3, flat_discount3)

    @pytest.mark.parametrize("initial, dtype", [(["1", "0", "0"], "<U1"), (["x", "0", "0"], "<U1"),
                                                (np.array([b"1", b"0", b"0"]), "|S1"), ([1.0, None, 0.0], "object")],
                             ids=["numeric-strings", "letters", "bytes", "none"])
    def test_initial_must_hold_numbers(self, chain3, claim_cash3, flat_discount3, initial, dtype):
        # Strings used to be parsed by numpy: ['1', '0', '0'] passed, ['x', '0', '0'] raised numpy's ValueError.
        message = f"^initial distribution must hold numbers, got dtype {re.escape(dtype)}$"
        with pytest.raises(pv.ValidationError, match=message):
            pv.distribution_matrix(chain3.seq, initial)
        with pytest.raises(pv.ValidationError, match=message):
            pv.simulate(chain3.seq, initial, 10, master_seed=1)
        with pytest.raises(pv.ValidationError, match=message):
            pv.enumerate_pv(chain3.seq, initial, claim_cash3, flat_discount3)

    @pytest.mark.parametrize("n_states, dtype", [(2 ** 15 - 1, np.int16), (2 ** 15, np.int32)])
    def test_state_ids_past_int16_are_stored_as_int32(self, n_states, dtype):
        """State 1 jumps to state N, every other state stays where it is."""
        states = np.arange(1, n_states)
        seq = pv.TransitionSequence(n_states=n_states, rows=np.r_[0, states], columns=np.r_[n_states - 1, states],
                                    probabilities=np.ones((1, n_states)))
        ensemble = pv.simulate(seq, _unit(n_states, 1), 3, master_seed=7)
        assert ensemble.paths.dtype == dtype
        assert ensemble.paths.tolist() == [[1, n_states]] * 3


class TestMcEstimates:
    @pytest.mark.parametrize("estimator", ["mc_pv", "mc_premium"])
    def test_a_path_total_past_the_largest_float_is_refused(self, dread, estimator):
        n, n_states = dread.table.n, dread.model.n_states
        huge = pv.build_cashflow([pv.CashflowEntry(1, 0, n + 1, 1e308), pv.CashflowEntry(2, 0, n + 1, 1e308)],
                                 n, n_states)
        flat = pv.constant_rate_discount(n, rate=0.0)
        ensemble = pv.simulate(dread.seq, dread.initial, 100, master_seed=1)
        estimate = {
            "mc_pv": lambda: pv.mc_pv(ensemble, huge, flat),
            "mc_premium": lambda: pv.mc_premium(ensemble, huge, flat, {1}, dread.offsets, n),
        }[estimator]
        # No numpy warning either: the test configuration would raise it.
        with pytest.raises(pv.ValidationError, match=r"^a path's discounted cash total overflows the largest float$"):
            estimate()

    def test_a_standard_error_past_the_largest_float_is_refused(self, flat_discount3):
        # Totals of 1e308 and -1e308 are finite, and so is their mean, 0.0; their spread is not.
        paths = np.array([[1, 1, 1], [2, 2, 2]], dtype=np.int16)
        cash = pv.CashflowMatrix(np.array([[1e308, -1e308, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(pv.ValidationError, match=r"^the estimate 0\.0 or its standard error inf overflows a float$"):
            pv.mc_pv(pv.PathEnsemble(paths, master_seed=0), cash, flat_discount3)

    def test_pv_within_four_standard_errors(self, chain3, claim_cash3, geometric_discount3):
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 60_000, master_seed=41)
        estimate = pv.mc_pv(ensemble, claim_cash3, geometric_discount3)
        want = pv.expected_pv(claim_cash3, chain3.dist, geometric_discount3)
        assert estimate.n_paths == 60_000
        assert abs(estimate.mean - want) < 4 * estimate.std_error

    def test_premium_within_four_standard_errors(self, chain3, claim_cash3,
                                                 geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 60_000, master_seed=42)
        estimate = pv.mc_premium(ensemble, claim_cash3, geometric_discount3, {1}, offsets, m=2)
        want = pv.period_premium(claim_cash3, chain3.dist, geometric_discount3,
                                 {1}, offsets, m=2).value
        assert abs(estimate.mean - want) < 4 * estimate.std_error

    def test_deterministic_for_fixed_seed(self, chain3, claim_cash3, geometric_discount3):
        a = pv.mc_pv(pv.simulate(chain3.seq, _unit(3, 1), 5_000, master_seed=4),
                     claim_cash3, geometric_discount3)
        b = pv.mc_pv(pv.simulate(chain3.seq, _unit(3, 1), 5_000, master_seed=4),
                     claim_cash3, geometric_discount3)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_negative_inflow_rejected(self, chain3, geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 100, master_seed=5)
        bad = pv.CashflowMatrix(np.full((3, 3), -1.0))
        with pytest.raises(pv.ValidationError, match="negative"):
            pv.mc_premium(ensemble, bad, geometric_discount3, {1}, offsets, m=2)

    def test_negative_inflow_named_like_the_matrix_method(self, chain3, geometric_discount3):
        offsets = pv.shortest_arrival(chain3.model)
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 100, master_seed=5)
        cash = np.zeros((3, 3))
        cash[2, 0] = -0.5
        message = r"^negative entry -0\.5 at \(k=2, state=1\) in inflow matrix$"
        with pytest.raises(pv.ValidationError, match=message):
            pv.mc_premium(ensemble, pv.CashflowMatrix(cash), geometric_discount3, {1}, offsets, m=2)

    def test_premium_state_never_reached_empirically(self):
        # state 2 is reachable by the graph, but the first-period hazard into
        # it is zero, so with m=2 no simulated path ever pays there
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (1, 3), (2, 3)}))
        text = "k,l_1,l_2,d_1_2,d_1_3,d_2_3\n0,100,0,0,10,0\n1,90,0,5,9,0\n2,76,5,0,0,0\n"
        table = pv.load_table(text, model)
        seq = pv.transition_sequence(table, model)
        offsets = pv.shortest_arrival(model)
        discount = pv.constant_rate_discount(2, rate=0.0)
        cash = pv.build_cashflow([pv.CashflowEntry(3, 1, 3, 1.0)], n=2, n_states=3)
        ensemble = pv.simulate(seq, _unit(3, 1), 200, master_seed=6)
        with pytest.raises(pv.ValidationError, match="no simulated path"):
            pv.mc_premium(ensemble, cash, discount, {2}, offsets, m=2)

    def test_estimators_read_either_path_layout(self, chain3, claim_cash3, geometric_discount3):
        time_major = pv.simulate(chain3.seq, _unit(3, 1), 5_000, master_seed=14)
        assert time_major.paths.T.flags.c_contiguous
        c_ordered = dataclasses.replace(time_major, paths=np.ascontiguousarray(time_major.paths))
        offsets = pv.shortest_arrival(chain3.model)
        results = [(pv.mc_pv(e, claim_cash3, geometric_discount3),
                    pv.mc_premium(e, claim_cash3, geometric_discount3, {1, 2}, offsets, m=2),
                    pv.empirical_distribution(e, 3).tolist()) for e in (time_major, c_ordered)]
        assert results[0] == results[1]

    def test_wrong_horizon_refused(self, chain3, claim_cash3, flat_discount3):
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 10, master_seed=5)
        message = "^cash-flow or discount shape does not match the ensemble horizon$"
        for cash, discount in [(pv.build_cashflow([], n=3, n_states=3), flat_discount3),
                               (claim_cash3, pv.DiscountVector(np.ones(4)))]:
            with pytest.raises(pv.ValidationError, match=message):
                pv.mc_pv(ensemble, cash, discount)

    def test_one_path_has_a_zero_standard_error(self, chain3, claim_cash3, geometric_discount3):
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 1, master_seed=3)
        offsets = pv.shortest_arrival(chain3.model)
        for estimate in (pv.mc_pv(ensemble, claim_cash3, geometric_discount3),
                         pv.mc_premium(ensemble, claim_cash3, geometric_discount3, {1}, offsets, m=2)):
            assert (estimate.std_error, estimate.n_paths) == (0.0, 1)
            assert np.isfinite(estimate.mean)

    def test_invalid_standard_error_rejected(self):
        with pytest.raises(pv.ValidationError, match="standard error"):
            pv.McEstimate(mean=1.0, std_error=-1.0, n_paths=10)


class TestEmpiricalDistribution:
    def test_rows_are_frequencies(self, chain3):
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 10_000, master_seed=12)
        freq = pv.empirical_distribution(ensemble, 3)
        assert freq.shape == (3, 3)
        np.testing.assert_allclose(freq.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert freq[0, 0] == 1.0

    @pytest.mark.parametrize("n_states, shown", [(10.0, "float 10.0"), ("3", "str 3")], ids=["float", "str"])
    def test_state_count_must_be_an_integer(self, chain3, n_states, shown):
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 10, master_seed=12)
        with pytest.raises(pv.ValidationError, match=f"^state count must be an integer, got {shown}$"):
            pv.empirical_distribution(ensemble, n_states)

    def test_frequencies_track_distribution(self, chain3):
        ensemble = pv.simulate(chain3.seq, _unit(3, 1), 50_000, master_seed=13)
        gap, scale = pv.frequency_vs_distribution(ensemble, chain3.dist)
        assert gap < 5 * scale
