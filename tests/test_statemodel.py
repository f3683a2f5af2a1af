"""State-model graph machinery: validation, classification, earliest
arrivals, lump-sum rewriting and the model file format."""

import dataclasses
import re

import numpy as np
import pytest

import premval as pv
import premval.fixtures as fx
from chains import dijkstra_offsets, large_chain_case, make_three_state_model, random_digraph


class TestValidateModel:
    def test_clean_model_has_no_findings(self, model3):
        assert pv.validate_model(model3) == []

    def test_self_transition_reported(self):
        model = pv.StateModel(n_states=2, transitions=frozenset({(1, 1), (1, 2)}))
        assert "self-transition at state 1" in pv.validate_model(model)

    def test_out_of_range_transition_reported(self):
        model = pv.StateModel(n_states=2, transitions=frozenset({(1, 3)}))
        assert any("out of range in transition (1, 3)" in p for p in pv.validate_model(model))

    def test_bad_initial_state_reported(self):
        model = pv.StateModel(n_states=2, transitions=frozenset(), initial_state=5)
        assert any("initial state out of range" in p for p in pv.validate_model(model))

    def test_bad_reflex_flag_reported(self):
        model = pv.StateModel(n_states=2, transitions=frozenset({(1, 2)}), reflex=frozenset({9}))
        assert any("reflex flag out of range" in p for p in pv.validate_model(model))

    @pytest.mark.parametrize("lump_sums", [{}, {(1, 2): 1.0}], ids=["plain", "paying"])
    def test_bad_label_reported_and_refused_by_extend(self, lump_sums):
        # extend_model renumbers every label, so it needs them all in range.
        model = pv.StateModel(n_states=2, transitions=frozenset({(1, 2)}), labels={1: "a", 5: "ghost"})
        assert pv.validate_model(model) == ["label out of range: 5"]
        with pytest.raises(pv.ValidationError, match=r"^label out of range: 5$"):
            pv.extend_model(model, lump_sums)

    def test_zero_states_rejected(self):
        with pytest.raises(pv.ValidationError):
            pv.StateModel(n_states=0, transitions=frozenset())

    @pytest.mark.parametrize("n_states, message", [(2.5, "float 2.5"), ("2", "str 2")])
    def test_state_count_must_be_an_integer(self, n_states, message):
        with pytest.raises(pv.ValidationError, match=f"^state count must be an integer, got {message}$"):
            pv.StateModel(n_states=n_states, transitions=frozenset({(1, 2)}))

    def test_non_integral_ids_are_kept_and_reported(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 2.5)}), reflex=frozenset({"2"}))
        assert model.transitions == frozenset({(1, 2.5)}) and model.reflex == frozenset({"2"})
        assert pv.validate_model(model) == ["state id out of range in transition (1, 2.5)",
                                            "reflex flag out of range: 2"]


def test_numpy_integer_ids_become_int_and_build_the_same_chain():
    model, text = large_chain_case()
    model = dataclasses.replace(model, labels={1: "start"})
    wide = pv.StateModel(n_states=np.int64(model.n_states),
                         transitions=frozenset((np.int64(i), np.int64(j)) for i, j in model.transitions),
                         labels={np.int64(1): "start"}, initial_state=np.int64(1),
                         reflex=frozenset(np.int64(r) for r in model.reflex))
    ids = [wide.n_states, wide.initial_state, *wide.reflex, *wide.labels, *(s for t in wide.transitions for s in t)]
    assert {type(s) for s in ids} == {int}
    assert wide == model
    want, got = pv.build_chain(model, text), pv.build_chain(wide, text)
    assert got.seq.rows.tobytes() == want.seq.rows.tobytes()
    assert got.seq.columns.tobytes() == want.seq.columns.tobytes()
    assert got.seq.probabilities.tobytes() == want.seq.probabilities.tobytes()
    assert got.dist.matrix.tobytes() == want.dist.matrix.tobytes()


class TestClassifyStates:
    def test_three_state_split(self, model3):
        split = pv.classify_states(model3)
        assert split.transient == frozenset({1})
        assert split.reflex == frozenset({2})
        assert split.absorbing == frozenset({3})
        assert split.kind(1) == "transient"
        assert split.kind(2) == "reflex"
        assert split.kind(3) == "absorbing"

    def test_reflex_flag_needs_single_exit(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (1, 3)}),
                              reflex=frozenset({1}))
        with pytest.raises(pv.ValidationError):
            pv.classify_states(model)

    def test_reflex_flag_needs_an_exit(self):
        model = pv.StateModel(n_states=2, transitions=frozenset({(1, 2)}), reflex=frozenset({2}))
        with pytest.raises(pv.ValidationError, match="no outgoing transition"):
            pv.classify_states(model)

    def test_dread_disease_classification(self):
        split = pv.classify_states(fx.dread_disease_model())
        assert split.transient == frozenset({1, 2, 3, 4, 5})
        assert split.reflex == frozenset({6, 7, 9})
        assert split.absorbing == frozenset({8, 10})

    def test_a_model_is_classified_once(self):
        model = fx.dread_disease_model()
        split = pv.classify_states(model)
        assert pv.classify_states(model) is split
        pv.build_chain(model, fx.bundled_path(fx.TABLE_FILE))
        assert pv.classify_states(model) is split

    @pytest.mark.parametrize("model, message", [
        (pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (2, 5)})),
         "state id out of range in transition (2, 5)"),
        (pv.StateModel(n_states=2, transitions=frozenset({(1, 2)}), reflex=frozenset({2})),
         "reflex flag on state 2, which has no outgoing transition"),
        (pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (1, 3)}), reflex=frozenset({1})),
         "reflex flag on state 1, which has 2 outgoing transitions (exactly one required)"),
    ], ids=["out-of-range", "absorbing-reflex", "two-exit-reflex"])
    def test_a_bad_model_raises_on_every_call(self, model, message):
        for _ in range(3):
            with pytest.raises(pv.ValidationError, match=f"^{re.escape(message)}$"):
                pv.classify_states(model)


class TestShortestArrival:
    def test_three_state_offsets(self, model3):
        offsets = pv.shortest_arrival(model3)
        assert [offsets.offset(s) for s in (1, 2, 3)] == [0, 1, 2]

    def test_unreachable_state(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 2)}))
        offsets = pv.shortest_arrival(model)
        assert offsets.offset(3) is pv.UNREACHABLE
        assert not offsets.is_reachable(3)

    def test_an_invalid_model_is_refused(self):
        model = pv.StateModel(n_states=2, transitions=frozenset({(1, 3)}))
        with pytest.raises(pv.ValidationError, match=r"^state id out of range in transition \(1, 3\)$"):
            pv.shortest_arrival(model)

    def test_payable_window(self, model3):
        offsets = pv.shortest_arrival(model3)
        assert offsets.payable(1, 1)
        assert not offsets.payable(2, 1)
        assert offsets.payable(2, 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_unit_weight_dijkstra(self, seed):
        rng = np.random.default_rng(1_000 + seed)
        model = random_digraph(rng)
        offsets = pv.shortest_arrival(model)
        want = dijkstra_offsets(model)
        for s in range(1, model.n_states + 1):
            assert offsets.offset(s) == want[s]


class TestExtendModel:
    def test_no_lump_sums_is_identity(self, model3):
        extended, attachments = pv.extend_model(model3, {})
        assert attachments == {}
        assert extended.n_states == 3
        assert extended.transitions == model3.transitions
        assert all(old == new for old, new in extended.state_renumbering.items())

    def test_reextending_extended_model_is_same_object(self, model3):
        extended, _ = pv.extend_model(model3, {})
        again, _ = pv.extend_model(extended, {})
        assert again is extended

    def test_base_fixture_extends_to_shipped_model(self):
        base = fx.base_dread_disease()
        extended, attachments = pv.extend_model(base.model, base.lump_sums)
        want = fx.dread_disease_model()
        assert extended.n_states == want.n_states
        assert extended.transitions == want.transitions
        assert extended.reflex == want.reflex
        assert dict(extended.labels) == dict(want.labels)
        assert attachments == {3: 1.0, 7: 1.0, 9: 1.0}
        assert dict(extended.state_renumbering) == {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 8, 8: 10}
        assert dict(extended.plus_state_origin) == {7: (8, 1.0), 9: (10, 1.0)}

    def test_lump_sum_into_reflex_target_attaches_in_place(self):
        # 1 -> 2 (one-period state) -> 3; the payment on arrival at 2 needs
        # no new state because 2 already holds entrants exactly one period.
        model = make_three_state_model()
        extended, attachments = pv.extend_model(model, {(1, 2): 7.5})
        assert extended.n_states == 3
        assert extended.transitions == model.transitions
        assert attachments == {2: 7.5}

    def test_conflicting_amounts_into_reflex_target_rejected(self):
        model = pv.StateModel(n_states=4, transitions=frozenset({(1, 3), (2, 3), (3, 4)}),
                              reflex=frozenset({3}))
        with pytest.raises(pv.ValidationError):
            pv.extend_model(model, {(1, 3): 1.0, (2, 3): 2.0})

    def test_unpaid_inbound_into_paying_reflex_target_rejected(self):
        model = pv.StateModel(n_states=4, transitions=frozenset({(1, 3), (2, 3), (3, 4)}),
                              reflex=frozenset({3}))
        with pytest.raises(pv.ValidationError):
            pv.extend_model(model, {(1, 3): 1.0})

    def test_lump_sum_on_missing_transition_rejected(self, model3):
        with pytest.raises(pv.ValidationError, match=r"missing transition \(1, 3\)"):
            pv.extend_model(model3, {(1, 3): 1.0})

    def test_equal_amounts_share_a_plus_state(self):
        model = pv.StateModel(n_states=4,
                              transitions=frozenset({(1, 4), (2, 4), (3, 4)}),
                              initial_state=1)
        extended, attachments = pv.extend_model(
            model, {(1, 4): 5.0, (2, 4): 5.0, (3, 4): 2.0})
        # one plus state per distinct amount, both feeding the moved target
        assert extended.n_states == 6
        assert dict(extended.state_renumbering) == {1: 1, 2: 2, 3: 3, 4: 6}
        assert sorted(attachments.values()) == [2.0, 5.0]
        by_amount = {amount: s for s, amount in attachments.items()}
        five, two = by_amount[5.0], by_amount[2.0]
        assert {five, two} == {4, 5}
        assert (1, five) in extended.transitions and (2, five) in extended.transitions
        assert (3, two) in extended.transitions
        assert (five, 6) in extended.transitions and (two, 6) in extended.transitions
        assert {five, two} <= extended.reflex

    def test_plus_states_are_single_exit_reflex(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (2, 3), (1, 3)}))
        extended, attachments = pv.extend_model(model, {(1, 3): 1.0, (2, 3): 4.0})
        split = pv.classify_states(extended)
        for plus in attachments:
            assert split.kind(plus) == "reflex"
            assert len(extended.successors(plus)) == 1

    def test_multi_exit_reflex_flag_dropped_when_rewired(self):
        # flagged state gains a second exit through the inserted plus state
        base = fx.base_dread_disease()
        extended, _ = pv.extend_model(base.model, base.lump_sums)
        assert 3 not in extended.reflex
        assert {4, 5} & extended.reflex == set()


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        base = fx.base_dread_disease()
        text = pv.format_model(base.model, base.lump_sums)
        parsed = pv.parse_model_text(text)
        assert parsed.model == base.model
        assert parsed.lump_sums == dict(base.lump_sums)
        assert pv.format_model(parsed.model, parsed.lump_sums) == text

    def test_empty_label_round_trip(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (2, 3)}), labels={1: "", 2: "ill"})
        text = pv.format_model(model)
        assert pv.parse_model_text(text).model == model
        assert pv.parse_model_text("states 2\nlabel 2\n").model.labels == {2: ""}

    def test_initial_state_round_trip(self):
        model = pv.StateModel(n_states=3, transitions=frozenset({(2, 1), (2, 3)}), initial_state=2)
        text = pv.format_model(model)
        assert text.splitlines()[1] == "initial 2"
        assert pv.parse_model_text(text).model == model

    def test_attachments_round_trip(self):
        base = fx.base_dread_disease()
        extended, attachments = pv.extend_model(base.model, base.lump_sums)
        text = pv.format_model(extended, attachments=attachments)
        parsed = pv.parse_model_text(text)
        assert parsed.attachments == attachments

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(pv.ParseError, match="line 2"):
            pv.parse_model_text("states 3\ntransition 1\n")

    @pytest.mark.parametrize("line, usage", [
        ("states", "states N"), ("states 2 3", "states N"),
        ("label", "label <id> [<text>]"),
        ("reflex", "reflex <id> [<id> ...]"),
        ("transition 1", "transition <i> <j>"), ("transition 1 2 3", "transition <i> <j>"),
        ("lumpsum 1 2", "lumpsum <i> <j> <amount>"), ("lumpsum 1 2 3 4", "lumpsum <i> <j> <amount>"),
        ("attach 1", "attach <state> <amount>"), ("attach 1 2 3", "attach <state> <amount>"),
        ("initial", "initial <id>"), ("initial 1 2", "initial <id>"),
    ])
    def test_a_directive_with_the_wrong_argument_count_names_its_usage(self, line, usage):
        with pytest.raises(pv.ParseError, match=f"^line 2: expected: {re.escape(usage)}$"):
            pv.parse_model_text(f"states 2\n{line}  # comment\n")

    def test_missing_states_line(self):
        with pytest.raises(pv.ParseError, match="states"):
            pv.parse_model_text("transition 1 2\n")

    def test_unknown_directive(self):
        with pytest.raises(pv.ParseError):
            pv.parse_model_text("states 2\nfrobnicate 1\n")

    def test_comments_and_blank_lines_ignored(self):
        parsed = pv.parse_model_text("# header\nstates 2\n\ntransition 1 2  # inline\n")
        assert parsed.model.n_states == 2
        assert parsed.model.transitions == frozenset({(1, 2)})

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(pv.ParseError, match="cannot read model file"):
            pv.load_model_file(tmp_path / "absent.model")

    def test_per_period_amounts_not_serializable(self, model3):
        with pytest.raises(pv.ValidationError, match="cannot be written"):
            pv.format_model(model3, {(1, 2): (1.0, 2.0)})
