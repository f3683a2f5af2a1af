"""The parameters of every public callable: names, kinds and defaults.

Scripts call the library by these parameters, so a parameter added, dropped,
renamed or re-defaulted shows up here as a diff, as a changed command-line
option does in ``test_cli.py``.
"""

import inspect

import premval as pv

#: Each callable of ``premval.__all__`` and its signature without annotations;
#: None for a class that keeps the built-in exception signature.
SIGNATURES = {
    "ParseError": None,
    "PremvalError": None,
    "ValidationError": None,
    "ArrivalOffsets": "(offsets, initial_state)",
    "ExtendedStateModel": "(n_states, transitions, labels=<factory>, initial_state=1, reflex=frozenset(), "
                          "plus_state_origin=<factory>, state_renumbering=<factory>)",
    "ModelFile": "(model, lump_sums, attachments)",
    "StateModel": "(n_states, transitions, labels=<factory>, initial_state=1, reflex=frozenset())",
    "StateClassification": "(transient, absorbing, reflex)",
    "classify_states": "(model)",
    "extend_model": "(model, lump_sums)",
    "format_model": "(model, lump_sums=None, attachments=None)",
    "load_model_file": "(path)",
    "parse_model_text": "(text)",
    "shortest_arrival": "(model)",
    "validate_model": "(model)",
    "Chain": "(model, table, seq, initial, dist, offsets)",
    "DistributionMatrix": "(matrix)",
    "IncrementDecrementTable": "(n, occupancy, decrements, entry_age=0)",
    "TransitionSequence": "(*, n_states, rows, columns, probabilities)",
    "allowed_pattern": "(model)",
    "build_chain": "(model, table_source, initial_state=None, entry_age=0)",
    "diagonal_residuals": "(table, model)",
    "distribution_matrix": "(seq, initial)",
    "infer_reflex_columns": "(table, model)",
    "load_table": "(path_or_text, model, entry_age=0)",
    "pattern_violations": "(seq, model)",
    "transition_sequence": "(table, model)",
    "unit_distribution": "(n_states, state)",
    "CashflowEntry": "(state, k_start, k_end, amount)",
    "CashflowMatrix": "(matrix)",
    "accelerated_benefit": "(acceleration, n)",
    "build_cashflow": "(entries, n, n_states)",
    "ceased_cover_states": "(acceleration)",
    "dread_disease_case": "(case, n)",
    "load_cashflow_file": "(path)",
    "parse_cashflow_text": "(text)",
    "premium_outflow": "(premium, pay_states, offsets, m, n, n_states)",
    "premium_selector": "(pay_states, offsets, m, n, n_states)",
    "DiscountVector": "(values)",
    "PremiumResult": "(value, kind, pay_states=None, m=None, numerator=None, denominator=None)",
    "annuity_due": "(dist, discount, state, k_start, k_end)",
    "constant_rate_discount": "(n, v=None, rate=None)",
    "equivalence_residual": "(c_in, c_out, dist, discount)",
    "expected_pv": "(c, dist, discount)",
    "load_discount_file": "(path, n)",
    "net_single_premium": "(c_in, dist, discount)",
    "parse_discount_text": "(text, n)",
    "period_premium": "(c_in, dist, discount, pay_states, offsets, m)",
    "period_premium_initial": "(c_in, dist, discount, m, initial_state=1)",
    "McEstimate": "(mean, std_error, n_paths)",
    "PathEnsemble": "(paths, master_seed)",
    "empirical_distribution": "(ensemble, n_states)",
    "enumerate_pv": "(seq, initial, c, discount)",
    "frequency_vs_distribution": "(ensemble, dist)",
    "mc_premium": "(ensemble, c_in, discount, pay_states, offsets, m)",
    "mc_pv": "(ensemble, c, discount)",
    "simulate": "(seq, initial, n_paths, master_seed)",
}


def declared_signature(function) -> "str | None":
    try:
        signature = inspect.signature(function)
    except ValueError:  # a built-in signature, which inspect cannot read
        return None
    parameters = [p.replace(annotation=p.empty) for p in signature.parameters.values()]
    return str(signature.replace(parameters=parameters, return_annotation=signature.empty))


def test_every_public_callable_keeps_its_parameters_and_defaults():
    declared = {name: declared_signature(getattr(pv, name)) for name in pv.__all__ if callable(getattr(pv, name))}
    assert declared == SIGNATURES
