"""Valuation of multistate insurance contracts by the matrix method.

The package builds a discrete-time Markov chain for an insured risk from an
increment-decrement life table, attaches cash flows to the states of the
model, and prices them: expected present values, net single premiums,
state-conditional annuity values and net period premiums payable in several
states.  Transition lump sums are handled by rewriting them onto inserted
one-period states, so a single state-attached convention covers everything.
An independent path-simulation oracle cross-checks the matrix results.
"""

from .errors import ParseError, PremvalError, ValidationError
from .statemodel import (UNREACHABLE, ArrivalOffsets, ExtendedStateModel, ModelFile, StateModel,
                         StateClassification, classify_states, extend_model, format_model,
                         load_model_file, parse_model_text, shortest_arrival, validate_model)
from .lifetable import (Chain, DistributionMatrix, IncrementDecrementTable, TransitionSequence,
                        allowed_pattern, build_chain, diagonal_residuals, distribution_matrix,
                        infer_reflex_columns, load_table, pattern_violations, transition_sequence,
                        unit_distribution)
from .cashflow import (CashflowEntry, CashflowMatrix, build_cashflow, load_cashflow_file,
                       parse_cashflow_text, premium_outflow, premium_selector)
from .fixtures import accelerated_benefit, ceased_cover_states, dread_disease_case
from .valuation import (DiscountVector, PremiumResult, annuity_due, constant_rate_discount,
                        equivalence_residual, expected_pv, load_discount_file, net_single_premium,
                        parse_discount_text, period_premium, period_premium_initial)
from .oracle import (MAX_ENUM_HORIZON, MAX_ENUM_STATES, McEstimate, PathEnsemble,
                     empirical_distribution, enumerate_pv, frequency_vs_distribution,
                     mc_premium, mc_pv, simulate)

__version__ = "0.1.0"

__all__ = [
    "ParseError", "PremvalError", "ValidationError",
    "UNREACHABLE", "ArrivalOffsets", "ExtendedStateModel", "ModelFile", "StateModel",
    "StateClassification", "classify_states", "extend_model", "format_model",
    "load_model_file", "parse_model_text", "shortest_arrival", "validate_model",
    "Chain", "DistributionMatrix", "IncrementDecrementTable", "TransitionSequence",
    "allowed_pattern", "build_chain", "diagonal_residuals", "distribution_matrix",
    "infer_reflex_columns", "load_table", "pattern_violations", "transition_sequence",
    "unit_distribution",
    "CashflowEntry", "CashflowMatrix", "accelerated_benefit", "build_cashflow",
    "ceased_cover_states", "dread_disease_case", "load_cashflow_file", "parse_cashflow_text",
    "premium_outflow", "premium_selector",
    "DiscountVector", "PremiumResult", "annuity_due", "constant_rate_discount",
    "equivalence_residual", "expected_pv", "load_discount_file", "net_single_premium",
    "parse_discount_text", "period_premium", "period_premium_initial",
    "MAX_ENUM_HORIZON", "MAX_ENUM_STATES", "McEstimate", "PathEnsemble",
    "empirical_distribution", "enumerate_pv", "frequency_vs_distribution",
    "mc_premium", "mc_pv", "simulate",
    "__version__",
]
