"""Command-line interface.

Exit codes: 0 on success, 1 on a validation failure, 2 on an I/O or parse
failure.  Reports are deterministic: identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fixtures
from .cashflow import CashflowMatrix, build_cashflow, load_cashflow_file, premium_outflow
from .errors import ParseError, PremvalError, ValidationError
from .lifetable import _ROW_SUM_TOL, build_chain, diagonal_residuals
from .oracle import mc_pv, simulate
from .statemodel import UNREACHABLE, _extend_file, format_model, load_model_file, shortest_arrival, validate_model
from .valuation import (annuity_due, constant_rate_discount, equivalence_residual, expected_pv,
                        load_discount_file, net_single_premium, period_premium)


def _parse_pay_states(text: "str | None") -> "frozenset[int] | None":
    if text is None:
        return None
    try:
        states = frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"bad --pay-states {text!r}: {exc}") from exc
    if not states:
        raise ValidationError("--pay-states is empty")
    return states


def _inflows(args, n: int, n_states: "int | None") -> CashflowMatrix:
    """Contract inflows from the one source given: ``accel``, ``case`` or a ``cashflow`` file."""
    if getattr(args, "accel", None) is not None:
        return fixtures.accelerated_benefit(args.accel, n)
    if getattr(args, "case", None) is not None:
        return fixtures.dread_disease_case(args.case, n)
    return build_cashflow(load_cashflow_file(args.cashflow), n, n_states)


def _load_chain(model_path, table_path, initial=None):
    """Chain of a model file on a table.  The contract comes from the options, so no ``attach``
    amount is read, and a ``lumpsum`` line, which only ``premval extend`` can place, is refused."""
    parsed = load_model_file(model_path)
    if parsed.lump_sums:
        raise ValidationError(f"{model_path} has transition lump sums; run 'premval extend' on it first")
    return build_chain(parsed.model, table_path, initial)


def _load_run(args, contract: bool = True):
    """Chain, discount, contract inflows and pay states of a valuation command.

    Every option check runs before any file is read.  Without ``contract``
    the inflows are ``None``.
    """
    pay_states = _parse_pay_states(getattr(args, "pay_states", None))
    if (args.rate is None) == (args.discount_file is None):
        raise ValidationError("pass exactly one discount source: --rate or --discount-file")
    if contract and sum(x is not None for x in (args.accel, args.case, args.cashflow)) != 1:
        raise ValidationError("pass exactly one contract source: --accel, --case or --cashflow")
    if getattr(args, "period", False):
        if args.m is None or pay_states is None:
            raise ValidationError("period mode requires --m and --pay-states")
    elif getattr(args, "m", None) is not None or pay_states is not None:
        raise ValidationError("--m and --pay-states apply only in period mode (--period)")
    if not np.isfinite(getattr(args, "premium", 0.0)):
        raise ValidationError(f"--premium must be finite, got {args.premium}")
    chain = _load_chain(args.model, args.table, args.initial)
    n = chain.table.n
    if args.rate is not None:
        discount = constant_rate_discount(n, rate=args.rate)
    else:
        discount = load_discount_file(args.discount_file, n)
    c_in = _inflows(args, n, chain.model.n_states) if contract else None
    return chain, discount, c_in, pay_states


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    parsed = load_model_file(args.model)
    problems = validate_model(parsed.model)
    if not problems:
        try:
            _extend_file(parsed)
        except ValidationError as exc:  # the first lump-sum or attachment fault, as extend reports it
            problems = [str(exc)]
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print(f"ok: {parsed.model.n_states} states, {len(parsed.model.transitions)} transitions")
    return 0


def _cmd_extend(args) -> int:
    parsed = load_model_file(args.model)
    extended, attachments = _extend_file(parsed)
    text = format_model(extended, attachments=attachments)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    plus = sorted(extended.plus_state_origin)
    print(f"extended: {parsed.model.n_states} -> {extended.n_states} states; "
          f"plus states {plus or 'none'}; attachments at {sorted(attachments) or 'none'}",
          file=sys.stderr)
    return 0


def _cmd_delta(args) -> int:
    offsets = shortest_arrival(load_model_file(args.model).model)
    for state, value in sorted(offsets.offsets.items()):
        print(f"{state} {'inf' if value is UNREACHABLE else value}")
    return 0


def _cmd_table_check(args) -> int:
    chain = _load_chain(args.model, args.table)
    model, table = chain.model, chain.table
    residuals = diagonal_residuals(table, model)
    print(f"ok: horizon {table.n}, {model.n_states} states, "
          f"{len(table.occupancy)} occupancy and {len(table.decrements)} decrement columns")
    print(f"row sums of Q and D within {_ROW_SUM_TOL:g}; {len(residuals)} period/state cells "
          f"show entrant or exit flow under the alternative diagonal convention")
    return 0


def _cmd_dist(args) -> int:
    chain = _load_chain(args.model, args.table, args.initial)
    header = ["k"] + [f"state_{j}" for j in range(1, chain.model.n_states + 1)]
    rows = [[str(k)] + [f"{p:.{args.precision}g}" for p in row] for k, row in enumerate(chain.dist.matrix)]
    _print_table([header] + rows, "csv")
    return 0


def _cmd_cashflow(args) -> int:
    matrix = _inflows(args, args.n, getattr(args, "states", None)).matrix
    _print_table([[f"{value:.{args.precision}g}" for value in row] for row in matrix], "csv")
    return 0


def _cmd_premium(args) -> int:
    chain, discount, c_in, pay_states = _load_run(args)
    if not args.period:
        result = net_single_premium(c_in, chain.dist, discount)
        print(f"net single premium: {result.value:.{args.precision}f}")
    else:
        result = period_premium(c_in, chain.dist, discount, pay_states, chain.offsets, args.m)
        states = ",".join(str(s) for s in sorted(result.pay_states))
        print(f"net period premium (states {{{states}}}, m={result.m}): {result.value:.{args.precision}f}")
        print(f"  benefit value {result.numerator:.{args.precision}f} / "
              f"annuity value {result.denominator:.{args.precision}f}")
    return 0


def _cmd_annuity(args) -> int:
    chain, discount, _, _ = _load_run(args, contract=False)
    value = annuity_due(chain.dist, discount, args.state, args.from_k, args.to_k)
    print(f"annuity value, state {args.state}, [{args.from_k}, {args.to_k}): {value:.{args.precision}f}")
    return 0


def _cmd_check(args) -> int:
    chain, discount, c_in, pay_states = _load_run(args)
    # a single premium is paid once: at time 0, in the state the chain starts in
    pay, m = (pay_states, args.m) if args.period else ({chain.offsets.initial_state}, 1)
    c_out = premium_outflow(args.premium, pay, chain.offsets, m, chain.table.n, chain.model.n_states)
    residual = equivalence_residual(c_in, c_out, chain.dist, discount)
    benefit = expected_pv(c_in, chain.dist, discount)
    print(f"equivalence residual: {residual:.3e} (benefit value {benefit:.{args.precision}f})")
    return 0


def _cmd_simulate(args) -> int:
    chain, discount, c_in, _ = _load_run(args)
    ensemble = simulate(chain.seq, chain.initial, args.paths, args.seed)
    estimate = mc_pv(ensemble, c_in, discount)
    exact = expected_pv(c_in, chain.dist, discount)
    gap = abs(estimate.mean - exact)
    z = gap / estimate.std_error if estimate.std_error > 0 else 0.0
    print(f"matrix value:    {exact:.{args.precision}f}")
    print(f"simulated mean:  {estimate.mean:.{args.precision}f}  "
          f"(SE {estimate.std_error:.3e}, {estimate.n_paths} paths, seed {args.seed})")
    print(f"difference:      {gap:.3e}  ({z:.2f} standard errors)")
    return 0


def _demo_row(label, c_in, chain, discount, m, precision, ceased=frozenset()):
    cells = [label, f"{net_single_premium(c_in, chain.dist, discount).value:.{precision}f}"]
    for _, pay in fixtures.DEMO_PAY_SETS:
        if pay & ceased:
            cells.append("—")
        else:
            cells.append(f"{period_premium(c_in, chain.dist, discount, pay, chain.offsets, m).value:.{precision}f}")
    return cells


def _print_table(rows, fmt):
    if fmt == "csv":
        for row in rows:
            print(",".join(row))
        return
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def _cmd_demo(args) -> int:
    chain = build_chain(fixtures.dread_disease_model(), fixtures.bundled_path(fixtures.TABLE_FILE),
                        entry_age=fixtures.ENTRY_AGE)
    table = chain.table
    discount = constant_rate_discount(table.n, rate=fixtures.DEMO_RATE)
    m = table.n
    print(f"dread-disease demo [{args.scenario}] on the bundled SYNTHETIC table "
          f"(entry age {fixtures.ENTRY_AGE}, horizon {table.n} years, rate {fixtures.DEMO_RATE:.0%}, m={m})")
    header = ["", "single"] + [label for label, _ in fixtures.DEMO_PAY_SETS]
    rows = [header]
    if args.scenario == "accel":
        header[0] = "lambda"
        for lam in fixtures.DEMO_LAMBDAS:
            c_in = fixtures.accelerated_benefit(lam, table.n)
            rows.append(_demo_row(f"{lam:g}", c_in, chain, discount, m,
                                  args.precision, fixtures.ceased_cover_states(lam)))
    else:
        header[0] = "case"
        case = int(args.scenario[-1])
        c_in = fixtures.dread_disease_case(case, table.n)
        rows.append(_demo_row(str(case), c_in, chain, discount, m, args.precision))
    _print_table(rows, args.format)
    return 0


def _cmd_fixtures(args) -> int:
    for path in fixtures.write_fixture_files(args.out):
        print(path)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_run_options(parser, contract: bool = True):
    """The options ``_load_run`` reads."""
    parser.add_argument("--model", required=True)
    parser.add_argument("--table", required=True)
    parser.add_argument("--rate", type=float, help="constant yearly interest rate")
    parser.add_argument("--discount-file", help="file with n+1 discount factors, first must be 1")
    parser.add_argument("--initial", type=int,
                        help="initial state (default: the model's); arrival offsets count from it")
    if contract:
        parser.add_argument("--accel", type=float, metavar="LAMBDA",
                            help="accelerated benefit with the given accelerated share")
        parser.add_argument("--case", type=int, choices=(1, 2, 3), help="additional-benefit case")
        parser.add_argument("--cashflow", help="cash-flow file (flow <state> <k1> <k2> <amount>)")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


#: The most decimal places a report may ask for: a finite binary64's exact
#: decimal expansion ends within 1 074 places and ``g`` shows at most 767
#: significant digits, so a larger precision only pads with zeros.
_MAX_PRECISION = 1074


def _precision(text: str) -> int:
    value = _nonnegative_int(text)
    if value > _MAX_PRECISION:
        raise argparse.ArgumentTypeError(f"expected at most {_MAX_PRECISION} decimal places, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="premval",
                                     description="Multistate insurance valuation by the matrix method")
    parser.add_argument("--precision", type=_precision, default=5, help="decimal places in reports")
    parser.add_argument("--format", choices=("plain", "csv"), default="plain", help="tabular output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("extend", help="rewrite transition lump sums onto plus states")
    p.add_argument("model")
    p.add_argument("-o", "--output", help="write the extended model here instead of stdout")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("delta", help="earliest arrival time of every state")
    p.add_argument("model")
    p.set_defaults(func=_cmd_delta)

    table_parser = sub.add_parser("table", help="life-table operations")
    table_sub = table_parser.add_subparsers(dest="table_command", required=True)
    p = table_sub.add_parser("check", help="validate a table against a model")
    p.add_argument("model")
    p.add_argument("table")
    p.set_defaults(func=_cmd_table_check)

    p = sub.add_parser("dist", help="print the occupancy distribution as CSV")
    p.add_argument("model")
    p.add_argument("table")
    p.add_argument("--initial", type=int, help="initial state (default: the model's)")
    p.set_defaults(func=_cmd_dist)

    cashflow_parser = sub.add_parser("cashflow", help="emit a cash-flow matrix as CSV")
    cashflow_sub = cashflow_parser.add_subparsers(dest="builder", required=True)
    p = cashflow_sub.add_parser("accel", help="accelerated death benefit")
    p.add_argument("--lambda", dest="accel", metavar="LAM", type=float, required=True, help="accelerated share in [0, 1]")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.set_defaults(func=_cmd_cashflow)
    p = cashflow_sub.add_parser("case", help="additional-benefit case")
    p.add_argument("--id", dest="case", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.set_defaults(func=_cmd_cashflow)
    p = cashflow_sub.add_parser("build", help="build from a cash-flow file")
    p.add_argument("--flows", dest="cashflow", metavar="FLOWS", required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--states", type=_nonnegative_int, required=True)
    p.set_defaults(func=_cmd_cashflow)

    p = sub.add_parser("premium", help="net single or period premium")
    _add_run_options(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--single", action="store_true", help="net single premium")
    mode.add_argument("--period", action="store_true", help="net period premium")
    p.add_argument("--m", type=int, help="premiums payable at times 0..m-1")
    p.add_argument("--pay-states", help="comma-separated premium states, e.g. 1,2")
    p.set_defaults(func=_cmd_premium)

    p = sub.add_parser("annuity", help="state-conditional annuity value")
    _add_run_options(p, contract=False)
    p.add_argument("--state", type=int, required=True)
    p.add_argument("--from", dest="from_k", type=int, required=True)
    p.add_argument("--to", dest="to_k", type=int, required=True)
    p.set_defaults(func=_cmd_annuity)

    p = sub.add_parser("check", help="equivalence residual of a quoted premium")
    _add_run_options(p)
    p.add_argument("--premium", type=float, required=True)
    p.add_argument("--period", action="store_true", help="treat the premium as a period premium")
    p.add_argument("--m", type=int)
    p.add_argument("--pay-states")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="cross-check the matrix value by simulation")
    _add_run_options(p)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demo", help="premium tables for the bundled SYNTHETIC fixture")
    p.add_argument("scenario", choices=("accel", "case1", "case2", "case3"))
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("fixtures", help="write the bundled example files to a directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PremvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
