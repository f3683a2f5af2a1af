"""Bitwise pins for the consumers of the premium selector on the fixture.

For every horizon m and a spread of premium-state sets, the period premium
denominator must equal a sequential sum of annuity values, the premium
outflow must be the negated selector, and the simulated premium must equal
the estimates recorded in ``data/mc_premium_golden.json``.
"""

import json
import re
from pathlib import Path

import pytest

import premval as pv

PAY_SETS = (frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3, 4, 5, 6}), frozenset({2, 4}))
HORIZONS = range(1, 26)
GOLDEN = json.loads((Path(__file__).parent / "data" / "mc_premium_golden.json").read_text(encoding="utf-8"))


def _label(pay):
    return "{" + ",".join(str(s) for s in sorted(pay)) + "}"


@pytest.fixture(scope="module")
def benefit(dread):
    return pv.accelerated_benefit(GOLDEN["acceleration"], dread.table.n)


@pytest.fixture(scope="module")
def ensemble(dread):
    return pv.simulate(dread.seq, dread.initial, GOLDEN["n_paths"], GOLDEN["master_seed"])


@pytest.mark.parametrize("pay", PAY_SETS, ids=_label)
def test_denominator_is_sequential_annuity_sum(dread, benefit, pay):
    for m in HORIZONS:
        payable = [s for s in sorted(pay) if dread.offsets.payable(s, m)]
        if not payable:
            with pytest.raises(pv.ValidationError, match="no payable state"):
                pv.period_premium(benefit, dread.dist, dread.discount, pay, dread.offsets, m)
            continue
        expected = 0.0
        for s in payable:
            expected += pv.annuity_due(dread.dist, dread.discount, s, dread.offsets.offset(s), m)
        result = pv.period_premium(benefit, dread.dist, dread.discount, pay, dread.offsets, m)
        assert result.denominator.hex() == expected.hex(), f"m={m}"


@pytest.mark.parametrize("pay", PAY_SETS, ids=_label)
def test_outflow_is_negated_selector(dread, benefit, pay):
    n, n_states = dread.table.n, dread.model.n_states
    for m in HORIZONS:
        if not any(dread.offsets.payable(s, m) for s in pay):
            continue
        premium = pv.period_premium(benefit, dread.dist, dread.discount, pay, dread.offsets, m).value
        outflow = pv.premium_outflow(premium, pay, dread.offsets, m, n, n_states)
        selector = pv.premium_selector(pay, dread.offsets, m, n, n_states)
        assert (outflow.matrix == -premium * selector.matrix).all(), f"m={m}"


@pytest.mark.parametrize("pay", PAY_SETS, ids=_label)
def test_mc_premium_matches_recorded_estimates(dread, benefit, ensemble, pay):
    recorded = [row for row in GOLDEN["estimates"] if frozenset(row["pay"]) == pay]
    assert [row["m"] for row in recorded] == list(HORIZONS)
    for row in recorded:
        if "error" in row:
            with pytest.raises(pv.ValidationError, match=re.escape(row["error"])):
                pv.mc_premium(ensemble, benefit, dread.discount, pay, dread.offsets, row["m"])
            continue
        got = pv.mc_premium(ensemble, benefit, dread.discount, pay, dread.offsets, row["m"])
        want = pv.McEstimate(mean=float.fromhex(row["mean"]), std_error=float.fromhex(row["std_error"]),
                             n_paths=row["n_paths"])
        assert got == want, f"m={row['m']}"
