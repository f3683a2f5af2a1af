"""Bitwise pins for the lump-sum rewrite.

``extend_model`` must keep doing what it did when
``data/extend_digests.json`` was recorded.  Each seeded case draws a model
of 1-9 states (random transitions with the odd self-loop or out-of-range
id, reflex flags with the odd out-of-range one, labels that may be empty,
sometimes a hand-built ``ExtendedStateModel``) and lump sums (scalars,
tuples, NaN and infinities, equal amounts written as int and as float,
signed zeros, and the odd lump sum on a missing transition).  Its digest is
the sha256 of the outcome: every field of the extended model and the
attachments (amounts by ``repr``), or the refusal's type and message,
then the same for the result extended again with one more lump sum, which
pins how ``state_renumbering`` and ``plus_state_origin`` compose.  Mappings
are compared as sorted items, as ``==`` compares them; whether a call
returns its input object is part of the outcome.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import premval as pv
import premval.fixtures as fx

DIGESTS = json.loads((Path(__file__).parent / "data" / "extend_digests.json").read_text(encoding="utf-8"))
CASES = 2_400

#: Amounts a case draws its few amount classes from.  1 and 1.0, 0.0 and
#: -0.0, (1.0, 2.0) and (1, 2) fall into the same class.
VALID_AMOUNTS = (1, 1.0, 2.5, -3.0, 0.0, -0.0, (1.0, 2.0), (1, 2), (2.5,))
BAD_AMOUNTS = (math.nan, math.inf, (1.0, math.nan), "1.0")
LABELS = ("Healthy", "", "Sick", "two words")


def random_model(rng: np.random.Generator) -> pv.StateModel:
    n = int(rng.integers(1, 10))
    transitions = set()
    for _ in range(int(rng.integers(0, 3 * n + 1))):
        i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
        if i != j or rng.random() < 0.03:
            transitions.add((i, j))
    if rng.random() < 0.03:
        transitions.add((int(rng.integers(1, n + 1)), n + 1))
    reflex = {s for s in range(1, n + 1) if rng.random() < 0.35}
    if rng.random() < 0.03:
        reflex.add(0)
    labels = {s: LABELS[int(rng.integers(len(LABELS)))] for s in range(1, n + 1) if rng.random() < 0.5}
    initial = int(rng.integers(1, n + 1)) if rng.random() >= 0.02 else n + 1
    kind = pv.ExtendedStateModel if rng.random() < 0.1 else pv.StateModel
    return kind(n_states=n, transitions=frozenset(transitions), labels=labels,
                initial_state=initial, reflex=frozenset(reflex))


def random_amount(rng: np.random.Generator, pool: list):
    if rng.random() < 0.04:
        return BAD_AMOUNTS[int(rng.integers(len(BAD_AMOUNTS)))]
    return pool[int(rng.integers(len(pool)))]


def random_lump_sums(rng: np.random.Generator, model: pv.StateModel) -> dict:
    """Per target: pay none, all or a random share of its inbound transitions."""
    pool = [VALID_AMOUNTS[int(i)] for i in rng.choice(len(VALID_AMOUNTS), size=int(rng.integers(1, 4)))]
    share = {j: (0.0, 1.0, 0.5)[int(rng.integers(3))] for (_, j) in sorted(model.transitions)}
    lump_sums = {(i, j): random_amount(rng, pool) for (i, j) in sorted(model.transitions)
                 if rng.random() < share[j]}
    if rng.random() < 0.03:
        i, j = (int(v) for v in rng.integers(1, model.n_states + 2, size=2))
        if (i, j) not in model.transitions:
            lump_sums[(i, j)] = random_amount(rng, pool)
    return lump_sums


def outcome(model: pv.StateModel, lump_sums: dict):
    """The extension as plain data, and the extended model (None on error)."""
    try:
        extended, attachments = pv.extend_model(model, lump_sums)
    except pv.PremvalError as exc:
        return [type(exc).__name__, str(exc)], None
    return [
        "same" if extended is model else type(extended).__name__,
        extended.n_states,
        sorted(extended.transitions),
        sorted(extended.labels.items()),
        extended.initial_state,
        sorted(extended.reflex),
        sorted((p, t, repr(a)) for p, (t, a) in extended.plus_state_origin.items()),
        sorted(extended.state_renumbering.items()),
        sorted((s, repr(a)) for s, a in attachments.items()),
    ], extended


def case_outcomes(seed: int) -> list:
    """The first extension of a seeded case and the re-extension of its result."""
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    first, extended = outcome(model, random_lump_sums(rng, model))
    if extended is None:
        return [first]
    again = {}
    if extended.transitions and rng.random() >= 0.2:
        pairs = sorted(extended.transitions)
        again[pairs[int(rng.integers(len(pairs)))]] = random_amount(rng, list(VALID_AMOUNTS))
    return [first, outcome(extended, again)[0]]


def digest(outcomes: list) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def test_fixture_extension_is_pinned():
    base = fx.base_dread_disease()
    first, extended = outcome(base.model, base.lump_sums)
    assert digest([first, outcome(extended, {(7, 8): 2.0})[0]]) == DIGESTS["fixture"]


REFUSALS = ("self-transition", "state id out of range", "initial state out of range",
            "reflex flag out of range", "missing transition", "non-finite", "conflicting amounts",
            "receives both")


def tags(result: list) -> set:
    """What an outcome exercised: the refusal it hit, or its kind and where
    its amounts attach."""
    if len(result) == 2:
        return {r for r in REFUSALS if r in result[1]}
    kind, origin, attachments = result[0], result[6], result[8]
    plus = {p for p, _t, _a in origin}
    return {kind} | {"plus" if s in plus else "in place" for s, _a in attachments}


def test_random_extensions_are_pinned():
    """Every case matches its pin, and the cases reach each refusal,
    plus-state and in-place attachments, identity returns and re-extension."""
    pins = DIGESTS["random"]
    changed, seen = [], set()
    for seed, pin in enumerate(pins):
        results = case_outcomes(seed)
        if digest(results) != pin:
            changed.append(seed)
        seen |= tags(results[0])
        if len(results) == 2:
            seen |= {"again " + tag for tag in tags(results[1])}
    assert len(pins) == CASES and changed == []
    assert seen >= set(REFUSALS) | {"ExtendedStateModel", "plus", "in place", "again same",
                                    "again plus", "again in place", "again non-finite",
                                    "again receives both"}
