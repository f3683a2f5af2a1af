"""Directed-graph description of the insured risk's state space.

A multiple state model is a set of states numbered 1..N together with the
ordered pairs between which direct transitions are possible.  The valuation
machinery in this package attaches every cash flow to a state, so a contract
paying lump sums on transitions first gets rewritten: each lump sum is
re-housed on a one-period "plus state" inserted in front of its target (see
:func:`extend_model`).  States the process must leave after exactly one time
unit are called reflex states; they are the natural carriers of such
payments.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ParseError, ValidationError

Transition = tuple[int, int]

#: Sentinel meaning a state cannot be reached from the initial state.
UNREACHABLE = None


@dataclass(frozen=True)
class StateModel:
    """A multiple state model.

    States are numbered 1..n_states.  ``transitions`` holds the ordered
    pairs (i, j), i != j, with a direct transition from i to j.  ``reflex``
    flags states that are always left after one time unit.  Labels are
    optional display names.
    """

    n_states: int
    transitions: frozenset[Transition]
    labels: Mapping[int, str] = field(default_factory=dict)
    initial_state: int = 1
    reflex: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.n_states < 1:
            raise ValidationError("a model needs at least one state")
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "reflex", frozenset(self.reflex))

    def successors(self, state: int) -> list[int]:
        return sorted(j for (i, j) in self.transitions if i == state)

    def predecessors(self, state: int) -> list[int]:
        return sorted(i for (i, j) in self.transitions if j == state)

    def out_degree(self, state: int) -> int:
        return sum(1 for (i, _) in self.transitions if i == state)


@dataclass(frozen=True)
class ExtendedStateModel(StateModel):
    """A state model produced by :func:`extend_model`.

    ``plus_state_origin`` maps each inserted plus state to its target state
    (in the new numbering) and the lump-sum amount it carries.
    ``state_renumbering`` maps original state ids to their new ids.
    """

    plus_state_origin: Mapping[int, tuple[int, object]] = field(default_factory=dict)
    state_renumbering: Mapping[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class StateClassification:
    """Partition of the state set into transient, absorbing and reflex."""

    transient: frozenset[int]
    absorbing: frozenset[int]
    reflex: frozenset[int]

    def kind(self, state: int) -> str:
        if state in self.absorbing:
            return "absorbing"
        if state in self.reflex:
            return "reflex"
        return "transient"


@dataclass(frozen=True)
class ArrivalOffsets:
    """Earliest possible arrival time at each state, starting from
    ``initial_state`` at time 0.

    Unreachable states map to :data:`UNREACHABLE`; the offset is never
    encoded as a large number.
    """

    offsets: Mapping[int, "int | None"]
    initial_state: int

    def offset(self, state: int) -> "int | None":
        return self.offsets[state]

    def is_reachable(self, state: int) -> bool:
        return self.offsets[state] is not UNREACHABLE

    def payable(self, state: int, horizon: int) -> bool:
        """True when the state can be occupied at some time < horizon."""
        d = self.offsets[state]
        return d is not UNREACHABLE and d < horizon


def validate_model(model: StateModel) -> list[str]:
    """Check structural invariants; return diagnostics (empty when valid).

    Each diagnostic names the offending state or transition.
    """
    problems = []
    valid = range(1, model.n_states + 1)
    for (i, j) in sorted(model.transitions):
        if i == j:
            problems.append(f"self-transition at state {i}")
        if i not in valid or j not in valid:
            problems.append(f"state id out of range in transition ({i}, {j})")
    if model.initial_state not in valid:
        problems.append(f"initial state out of range: {model.initial_state}")
    for r in sorted(model.reflex):
        if r not in valid:
            problems.append(f"reflex flag out of range: {r}")
    problems += [f"label out of range: {s}" for s in sorted(model.labels) if s not in valid]
    return problems


def classify_states(model: StateModel) -> StateClassification:
    """Classify every state as transient, absorbing or reflex.

    Absorbing means no outgoing transition.  Reflex means the state is
    flagged as always-left-after-one-period and has exactly one outgoing
    transition; a flagged state with any other out-degree is an error.
    """
    problems = validate_model(model)
    if problems:
        raise ValidationError("; ".join(problems))
    degrees = Counter(i for (i, _) in model.transitions)
    absorbing = set()
    reflex = set()
    transient = set()
    for s in range(1, model.n_states + 1):
        degree = degrees[s]
        if degree == 0:
            if s in model.reflex:
                raise ValidationError(f"reflex flag on state {s}, which has no outgoing transition")
            absorbing.add(s)
        elif s in model.reflex:
            if degree != 1:
                raise ValidationError(
                    f"reflex flag on state {s}, which has {degree} outgoing transitions (exactly one required)"
                )
            reflex.add(s)
        else:
            transient.add(s)
    return StateClassification(frozenset(transient), frozenset(absorbing), frozenset(reflex))


def shortest_arrival(model: StateModel) -> ArrivalOffsets:
    """Earliest arrival time at each state from the initial state.

    Every transition takes one time unit, so this is a breadth-first
    search over the transition graph.  The result agrees with a
    unit-weight shortest-path computation.
    """
    problems = validate_model(model)
    if problems:
        raise ValidationError("; ".join(problems))
    adjacency: dict[int, list[int]] = {s: [] for s in range(1, model.n_states + 1)}
    for (i, j) in model.transitions:
        adjacency[i].append(j)
    offsets: dict[int, int | None] = {s: UNREACHABLE for s in range(1, model.n_states + 1)}
    offsets[model.initial_state] = 0
    queue = deque([model.initial_state])
    while queue:
        s = queue.popleft()
        for j in adjacency[s]:
            if offsets[j] is UNREACHABLE:
                offsets[j] = offsets[s] + 1
                queue.append(j)
    return ArrivalOffsets(offsets, model.initial_state)


def _amount_key(amount) -> tuple:
    """Deterministic sort key distinguishing constant and sequence amounts."""
    if isinstance(amount, tuple):
        return (1, amount)
    return (0, (float(amount),))


def _check_amount(amount, where: str):
    values = amount if isinstance(amount, tuple) else (amount,)
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValidationError(f"non-finite lump-sum amount {v!r} {where}")


def extend_model(model: StateModel, lump_sums: Mapping[Transition, object]) -> tuple[ExtendedStateModel, dict[int, object]]:
    """Rewrite transition lump sums as state-attached amounts.

    Each (target, amount class) among lump sums into a non-reflex target
    gets a plus state: the paying transitions are redirected into it, it
    feeds the target with certainty after one period, and the amount
    attaches to it.  A lump sum into a reflex target attaches to the target
    itself, because every occupancy of a reflex state is an arrival; two
    amounts into one reflex target, or paying and non-paying transitions
    into it, cannot be told apart there and are refused.

    Numbering walks the original states in order; a target's plus states,
    one per amount class in sorted class order, come just before it.
    ``state_renumbering`` composes with the input's when the input is itself
    extended.

    A reflex flag is kept when its state has exactly one exit, or when
    nothing is paid.  Exits are counted on the input model: a redirect
    changes where a transition goes, not how many leave a state.  A flagged
    state with several exits keeps its one-period character in the table
    data, not in the graph.

    Returns the extended model and the state-attached amounts (plus states
    and in-place reflex targets) in the new numbering.
    """
    problems = validate_model(model)
    if problems:
        raise ValidationError("; ".join(problems))
    lump_sums = dict(lump_sums)
    if not lump_sums and isinstance(model, ExtendedStateModel):
        return model, {}

    # Amount classes per target, each keeping its first amount in transition order.
    classes: dict[int, dict[tuple, object]] = {}
    for (i, j), amount in sorted(lump_sums.items()):
        if (i, j) not in model.transitions:
            raise ValidationError(f"lump sum on missing transition ({i}, {j})")
        _check_amount(amount, f"on transition ({i}, {j})")
        classes.setdefault(j, {}).setdefault(_amount_key(amount), amount)
    in_place: dict[int, object] = {}
    for target in sorted(model.reflex & classes.keys()):
        unpaid = [(i, j) for (i, j) in sorted(model.transitions) if j == target and (i, j) not in lump_sums]
        if unpaid:
            raise ValidationError(
                f"reflex state {target} receives both paying and non-paying transitions "
                f"(e.g. {unpaid[0]}); amounts attached in place would be ambiguous"
            )
        amounts = list(classes.pop(target).values())
        if len(amounts) > 1:
            raise ValidationError(
                f"conflicting amounts attach to reflex state {target}; "
                f"split them into separate amount classes on distinct states"
            )
        in_place[target] = amounts[0]

    renumber: dict[int, int] = {}
    plus_id: dict[tuple[int, tuple], int] = {}
    for s in range(1, model.n_states + 1):
        for key in sorted(classes.get(s, ())):
            plus_id[(s, key)] = len(renumber) + len(plus_id) + 1
        renumber[s] = len(renumber) + len(plus_id) + 1

    def entered(i: int, j: int) -> int:
        """New id of the state that transition (i, j) now enters."""
        if j in classes and (i, j) in lump_sums:
            return plus_id[(j, _amount_key(lump_sums[(i, j)]))]
        return renumber[j]

    degrees = Counter(i for (i, _) in model.transitions)
    origin = {p: (renumber[t], classes[t][key]) for (t, key), p in plus_id.items()}
    attachments = {p: a for p, (_, a) in origin.items()} | {renumber[t]: a for t, a in sorted(in_place.items())}
    renumbering = renumber
    if isinstance(model, ExtendedStateModel) and model.state_renumbering:
        # Compose with the earlier renumbering so original ids still resolve.
        renumbering = {orig: renumber[mid] for orig, mid in model.state_renumbering.items()}
        origin.update({renumber[p]: (renumber[t], a) for p, (t, a) in model.plus_state_origin.items()})
    extended = ExtendedStateModel(
        n_states=len(renumber) + len(plus_id),
        transitions=frozenset({(renumber[i], entered(i, j)) for (i, j) in model.transitions}
                              | {(p, renumber[t]) for (t, _), p in plus_id.items()}),
        labels={renumber[s]: text for s, text in model.labels.items()}
        | {p: model.labels[t] + "+" for (t, _), p in plus_id.items() if model.labels.get(t)},
        initial_state=renumber[model.initial_state],
        reflex=frozenset({renumber[r] for r in model.reflex if degrees[r] == 1 or not lump_sums}
                         | set(plus_id.values())),
        plus_state_origin=origin,
        state_renumbering=renumbering,
    )
    return extended, attachments


# ---------------------------------------------------------------------------
# Line-oriented model file format.
#
#   states N
#   label <id> <text>
#   reflex <id> [<id> ...]
#   transition <i> <j>
#   lumpsum <i> <j> <amount>
#   attach <state> <amount>
#   initial <id>
#
# '#' starts a comment; blank lines are ignored.  State ids are 1-based.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelFile:
    """Parsed content of a model file."""

    model: StateModel
    lump_sums: dict[Transition, float]
    attachments: dict[int, float]


def parse_model_text(text: str) -> ModelFile:
    n_states = None
    labels: dict[int, str] = {}
    reflex: set[int] = set()
    transitions: set[Transition] = set()
    lump_sums: dict[Transition, float] = {}
    attachments: dict[int, float] = {}
    initial = 1

    def fail(line_no, message):
        raise ParseError(f"line {line_no}: {message}")

    def amount(line_no, text):
        value = float(text)
        if not math.isfinite(value):
            fail(line_no, f"amount must be finite, got {text}")
        return value

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword, args = parts[0], parts[1:]
        try:
            if keyword == "states":
                if len(args) != 1:
                    fail(line_no, "expected: states N")
                n_states = int(args[0])
            elif keyword == "label":
                if len(args) < 2:
                    fail(line_no, "expected: label <id> <text>")
                labels[int(args[0])] = " ".join(args[1:])
            elif keyword == "reflex":
                if not args:
                    fail(line_no, "expected: reflex <id> [<id> ...]")
                reflex.update(int(a) for a in args)
            elif keyword == "transition":
                if len(args) != 2:
                    fail(line_no, "expected: transition <i> <j>")
                transitions.add((int(args[0]), int(args[1])))
            elif keyword == "lumpsum":
                if len(args) != 3:
                    fail(line_no, "expected: lumpsum <i> <j> <amount>")
                lump_sums[(int(args[0]), int(args[1]))] = amount(line_no, args[2])
            elif keyword == "attach":
                if len(args) != 2:
                    fail(line_no, "expected: attach <state> <amount>")
                attachments[int(args[0])] = amount(line_no, args[1])
            elif keyword == "initial":
                if len(args) != 1:
                    fail(line_no, "expected: initial <id>")
                initial = int(args[0])
            else:
                fail(line_no, f"unknown directive {keyword!r}")
        except ValueError as exc:
            fail(line_no, str(exc))
    if n_states is None:
        raise ParseError("missing 'states N' line")
    model = StateModel(
        n_states=n_states,
        transitions=frozenset(transitions),
        labels=labels,
        initial_state=initial,
        reflex=frozenset(reflex),
    )
    return ModelFile(model, lump_sums, attachments)


def load_model_file(path) -> ModelFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    return parse_model_text(text)


def format_model(model: StateModel, lump_sums: "Mapping[Transition, float] | None" = None,
                 attachments: "Mapping[int, float] | None" = None) -> str:
    """Serialize a model back into the line-oriented file format."""
    lines = [f"states {model.n_states}"]
    for s in sorted(model.labels):
        lines.append(f"label {s} {model.labels[s]}")
    if model.initial_state != 1:
        lines.append(f"initial {model.initial_state}")
    if model.reflex:
        lines.append("reflex " + " ".join(str(s) for s in sorted(model.reflex)))
    for (i, j) in sorted(model.transitions):
        lines.append(f"transition {i} {j}")
    for (i, j), amount in sorted((lump_sums or {}).items()):
        if isinstance(amount, tuple):
            raise ValidationError("per-period lump-sum sequences cannot be written to model files")
        lines.append(f"lumpsum {i} {j} {amount!r}")
    for s, amount in sorted((attachments or {}).items()):
        if isinstance(amount, tuple):
            raise ValidationError("per-period attachment sequences cannot be written to model files")
        lines.append(f"attach {s} {amount!r}")
    return "\n".join(lines) + "\n"
