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

import itertools
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Mapping

from .errors import ParseError, ValidationError, _fields, _integer, read_text

Transition = tuple[int, int]

#: Sentinel meaning a state cannot be reached from the initial state.
UNREACHABLE = None


def _plain(value):
    """An integral id as ``int``; any other value as given, for :func:`validate_model` to report."""
    return int(value) if isinstance(value, numbers.Integral) else value


@dataclass(frozen=True)
class StateModel:
    """A multiple state model.

    States are numbered 1..n_states.  ``transitions`` holds the ordered
    pairs (i, j), i != j, with a direct transition from i to j.  ``reflex``
    flags states that are always left after one time unit.  Labels are
    optional display names.  Integral ids, numpy integers included, are
    stored as ``int``.

    ``successors``, ``predecessors`` and ``out_degree`` read one sorted index
    of the graph, built on first use; the lists they return are the caller's.
    :func:`classify_states` is likewise worked out once.
    """

    n_states: int
    transitions: frozenset[Transition]
    labels: Mapping[int, str] = field(default_factory=dict)
    initial_state: int = 1
    reflex: frozenset[int] = frozenset()

    def __post_init__(self):
        if _integer("state count", self.n_states) < 1:
            raise ValidationError("a model needs at least one state")
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "reflex", frozenset(self.reflex))
        ids = itertools.chain((self.n_states, self.initial_state), self.reflex, self.labels, *self.transitions)
        if set(map(type, ids)) != {int}:  # only then, as a rebuilt set may iterate in another order
            vars(self).update(n_states=_plain(self.n_states), initial_state=_plain(self.initial_state),
                              transitions=frozenset((_plain(i), _plain(j)) for i, j in self.transitions),
                              reflex=frozenset(map(_plain, self.reflex)),
                              labels={_plain(s): label for s, label in self.labels.items()})

    @cached_property
    def _edges(self) -> list[Transition]:
        """The transitions sorted by (i, j)."""
        return sorted(self.transitions)

    @cached_property
    def _index(self) -> list[tuple[list[int], dict[int, int], dict[int, int]]]:
        """For successors, then predecessors, the edges sorted by that side (the second
        stably on j): the other ends in that order, and where each state's run of them
        starts and stops.  A few flat objects for the garbage collector, not a list per state."""
        index = []
        for side, edges in enumerate([self._edges, sorted(self._edges, key=itemgetter(1))]):
            stops = dict(zip([edge[side] for edge in edges], range(1, len(edges) + 1)))  # a key's last value wins
            starts = dict(zip(stops, [0, *stops.values()]))  # runs are contiguous, keys in sorted order
            index.append(([edge[1 - side] for edge in edges], starts, stops))
        return index

    def _neighbours(self, side: int, state: int) -> list[int]:
        ends, starts, stops = self._index[side]
        return ends[starts.get(state, 0):stops.get(state, 0)]

    def successors(self, state: int) -> list[int]:
        return self._neighbours(0, state)

    def predecessors(self, state: int) -> list[int]:
        return self._neighbours(1, state)

    def out_degree(self, state: int) -> int:
        _, starts, stops = self._index[0]
        return stops.get(state, 0) - starts.get(state, 0)

    @cached_property
    def _classes(self) -> "StateClassification":
        """What :func:`classify_states` returns; a raise is not cached, so a bad model raises on every call."""
        _require_valid(self)
        absorbing, reflex, transient = set(), set(), set()
        for s in range(1, self.n_states + 1):
            degree = self.out_degree(s)
            if degree == 0:
                if s in self.reflex:
                    raise ValidationError(f"reflex flag on state {s}, which has no outgoing transition")
                absorbing.add(s)
            elif s in self.reflex:
                if degree != 1:
                    raise ValidationError(
                        f"reflex flag on state {s}, which has {degree} outgoing transitions (exactly one required)"
                    )
                reflex.add(s)
            else:
                transient.add(s)
        return StateClassification(frozenset(transient), frozenset(absorbing), frozenset(reflex))


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
    for (i, j) in model._edges:
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


def _require_valid(model: StateModel):
    """Refuse a model with any :func:`validate_model` diagnostic, naming them all."""
    problems = validate_model(model)
    if problems:
        raise ValidationError("; ".join(problems))


def classify_states(model: StateModel) -> StateClassification:
    """Classify every state as transient, absorbing or reflex.

    Absorbing means no outgoing transition.  Reflex means the state is
    flagged as always-left-after-one-period and has exactly one outgoing
    transition; a flagged state with any other out-degree is an error.
    The classification is worked out once per model and shared.
    """
    return model._classes


def shortest_arrival(model: StateModel) -> ArrivalOffsets:
    """Earliest arrival time at each state from the initial state.

    Every transition takes one time unit, so this is a breadth-first
    search over the transition graph.  The result agrees with a
    unit-weight shortest-path computation.
    """
    _require_valid(model)
    offsets: dict[int, int | None] = {s: UNREACHABLE for s in range(1, model.n_states + 1)}
    offsets[model.initial_state] = 0
    queue = deque([model.initial_state])
    while queue:
        s = queue.popleft()
        for j in model.successors(s):
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
    _require_valid(model)
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
        unpaid = [(i, target) for i in model.predecessors(target) if (i, target) not in lump_sums]
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
        reflex=frozenset({renumber[r] for r in model.reflex if model.out_degree(r) == 1 or not lump_sums}
                         | set(plus_id.values())),
        plus_state_origin=origin,
        state_renumbering=renumbering,
    )
    return extended, attachments


def _extend_file(parsed: "ModelFile") -> tuple[ExtendedStateModel, dict[int, object]]:
    """:func:`extend_model` on a model file, its ``attach`` amounts placed among the
    returned ones in the new numbering; then an extension no chain can be built
    from (see :func:`classify_states`) is refused, and so is the first attachment,
    in state order, on an unknown state or on one a lump sum was rewritten onto."""
    extended, attachments = extend_model(parsed.model, parsed.lump_sums)
    classify_states(extended)
    for s, amount in sorted(parsed.attachments.items()):
        if s not in extended.state_renumbering:
            raise ValidationError(f"attachment on unknown state {s}")
        if extended.state_renumbering[s] in attachments:
            raise ValidationError(f"attachment on state {s} collides with a lump sum rewritten onto it")
        attachments[extended.state_renumbering[s]] = amount
    return extended, attachments


# ---------------------------------------------------------------------------
# Line-oriented model file format: one directive a line, each given below by
# its usage and its fewest and most arguments.  '#' starts a comment; blank
# lines are ignored.  State ids are 1-based.
# ---------------------------------------------------------------------------

_DIRECTIVES = {
    "states": ("states N", 1, 1),
    "label": ("label <id> [<text>]", 1, math.inf),
    "reflex": ("reflex <id> [<id> ...]", 1, math.inf),
    "transition": ("transition <i> <j>", 2, 2),
    "lumpsum": ("lumpsum <i> <j> <amount>", 3, 3),
    "attach": ("attach <state> <amount>", 2, 2),
    "initial": ("initial <id>", 1, 1),
}


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

    for line_no, fields in _fields(text):
        keyword, args = fields[0], fields[1:]
        usage, fewest, most = _DIRECTIVES.get(keyword) or fail(line_no, f"unknown directive {keyword!r}")
        if not fewest <= len(args) <= most:
            fail(line_no, f"expected: {usage}")
        try:  # transitions first: most lines of a large model are transitions
            if keyword == "transition":
                transitions.add((int(args[0]), int(args[1])))
            elif keyword == "label":
                labels[int(args[0])] = " ".join(args[1:])
            elif keyword == "reflex":
                reflex.update(int(a) for a in args)
            elif keyword == "lumpsum":
                lump_sums[(int(args[0]), int(args[1]))] = amount(line_no, args[2])
            elif keyword == "attach":
                attachments[int(args[0])] = amount(line_no, args[1])
            elif keyword == "states":
                n_states = int(args[0])
            else:
                initial = int(args[0])
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
    return parse_model_text(read_text(path, "model"))


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
