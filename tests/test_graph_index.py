"""The state graph is indexed once, on ``StateModel``.

``successors``, ``predecessors`` and ``out_degree`` must answer as the
O(E) scans over ``transitions`` that they replaced, which this module
keeps as its reference, and no other module of the package may walk
``transitions`` itself or count with ``Counter``.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import premval as pv
from chains import random_digraph

SRC = Path(pv.__file__).parent


def scan_successors(model: pv.StateModel, state) -> list:
    return sorted(j for (i, j) in model.transitions if i == state)


def scan_predecessors(model: pv.StateModel, state) -> list:
    return sorted(i for (i, j) in model.transitions if j == state)


def scan_out_degree(model: pv.StateModel, state) -> int:
    return sum(1 for (i, _) in model.transitions if i == state)


@st.composite
def graphs(draw):
    """A ``random_digraph`` with up to three more states that have no edges,
    arbitrary reflex flags, and ids given as ``int`` or ``np.int64``."""
    model = random_digraph(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    n_states = model.n_states + draw(st.integers(0, 3))
    reflex = draw(st.sets(st.integers(1, n_states)))
    wrap = draw(st.sampled_from([int, np.int64]))
    return pv.StateModel(n_states=wrap(n_states),
                         transitions=frozenset((wrap(i), wrap(j)) for i, j in model.transitions),
                         reflex=frozenset(map(wrap, reflex)))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_the_index_answers_as_the_transition_scans_do(model):
    for state in range(model.n_states + 2):  # 0 and N + 1 lie outside the model
        for query in (state, np.int64(state)):
            successors, predecessors = model.successors(query), model.predecessors(query)
            assert type(successors) is list and successors == scan_successors(model, query)
            assert type(predecessors) is list and predecessors == scan_predecessors(model, query)
            assert {type(s) for s in successors + predecessors} <= {int}
            assert model.out_degree(query) == scan_out_degree(model, query)
            successors.append(0)  # the lists are the caller's own
            predecessors.append(0)
        assert model.successors(state) == scan_successors(model, state)
        assert model.predecessors(state) == scan_predecessors(model, state)


def loops_over_transitions(tree: ast.AST) -> list[int]:
    """Lines of the ``for`` loops and comprehensions whose iterable names an
    attribute ``transitions``; a membership test is no loop."""
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))]
    return [getattr(loop, "lineno", None) or loop.iter.lineno for loop in loops
            if any(isinstance(node, ast.Attribute) and node.attr == "transitions" for node in ast.walk(loop.iter))]


def imports_counter(tree: ast.AST) -> bool:
    return any(isinstance(node, ast.ImportFrom) and any(alias.name == "Counter" for alias in node.names)
               or isinstance(node, ast.Attribute) and node.attr == "Counter" for node in ast.walk(tree))


def test_only_statemodel_walks_the_transitions_and_nothing_counts_with_counter():
    trees = {source.name: ast.parse(source.read_text(encoding="utf-8")) for source in sorted(SRC.glob("*.py"))}
    walks = {name: lines for name, tree in trees.items() if name != "statemodel.py"
             if (lines := loops_over_transitions(tree))}
    assert walks == {}
    assert [name for name, tree in trees.items() if imports_counter(tree)] == []


def test_the_guard_sees_loops_and_comprehensions_but_not_membership():
    tree = ast.parse("for p in sorted(m.transitions): pass\n"
                     "x = [i for (i, j) in m.transitions if j]\n"
                     "y = {j: i for i in s for j in m.transitions}\n"
                     "z = (1, 2) in m.transitions and len(m.transitions)\n"
                     "from collections import Counter\n")
    assert loops_over_transitions(tree) == [1, 2, 3]
    assert imports_counter(tree) and not imports_counter(ast.parse("import collections\nc = collections.deque()"))
