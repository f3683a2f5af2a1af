"""Transition sequences stored on edges.

The sequence of a dense (n, N, N) array, built by ``chains.dense_sequence``,
must give the array back from ``.matrices`` byte for byte and be refused as
the dense check refused it.  Edges given by keyword are refused unless they
are integers, distinct, sorted and in range, and so are a state count that
is not a positive integer and probabilities that are not numbers.  A chain
far too large for a dense Q must build, propagate and simulate within a
small fraction of one, and no module of the library reads a dense Q.
"""

import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premval as pv
from chains import dense_sequence, large_chain_case

SRC = Path(pv.__file__).parent
LARGE_PATHS = 4_096
#: Peak traced memory allowed for the large chain; a dense Q would be 960 MB.
LARGE_PEAK_BYTES = 100e6


@st.composite
def dense_sequences(draw, max_states=7):
    """A valid (n, N, N) sequence whose nonzero set changes between periods,
    with -0.0 and entries in [-1e-12, 0) off the support; each tiny negative
    is added back to the row's smallest positive entry, so the row still sums
    to 1 and no entry exceeds it."""
    n_states = draw(st.integers(1, max_states))
    q = np.zeros((draw(st.integers(0, 4)), n_states, n_states))
    for row in q.reshape(-1, n_states):
        support = draw(st.lists(st.integers(0, n_states - 1), min_size=1, max_size=n_states, unique=True))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support))))
        row[support] = weights / weights.sum()
        smallest = support[int(np.argmin(weights))]
        for j in draw(st.lists(st.integers(0, n_states - 1), max_size=3, unique=True)):
            if j not in support:
                tiny = draw(st.one_of(st.just(0.0), st.floats(1e-16, 1e-12))) if len(support) > 1 else 0.0
                row[j] = -tiny
                row[smallest] += tiny
    return q


@settings(max_examples=200, deadline=None)
@given(dense_sequences())
def test_dense_input_round_trips_byte_for_byte(q):
    seq = dense_sequence(q)
    assert seq.matrices.tobytes() == q.tobytes()
    keys = seq.rows * seq.n_states + seq.columns
    assert (np.diff(keys) > 0).all()
    assert seq.rows.size == np.count_nonzero(np.any(q.view(np.uint64), axis=0))


def reference_sequence_fault(q: np.ndarray) -> "str | None":
    """The check of the dense array that the check on the edges replaced."""
    lo, hi = np.min(q, initial=0.0), np.max(q, initial=0.0)
    if not np.isfinite([lo, hi]).all():
        return "non-finite transition probability"
    if lo < -1e-12 or hi > 1 + 1e-12:
        return "transition probability outside [0, 1]"
    sums = q.sum(axis=2)
    if np.any(np.abs(sums - 1.0) > 1e-12):
        k, i = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
        return f"row {i + 1} of Q({k}) sums to {float(sums[k, i])!r}, not 1"
    return None


ROW_SUM_FAULT = re.compile(r"^row (\d+) of Q\((\d+)\) sums to (.+), not 1$")
# Shifts of one entry that keep a row sum at 1 or move it at least 1e-12
# past the 1e-12 tolerance, far more than two orders of addition disagree.
ROW_SHIFTS = st.sampled_from([0.0, 2e-12, -3e-12, 5e-12, 0.5, 1.0, float("nan")])


@settings(max_examples=200, deadline=None)
@given(dense_sequences(max_states=12), st.data())
def test_edge_check_refuses_what_the_dense_check_refused(q, data):
    for _ in range(data.draw(st.integers(0, 3)) if q.size else 0):
        k, i = data.draw(st.integers(0, q.shape[0] - 1)), data.draw(st.integers(0, q.shape[1] - 1))
        q[k, i, np.argmax(q[k, i])] += data.draw(ROW_SHIFTS)
    want = reference_sequence_fault(q)
    try:
        dense_sequence(q)
        got = None
    except pv.ValidationError as exc:
        got = str(exc)
    # The row sums are added in another order, so a sum may differ in its
    # last bits, by at most N^2 eps for N entries up to 1; of rows whose
    # distances from 1 tie to within that, either may be named.
    if ROW_SUM_FAULT.match(want or "") is None:
        assert got == want
    else:
        match = ROW_SUM_FAULT.match(got or "")
        assert match is not None, (got, want)
        tol = q.shape[1] ** 2 * np.finfo(float).eps
        distance = np.abs(q.sum(axis=2) - 1.0)
        named = (int(match[2]), int(match[1]) - 1)
        assert distance[named] >= distance.max() - tol, (got, want)
        assert abs(float(match[3]) - q.sum(axis=2)[named]) <= tol


EDGE_FAULT = "^transition sequence edges must be distinct"
UNSIGNED = np.array([1, 0], dtype=np.uint64)


@pytest.mark.parametrize("n_states, rows, columns, probabilities, message", [
    (2, [0, 1], [1, 0], [[1.0]], EDGE_FAULT),
    (2, [0, 1], [1], [[1.0, 1.0]], EDGE_FAULT),
    (2, [1, 0], [0, 1], [[1.0, 1.0]], EDGE_FAULT),
    (2, [0, 0], [1, 1], [[0.5, 0.5]], EDGE_FAULT),
    (2, [0, 2], [1, 0], [[1.0, 1.0]], EDGE_FAULT),
    (2, [0, 1], [-1, 0], [[1.0, 1.0]], EDGE_FAULT),
    (2, [0, 1], [1, 0], [1.0, 1.0], EDGE_FAULT),
    (2, [0.5, 1], [1, 0], [[1.0, 1.0]], EDGE_FAULT),
    (2, [0, 1], [1.0, 0.0], [[1.0, 1.0]], EDGE_FAULT),
    (2, ["0", "1"], [1, 0], [[1.0, 1.0]], EDGE_FAULT),
    (2, UNSIGNED, UNSIGNED[::-1], [[1.0, 1.0]], EDGE_FAULT),
    (2.0, [0, 1], [1, 0], [[1.0, 1.0]], r"^state count must be an integer, got float 2\.0$"),
    (0, [], [], [[]], "^a transition sequence needs at least one state$"),
    (2, [0, 1], [1, 0], [["1", "1"]], "^transition probabilities must hold numbers, got dtype <U1$"),
    (2, [0, 1], [1, 0], [[1.0, None]], "^transition probabilities must hold numbers, got dtype object$"),
], ids=["one-probability-short", "columns-short", "unsorted", "repeated", "row-past-n", "negative-column",
        "probabilities-1-d", "fractional-row", "float-columns", "string-rows", "unsigned-unsorted",
        "float-state-count", "no-states", "string-probabilities", "object-probabilities"])
def test_malformed_edges_are_refused(n_states, rows, columns, probabilities, message):
    with pytest.raises(pv.ValidationError, match=message):
        pv.TransitionSequence(n_states=n_states, rows=rows, columns=columns, probabilities=probabilities)


def test_edges_give_the_dense_view():
    seq = pv.TransitionSequence(n_states=2, rows=[0, 1], columns=[1, 0], probabilities=[[1.0, 1.0], [1.0, 1.0]])
    assert seq.matrices.tolist() == [[[0.0, 1.0], [1.0, 0.0]]] * 2


def test_integer_edges_of_any_width_and_no_edges_are_taken():
    """Edges are stored as intp; an empty list, which numpy reads as floats,
    is no edge at all, and a sequence of no periods needs none."""
    narrow = pv.TransitionSequence(n_states=2, rows=UNSIGNED[::-1], columns=UNSIGNED.astype(np.int8),
                                   probabilities=np.ones((3, 2), dtype=np.int32))
    assert narrow.rows.dtype == narrow.columns.dtype == np.intp and narrow.probabilities.dtype == float
    assert narrow.matrices.tolist() == [[[0.0, 1.0], [1.0, 0.0]]] * 3
    empty = pv.TransitionSequence(n_states=3, rows=[], columns=[], probabilities=np.zeros((0, 0)))
    assert (empty.n, empty.rows.dtype, empty.matrices.shape) == (0, np.intp, (0, 3, 3))


def dense_reads(tree: ast.AST) -> list[int]:
    """Lines that read an attribute ``matrices`` or view an array as ``np.uint64``,
    the nonzero-to-edges rule's reinterpretation of a dense Q."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "matrices"
            or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "view"
            and any(getattr(arg, "attr", None) == "uint64" for arg in [*node.args, *(k.value for k in node.keywords)])]


def test_no_module_of_the_library_reads_a_dense_q():
    reads = {source.name: lines for source in sorted(SRC.glob("*.py"))
             if (lines := dense_reads(ast.parse(source.read_text(encoding="utf-8"))))}
    assert reads == {}


def test_the_guard_sees_reads_and_uint64_views_but_not_the_property():
    tree = ast.parse("q = seq.matrices\n"
                     "keys = q.view(np.uint64)\n"
                     "bits = q.view(dtype=np.uint64)\n"
                     "class S:\n"
                     "    @property\n"
                     "    def matrices(self):\n"
                     "        return self.rows.view(np.int64)\n")
    assert dense_reads(tree) == [1, 2, 3]


def test_a_large_chain_is_built_and_simulated_without_a_dense_q():
    model, text = large_chain_case()
    tracemalloc.start()
    try:
        chain = pv.build_chain(model, text)
        ensemble = pv.simulate(chain.seq, chain.initial, LARGE_PATHS, master_seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (chain.seq.n, chain.seq.n_states) == (120, 1000)
    assert peak <= LARGE_PEAK_BYTES, f"peak {peak / 1e6:.1f} MB"
    gap, scale = pv.frequency_vs_distribution(ensemble, chain.dist)
    assert gap < 5 * scale
