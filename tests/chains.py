"""Plain test helpers: the frozen three-state contract, the sequence of a
dense (n, N, N) array, randomized chain, graph and table factories for
property tests, an independent earliest-arrival oracle, and references kept
from earlier versions of the library: the column-by-column table check,
path enumeration over the dense Q(k), the estimators' pass over every
simulated path, the quote path that checked every cash-flow matrix and
discount vector in full, and the fixture builders' hard-coded rows.  Float
references sum D and the valuation kernel in the library's stated orders
with plain Python loops.  An exact reference prices in rationals:
``fractions.Fraction`` holds every binary64 input exactly, so the library's
float results can be measured against the true value of their own inputs.
Test modules import them with ``from chains import ...``; fixtures stay in
``conftest.py``."""

import heapq
from collections import defaultdict
from fractions import Fraction

import numpy as np

import premval as pv

THREE_STATE_TABLE = "k,l_1,d_1_2\n0,100,10\n1,90,9\n2,81,0\n"

#: States 1 and 2 feed the one-period state 3, which moves on to the absorbing 4.
FOUR_STATE_MODEL_TEXT = "states 4\nreflex 3\ntransition 1 2\ntransition 1 3\ntransition 2 3\ntransition 3 4\n"
#: Tables for it whose counts add or divide past the largest float, by what
#: overflows, each with the error that refuses it.
OVERFLOWING_TABLES = {
    "inferred-l_3": ("k,l_1,l_2,d_1_2,d_1_3,d_2_3\n0,1.5e308,1.5e308,0,1e308,1e308\n1,0,0,0,0,0\n",
                     "non-finite count in column 'l_3'"),
    "outflow": ("k,l_1,l_2,d_1_2,d_1_3,d_2_3\n0,1.7e308,0,1e308,1e308,0\n1,0,0,0,0,0\n",
                "decrement exceeds occupancy at k=0 for state 1"),
    "exit-over-subnormal": ("k,l_1,l_2,d_1_2,d_1_3,d_2_3\n0,5e-324,0,1e-9,0,0\n1,0,0,0,0,0\n",
                            "probability inf outside [0, 1] at k=0, transition (1, 2)"),
}
#: A table for it that passes, but whose next-period occupancy over a
#: subnormal one gives an inf gap between the two diagonal conventions.
SUBNORMAL_OCCUPANCY_TABLE = "k,l_1,l_2,d_1_2,d_1_3,d_2_3\n0,5e-324,0,0,0,0\n1,1e300,0,0,0,0\n"


def make_three_state_model() -> pv.StateModel:
    """Active -> claim (one period) -> settled."""
    return pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (2, 3)}),
                         reflex=frozenset({2}))


def dense_sequence(q) -> pv.TransitionSequence:
    """The sequence of a dense (n, N, N) array, with an edge at every entry
    that is not +0.0 in some period (-0.0 and entries in [-1e-12, 0)
    included), so ``matrices`` gives ``q`` back bit for bit."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 3 or q.shape[1] != q.shape[2]:
        raise ValueError(f"a dense sequence must be (n, N, N), got {q.shape}")
    rows, columns = np.nonzero(np.any(q.view(np.uint64), axis=0))
    return pv.TransitionSequence(n_states=q.shape[1], rows=rows, columns=columns,
                                 probabilities=np.ascontiguousarray(q[:, rows, columns]))


def random_chain(rng, max_states=6, max_horizon=8):
    """A sparse random transition sequence, cash flows and discounting.

    Out-degrees are kept at 1..3 so exhaustive path enumeration stays cheap.
    """
    n_states = int(rng.integers(2, max_states + 1))
    n = int(rng.integers(1, max_horizon + 1))
    q = np.zeros((n, n_states, n_states))
    for k in range(n):
        for i in range(n_states):
            if rng.random() < 0.25:
                q[k, i, i] = 1.0
                continue
            degree = 1 + int(rng.random() < 0.55) + int(rng.random() < 0.12)
            targets = rng.choice(n_states, size=min(degree, n_states), replace=False)
            weights = rng.random(len(targets)) + 0.05
            q[k, i, targets] = weights / weights.sum()
    seq = dense_sequence(q)
    cash = rng.normal(0.0, 1.0, (n + 1, n_states))
    cash[rng.random((n + 1, n_states)) < 0.4] = 0.0
    discount = pv.DiscountVector(np.concatenate([[1.0], np.cumprod(rng.uniform(0.9, 1.0, n))]))
    initial = np.zeros(n_states)
    initial[int(rng.integers(n_states))] = 1.0
    return seq, initial, pv.CashflowMatrix(cash), discount


def random_digraph(rng, max_states=9) -> pv.StateModel:
    n_states = int(rng.integers(2, max_states + 1))
    p = rng.uniform(0.05, 0.4)
    transitions = {(i, j)
                   for i in range(1, n_states + 1)
                   for j in range(1, n_states + 1)
                   if i != j and rng.random() < p}
    return pv.StateModel(n_states=n_states, transitions=frozenset(transitions))


def dijkstra_offsets(model: pv.StateModel) -> dict:
    """Independent earliest-arrival oracle on unit edge weights."""
    adjacency = defaultdict(list)
    for (i, j) in model.transitions:
        adjacency[i].append(j)
    best = {s: None for s in range(1, model.n_states + 1)}
    best[model.initial_state] = 0
    queue = [(0, model.initial_state)]
    done = set()
    while queue:
        d, u = heapq.heappop(queue)
        if u in done:
            continue
        done.add(u)
        for v in adjacency[u]:
            if best[v] is None or d + 1 < best[v]:
                best[v] = d + 1
                heapq.heappush(queue, (d + 1, v))
    return best


def random_table_case(rng):
    """A random model plus a consistent integer-count table for it.

    Builds a forward chain 1 -> 2 -> ... -> K with optional skip transitions,
    flags some single-exit middle states as one-period states, then evolves an
    integer cohort so every tabulated identity holds exactly.
    """
    n_states = int(rng.integers(3, 8))
    horizon = int(rng.integers(2, 9))
    transitions = {(i, i + 1) for i in range(1, n_states)}
    for i in range(1, n_states - 1):
        for j in range(i + 2, n_states + 1):
            if rng.random() < 0.35:
                transitions.add((i, j))
    out = {i: sorted(j for (a, j) in transitions if a == i)
           for i in range(1, n_states + 1)}
    reflex = frozenset(i for i in range(2, n_states)
                       if len(out[i]) == 1 and rng.random() < 0.5)
    model = pv.StateModel(n_states=n_states, transitions=frozenset(transitions), reflex=reflex)

    tabulated = [i for i in range(1, n_states + 1) if out[i] and i not in reflex]
    pairs = sorted((i, j) for (i, j) in transitions if i in tabulated)
    hazards = {pair: rng.uniform(0.02, 0.25) for pair in pairs}

    counts = {i: 0 for i in range(1, n_states + 1)}
    counts[1] = 1_000_000
    rows = []
    for k in range(horizon + 1):
        flows = {pair: 0 for pair in pairs}
        if k < horizon:
            for i in tabulated:
                remaining = counts[i]
                for j in out[i]:
                    moved = min(remaining, int(counts[i] * hazards[(i, j)]))
                    flows[(i, j)] = moved
                    remaining -= moved
        rows.append([k] + [counts[i] for i in tabulated] + [flows[p] for p in pairs])
        if k == horizon:
            break
        nxt = dict(counts)
        for (i, j), moved in flows.items():
            nxt[i] -= moved
            nxt[j] += moved
        for r in sorted(reflex):
            moved = counts[r]
            nxt[r] -= moved
            nxt[out[r][0]] += moved
            # inflow recorded above already went into nxt[r]; it stays one period
        counts = nxt
    header = ["k"] + [f"l_{i}" for i in tabulated] + [f"d_{i}_{j}" for (i, j) in pairs]
    text = ",".join(header) + "\n" + "\n".join(
        ",".join(str(v) for v in row) for row in rows) + "\n"
    return model, text


def large_chain_case(seed: int = 20261018, n_states: int = 1000, horizon: int = 120):
    """A seeded model and integer-count table too large for a dense Q.

    States 1..600 are transient with 1-4 random successors each, the next
    250 are reflex, each fed by one more transition from a random transient
    state, and the rest absorbing; state 1 is the initial state.  A cohort
    of 10**7 lives evolves over the horizon, each transition taking the
    floor of the occupancy times a hazard below 0.8 / out-degree, so the
    exits of a state stay within its occupancy, and every reflex state
    empties after one period.  Reflex occupancies are left for
    ``infer_reflex_columns``.
    """
    rng = np.random.default_rng(seed)
    n_transient, n_reflex = 3 * n_states // 5, n_states // 4
    transient = np.arange(1, n_transient + 1)
    reflex = np.arange(n_transient + 1, n_transient + n_reflex + 1)

    def targets(i: int, degree: int) -> list[int]:
        chosen = rng.choice(n_states - 1, size=degree, replace=False) + 1
        return sorted(int(j + (j >= i)) for j in chosen)

    pairs = {(int(i), j) for i in transient for j in targets(i, int(rng.integers(1, 5)))}
    pairs = sorted(pairs | {(int(rng.integers(1, n_transient + 1)), int(r)) for r in reflex})
    exits = [(int(r), targets(r, 1)[0]) for r in reflex]
    model = pv.StateModel(n_states=n_states, transitions=frozenset(pairs + exits), reflex=frozenset(reflex.tolist()))

    source, target = np.array(pairs).T
    degree = np.bincount(source)[source]
    reflex_target = np.array([j for _, j in exits])
    counts = np.zeros(n_states + 1, dtype=np.int64)
    counts[1] = 10 ** 7
    rows = []
    for k in range(horizon + 1):
        flows = (counts[source] * rng.uniform(0.0, 0.8, len(pairs)) / degree).astype(np.int64)
        if k == horizon:
            flows[:] = 0
        rows.append(",".join(map(str, [k, *counts[transient], *flows])))
        nxt = counts.copy()
        np.subtract.at(nxt, source, flows)
        np.add.at(nxt, target, flows)
        nxt[reflex] -= counts[reflex]
        np.add.at(nxt, reflex_target, counts[reflex])
        counts = nxt
    header = ["k", *(f"l_{i}" for i in transient), *(f"d_{i}_{j}" for i, j in pairs)]
    return model, ",".join(header) + "\n" + "\n".join(rows) + "\n"


def graduated_cycle_case(seed: int = 20261018, n_transient: int = 20, horizon: int = 1000):
    """A seeded model and graduated (non-integer) table whose mass keeps
    moving between transient states over a long horizon.

    Transient states 1..K form a ring: each moves to both neighbours with
    per-period hazards in [0.05, 0.3) and to the one absorbing state K + 1
    with a hazard below 1e-4, so most of the cohort is still transient,
    and still moving, after a thousand periods.  Each count is the float
    product of an occupancy and a hazard, written in full.
    """
    rng = np.random.default_rng(seed)
    dead = n_transient + 1
    ring = range(1, dead)
    pairs = sorted({(i, i % n_transient + 1) for i in ring} | {(i, (i - 2) % n_transient + 1) for i in ring}
                   | {(i, dead) for i in ring})
    model = pv.StateModel(n_states=dead, transitions=frozenset(pairs))
    source, target = np.array(pairs).T
    counts = np.zeros(dead + 1)
    counts[1] = 1e6 / 3
    rows = []
    for k in range(horizon + 1):
        hazards = np.where(target == dead, rng.uniform(0.0, 1e-4, len(pairs)), rng.uniform(0.05, 0.3, len(pairs)))
        flows = counts[source] * hazards if k < horizon else np.zeros(len(pairs))
        rows.append(",".join(map(str, [k, *counts[1:dead].tolist(), *flows.tolist()])))
        counts = counts.copy()
        np.subtract.at(counts, source, flows)
        np.add.at(counts, target, flows)
    header = ["k", *(f"l_{i}" for i in ring), *(f"d_{i}_{j}" for i, j in pairs)]
    return model, ",".join(header) + "\n" + "\n".join(rows) + "\n"


def reference_table_fault(n: int, occupancy: dict, decrements: dict) -> "tuple[type, str] | None":
    """The column-by-column check that ``IncrementDecrementTable`` ran on its
    mappings before it owned one array of counts: the type and message of
    what it raised, or None.  Columns in name order (occupancy by state,
    then decrements by transition): length, then non-finite counts, then
    negative ones; then each state's outflow, added in mapping order from
    +0.0, against its occupancy with a 1e-9 relative slack."""
    columns = [(f"l_{i}", col) for i, col in sorted(occupancy.items())]
    columns += [(f"d_{i}_{j}", col) for (i, j), col in sorted(decrements.items())]
    shaped = next((c for c, (_, column) in enumerate(columns) if column.shape != (n + 1,)), len(columns))
    stacked = np.array([column for _, column in columns[:shaped]] + [np.zeros(n + 1)])
    faulty = np.flatnonzero(~np.isfinite(stacked).all(axis=1) | (stacked < 0).any(axis=1))
    if faulty.size:
        name, column = columns[faulty[0]]
        if not np.isfinite(column).all():
            return pv.ValidationError, f"non-finite count in column {name!r}"
        return pv.ValidationError, f"negative count at k={int(np.argmax(column < 0))}, column {name!r}"
    if shaped < len(columns):
        name, column = columns[shaped]
        return pv.ValidationError, f"column {name!r} has {column.shape[0]} rows, expected {n + 1}"
    position = {key: c for c, key in enumerate([*sorted(occupancy), *sorted(decrements)])}
    leaving: dict = {i: [] for i in occupancy}
    for (i, j) in decrements:
        if i in leaving:
            leaving[i].append(position[(i, j)])
    width = max(map(len, leaving.values()), default=0)
    feeds = np.array([c + [-1] * (width - len(c)) for c in leaving.values()], dtype=np.intp)
    feeds = feeds.reshape(len(leaving), width)
    outflow = sum((stacked[feeds[:, w]] for w in range(width)), np.zeros((len(leaving), n + 1)))
    living = stacked[[position[i] for i in leaving]].reshape(outflow.shape)
    bad = outflow > living + 1e-9 * np.maximum(1.0, living)
    if bad.any():
        s, k = np.argwhere(bad)[0]
        return pv.ValidationError, f"decrement exceeds occupancy at k={k} for state {list(leaving)[s]}"
    return None


def reference_enumerate_pv(seq: pv.TransitionSequence, initial: np.ndarray, c: pv.CashflowMatrix,
                           discount: pv.DiscountVector) -> float:
    """``enumerate_pv``'s walk as it was over the dense Q(k): each row's
    nonzero entries in column order, on a distribution and shapes taken as
    they come."""
    n = seq.n
    weighted = discount.values[:, None] * c.matrix
    q = seq.matrices
    total = 0.0

    def walk(k: int, state: int, probability: float, cash: float):
        nonlocal total
        cash += weighted[k, state]
        if k == n:
            total += probability * cash
            return
        row = q[k, state]
        for nxt in np.nonzero(row)[0]:
            walk(k + 1, int(nxt), probability * row[nxt], cash)

    for start in np.nonzero(initial)[0]:
        walk(0, int(start), float(initial[start]), 0.0)
    return total


# The quote path as it was while every builder's matrix went through the full
# ``CashflowMatrix`` check and the checks used numpy's wrapper functions.
# States, periods and horizons are taken as they come, so the references are
# only meant for integer ones.


def reference_path_totals(ensemble: pv.PathEnsemble, cashflows: list, discount: pv.DiscountVector) -> np.ndarray:
    """Discounted cash totals of every path under each of K cash-flow
    matrices, shape (K, n_paths), from one pass over k through every path,
    as the estimators summed them before the distinct-path table: each
    path's total starts from 0.0 and adds its cash at times 0, 1, ..., n."""
    stacked = np.stack([c.matrix for c in cashflows], axis=2)
    weighted = np.zeros((ensemble.n + 1, stacked.shape[1] + 1, len(cashflows)))
    np.multiply(discount.values[:, None, None], stacked, out=weighted[:, 1:])
    totals = np.zeros((ensemble.n_paths, len(cashflows)))
    for k, states in enumerate(ensemble.paths.T):
        totals += weighted[k].take(states, axis=0)
    return np.ascontiguousarray(totals.T)


def reference_empirical_distribution(ensemble: pv.PathEnsemble, n_states: int) -> np.ndarray:
    """Occupancy frequencies counted over every path, time by time."""
    counts = np.stack([np.bincount(states, minlength=n_states + 1) for states in ensemble.paths.T])
    return counts[:, 1:] / ensemble.n_paths


def reference_build_cashflow(entries, n: int, n_states: int) -> pv.CashflowMatrix:
    if n < 0:
        raise pv.ValidationError(f"horizon n={n} is negative")
    c = np.zeros((n + 1, max(n_states, 0)))
    for e in entries:
        if not 1 <= e.state <= n_states:
            raise pv.ValidationError(f"state {e.state} out of range 1..{n_states}")
        if not 0 <= e.k_start <= e.k_end <= n + 1:
            raise pv.ValidationError(f"period range [{e.k_start}, {e.k_end}) out of range 0..{n + 1}")
        if not np.isfinite(e.amount):
            raise pv.ValidationError(f"non-finite amount for state {e.state}")
        c[e.k_start:e.k_end, e.state - 1] += e.amount
    return pv.CashflowMatrix(c)


def reference_accelerated_benefit(acceleration: float, n: int) -> pv.CashflowMatrix:
    if not 0.0 <= acceleration <= 1.0:
        raise pv.ValidationError(f"acceleration share {acceleration!r} outside [0, 1]")
    if n < 0:
        raise pv.ValidationError(f"horizon n={n} is negative")
    c = np.zeros((n + 1, 10))
    c[1:, 2] = acceleration
    c[1:, 6] = 1.0
    c[2:, 8] = 1.0 - acceleration
    return pv.CashflowMatrix(c)


def reference_dread_disease_case(case: int, n: int) -> pv.CashflowMatrix:
    if case not in (1, 2, 3):
        raise pv.ValidationError(f"unknown case id {case!r} (expected 1, 2 or 3)")
    if n < 0:
        raise pv.ValidationError(f"horizon n={n} is negative")
    c = np.zeros((n + 1, 10))
    c[1:, 6] = 1.0
    c[2:, 8] = 1.0
    if case in (1, 3):
        c[1:, 2] = 1.0
    else:
        for state in (3, 4, 5, 6):
            c[state - 2:, state - 1] = 0.25
    if case == 3:
        c[n, 0:6] += 1.0
    return pv.CashflowMatrix(c)


def reference_premium_selector(pay_states, offsets, m: int, n: int, n_states: int) -> pv.CashflowMatrix:
    if not 1 <= m <= n:
        raise pv.ValidationError(f"premium horizon m={m} out of range 1..{n}")
    pay = sorted(set(pay_states))
    selector = np.zeros((n + 1, n_states))
    for s in pay:
        if not 1 <= s <= n_states:
            raise pv.ValidationError(f"pay state {s} out of range 1..{n_states}")
        if offsets.payable(s, m):
            selector[offsets.offset(s):m, s - 1] = 1.0
    if not selector.any():
        raise pv.ValidationError(f"no payable state: none of {pay} is reachable before m={m}")
    return pv.CashflowMatrix(selector)


def reference_premium_outflow(premium: float, pay_states, offsets, m: int, n: int,
                              n_states: int) -> pv.CashflowMatrix:
    return pv.CashflowMatrix(-premium * reference_premium_selector(pay_states, offsets, m, n, n_states).matrix)


def reference_discount_fault(values: np.ndarray) -> "tuple[type, str] | None":
    """The type and message of what ``DiscountVector`` raised on ``values``, or None."""
    if values.ndim != 1 or values.shape[0] < 1:
        return pv.ValidationError, "discount vector must be a nonempty 1-D array"
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        return pv.ValidationError, "discount factors must be positive and finite"
    if abs(values[0] - 1.0) > 1e-12:
        return pv.ValidationError, f"m_0 must equal 1, got {float(values[0])!r}"
    return None


def reference_check_inflows(c_in: pv.CashflowMatrix):
    if np.any(c_in.matrix < 0):
        k, j = np.unravel_index(int(np.argmin(c_in.matrix)), c_in.matrix.shape)
        raise pv.ValidationError(
            f"negative entry {float(c_in.matrix[k, j])!r} at (k={k}, state={j + 1}) in inflow matrix")


def reference_expected_pv(c: pv.CashflowMatrix, dist, discount) -> float:
    """The valuation kernel as explicit loops over Python floats, in its stated
    order: each term (m_k * D[k, j]) * C[k, j], added over k from k = 0 for
    each state, then the state totals from state 1.  Each sum starts from
    its first term, as ``np.add.accumulate`` does, so a sum of -0.0 stays -0.0."""
    if c.matrix.shape != dist.matrix.shape:
        raise pv.ValidationError(
            f"cash-flow shape {c.matrix.shape} does not match distribution shape {dist.matrix.shape}")
    if discount.values.shape[0] != dist.matrix.shape[0]:
        raise pv.ValidationError(
            f"discount vector length {discount.values.shape[0]} does not match horizon {dist.matrix.shape[0] - 1}")
    m, d, cash = discount.values.tolist(), dist.matrix.tolist(), c.matrix.tolist()
    states = []
    for j in range(len(d[0])):
        total = m[0] * d[0][j] * cash[0][j]
        for k in range(1, len(m)):
            total += m[k] * d[k][j] * cash[k][j]
        states.append(total)
    value = states[0]
    for total in states[1:]:
        value += total
    return value


def reference_distribution(seq: pv.TransitionSequence, initial: np.ndarray) -> np.ndarray:
    """The float twin of ``rational_distribution``: D by the forward recursion
    over the sequence's edges in stored order, each entry of a step a Python
    float that starts from 0.0 and adds the products of its in-edges."""
    rows = [np.asarray(initial, dtype=float).tolist()]
    for k in range(seq.n):
        here, step = rows[-1], [0.0] * seq.n_states
        for i, j, q in zip(seq.rows.tolist(), seq.columns.tolist(), seq.probabilities[k].tolist()):
            step[j] += here[i] * q
        rows.append(step)
    return np.array(rows)


def rational_distribution(seq: pv.TransitionSequence, initial: np.ndarray) -> list:
    """D as (n+1) lists of N ``Fraction``s: the exact forward recursion over the
    sequence's edges, from the exact values of its float probabilities."""
    rows = [[Fraction(float(p)) for p in initial]]
    for k in range(seq.n):
        here, step = rows[-1], [Fraction(0)] * seq.n_states
        for i, j, q in zip(seq.rows.tolist(), seq.columns.tolist(), seq.probabilities[k].tolist()):
            step[j] += here[i] * Fraction(q)
        rows.append(step)
    return rows


def rational_expected_pv(c: pv.CashflowMatrix, d: list, discount: pv.DiscountVector) -> Fraction:
    """The exact expected present value of ``c`` under the rational distribution ``d``."""
    return sum((Fraction(m) * sum((Fraction(x) * p for x, p in zip(row, d_k) if x), Fraction(0))
                for m, row, d_k in zip(discount.values.tolist(), c.matrix.tolist(), d)), Fraction(0))
