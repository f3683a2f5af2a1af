"""Plain test helpers: the frozen three-state contract, randomized chain,
graph and table factories for property tests, and an independent
earliest-arrival oracle.  Test modules import them with ``from chains
import ...``; fixtures stay in ``conftest.py``."""

import heapq
from collections import defaultdict

import numpy as np

import premval as pv

THREE_STATE_TABLE = "k,l_1,d_1_2\n0,100,10\n1,90,9\n2,81,0\n"


def make_three_state_model() -> pv.StateModel:
    """Active -> claim (one period) -> settled."""
    return pv.StateModel(n_states=3, transitions=frozenset({(1, 2), (2, 3)}),
                         reflex=frozenset({2}))


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
    seq = pv.TransitionSequence(q)
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
