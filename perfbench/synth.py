"""Seeded synthetic large chains: a model file and a life-table CSV as text.

The layout is fixed and only the wiring and the counts depend on the seed,
so every seed yields the same amount of work:

* 200 states: 120 transient, 50 reflex and 30 absorbing, with state 1 the
  initial state and the other ids shuffled;
* transient out-degrees are thirty each of 1, 2, 3 and 4 (state 1 has 4),
  so the model always has 300 + 50 = 350 transitions;
* every state is reachable from state 1 (a random spanning tree is laid
  down first), and about a third of the reflex states feed another reflex
  state;
* 20 reflex states carry a tabulated occupancy column, the other 30 need
  theirs inferred from inflow;
* counts evolve a closed integer cohort over 120 periods, so every decrement
  stays within its occupancy and each reflex occupancy equals the previous
  period's inflow exactly.
"""

from __future__ import annotations

import random

N_STATES = 200
HORIZON = 120
N_TRANSIENT = 120
N_REFLEX = 50
N_TABULATED_REFLEX = 20
DEGREES = (1, 2, 3, 4)
COHORT = 10_000_000


def _wiring(rng: random.Random) -> dict[int, list[int]]:
    """Successor lists over canonical ids: transient 0..119, reflex 120..169,
    absorbing 170..199."""
    reflex = range(N_TRANSIENT, N_TRANSIENT + N_REFLEX)
    degree = list(DEGREES) * (N_TRANSIENT // len(DEGREES))
    rng.shuffle(degree)
    first_four = degree.index(4)
    degree[0], degree[first_four] = degree[first_four], degree[0]
    successors: dict[int, list[int]] = {s: [] for s in range(N_TRANSIENT + N_REFLEX)}
    # Spanning tree: each state hangs below an earlier transient state with
    # spare out-degree.  Capacity never runs out, since state 0 has degree 4
    # and every transient state adds at least the one edge it uses up.
    for s in range(1, N_STATES):
        parents = [p for p in range(min(s, N_TRANSIENT)) if len(successors[p]) < degree[p]]
        successors[rng.choice(parents)].append(s)
    for p in range(N_TRANSIENT):
        while len(successors[p]) < degree[p]:
            target = rng.randrange(N_STATES)
            if target != p and target not in successors[p]:
                successors[p].append(target)
    not_reflex = [s for s in range(N_STATES) if s not in reflex]
    for r in reflex:
        later = range(r + 1, reflex.stop)
        if later and rng.random() < 1 / 3:
            successors[r] = [rng.choice(later)]
        else:
            successors[r] = [rng.choice(not_reflex)]
    return successors


def _cohort_rows(rng: random.Random, successors: dict[int, list[int]], tabulated: list[int]):
    """Integer occupancy and decrement counts for k = 0..HORIZON.

    Yields, per period, the occupancy of every transient and tabulated reflex
    state and the decrement along every transition out of a transient state.
    """
    edges = [(p, j) for p in range(N_TRANSIENT) for j in successors[p]]
    hazard = {e: (rng.uniform(0.002, 0.03), rng.uniform(-0.5, 1.5)) for e in edges}
    tracked = N_TRANSIENT + N_REFLEX
    lives = [0] * tracked
    lives[0] = COHORT
    for s in range(1, N_TRANSIENT):
        lives[s] = rng.randrange(10_000, 200_000)
    for k in range(HORIZON + 1):
        decrements = {}
        for (p, j), (base, slope) in hazard.items():
            rate = max(0.0, base * (1.0 + slope * k / HORIZON))
            decrements[(p, j)] = int(lives[p] * rate)
        yield k, [lives[s] for s in range(N_TRANSIENT)] + [lives[r] for r in tabulated], \
            [decrements[e] for e in edges]
        following = [0] * tracked
        for p in range(N_TRANSIENT):
            following[p] += lives[p]
        for (p, j), count in decrements.items():
            following[p] -= count
            if j < tracked:
                following[j] += count
        for r in range(N_TRANSIENT, tracked):
            j = successors[r][0]
            if j < tracked:
                following[j] += lives[r]
        lives = following


def generate_chain(seed) -> tuple[str, str]:
    """Model text (via ``premval.format_model``) and table CSV text for a seed."""
    from premval.statemodel import StateModel, format_model

    rng = random.Random(f"synth-chain:{seed}")
    successors = _wiring(rng)
    shuffled = list(range(2, N_STATES + 1))
    rng.shuffle(shuffled)
    state_id = [1] + shuffled
    reflex = range(N_TRANSIENT, N_TRANSIENT + N_REFLEX)
    tabulated = sorted(rng.sample(reflex, N_TABULATED_REFLEX))

    model = StateModel(
        n_states=N_STATES,
        transitions=frozenset((state_id[i], state_id[j]) for i, js in successors.items() for j in js),
        initial_state=1,
        reflex=frozenset(state_id[r] for r in reflex),
    )
    edges = [(p, j) for p in range(N_TRANSIENT) for j in successors[p]]
    names = [f"l_{state_id[s]}" for s in list(range(N_TRANSIENT)) + tabulated]
    names += [f"d_{state_id[p]}_{state_id[j]}" for p, j in edges]
    order = sorted(range(len(names)), key=lambda c: (names[c][0], [int(x) for x in names[c][2:].split("_")]))
    lines = [f"# SYNTHETIC chain, seed {seed}: {N_STATES} states, horizon {HORIZON}",
             "k," + ",".join(names[c] for c in order)]
    for k, occupancy, decrements in _cohort_rows(rng, successors, tabulated):
        values = occupancy + decrements
        lines.append(f"{k}," + ",".join(str(values[c]) for c in order))
    return format_model(model), "\n".join(lines) + "\n"


def cashflow_entries(rng: random.Random, n: int, n_states: int, count: int) -> list[tuple[int, int, int, float]]:
    """``count`` nonnegative (state, k_start, k_end, amount) entries."""
    entries = []
    for _ in range(count):
        k_start = rng.randrange(n + 1)
        k_end = rng.randrange(k_start + 1, n + 2)
        entries.append((rng.randrange(1, n_states + 1), k_start, k_end, round(rng.uniform(0.1, 2.0), 6)))
    return entries
