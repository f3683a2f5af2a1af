"""The five workloads.

Each workload makes its inputs from the seed (``generate``, untimed), builds
what its operations share (``setup``, timed as set-up), runs one operation at
a time (``op``, timed) and checks every operation's output (``check``,
untimed).  Workloads reach premval only through the ``api`` namespaces of
:mod:`tracing`, and hand it only the generated inputs.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import synth

FIXTURE_DIR = Path("src/premval/data")
FIXTURE_MODEL = FIXTURE_DIR / "dread_disease.model"
FIXTURE_TABLE = FIXTURE_DIR / "synthetic_table.csv"
#: Shape of the bundled fixture and the earliest arrival time of its living
#: states; the quote mix relies on them to know which quotes must be refused.
FIXTURE_STATES, FIXTURE_HORIZON, FIXTURE_ENTRY_AGE = 10, 25, 40
FIXTURE_OFFSETS = {1: 0, 2: 1, 3: 1, 4: 2, 5: 3, 6: 4}
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: Simulation master seeds per run; operations cycle through them, so each
#: seed's paths are simulated several times and must hash the same each time.
MASTER_SEEDS_PER_RUN = 3
#: Master seed of the once-per-run golden simulation, whose path digest is
#: committed in golden/digests.json; it does not depend on --seed.
GOLDEN_MASTER_SEED = 1701


@dataclass(frozen=True)
class Chain:
    seq: object
    initial: np.ndarray
    dist: object
    offsets: object


def build_chain(api, model_text: str, table_text: str, entry_age: int = 0) -> Chain:
    """Model text and table CSV to a chain ready to price, one public call per stage."""
    model = api.statemodel.parse_model_text(model_text).model
    table = api.lifetable.load_table(table_text, model, entry_age)
    table = api.lifetable.infer_reflex_columns(table, model)
    seq = api.lifetable.transition_sequence(table, model)
    initial = api.lifetable.unit_distribution(model.n_states, model.initial_state)
    dist = api.lifetable.distribution_matrix(seq, initial)
    offsets = api.statemodel.shortest_arrival(model)
    return Chain(seq, initial, dist, offsets)


def _fixture_texts(root: Path) -> tuple[str, str]:
    return (root / FIXTURE_MODEL).read_text(encoding="utf-8"), (root / FIXTURE_TABLE).read_text(encoding="utf-8")


def _master_seeds(rng: random.Random) -> list[int]:
    return [rng.getrandbits(63) for _ in range(MASTER_SEEDS_PER_RUN)]


class Workload:
    """Defaults shared by the workloads; see each subclass for its purpose."""

    name = ""
    layers: tuple[str, ...] = ()
    warmup = 1          # operations run and checked before timing starts
    min_ops = 3         # timed operations, even when --seconds runs out first
    trace_pairs_per_s = 1.0  # traced + untraced operation pairs per --seconds
    children_rss = False
    #: Workload-specific names for end-to-end figures:
    #: (name, unit, generic metric, factor from the generic metric).
    named: tuple[tuple[str, str, str, float], ...] = ()
    #: ``verify(api, root)``, when defined, checks once per run an output that
    #: does not depend on --seed against golden/; it returns a reason or None.
    verify = None

    def traced_op(self, api, state, i):
        return self.op(api, state, i)

    def import_seconds(self, state) -> float:
        """Cost of importing the CLI; measured only by the workload that runs it."""
        return 0.0


# ---------------------------------------------------------------------------
# quote-book
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quote:
    rate: float
    kind: str        # "accel" | "case" | "build"
    contract: object  # acceleration share, case id, or cash-flow entry tuples
    pay: frozenset
    m: int
    refuse: bool     # no pay state is reachable before m


@dataclass(frozen=True)
class QuoteResult:
    refused: bool
    numerator: float = 0.0
    residual: float = 0.0


def make_quotes(seed, count: int = 4096) -> list[Quote]:
    """The seeded quote mix on the fixture; about one in sixteen must be refused."""
    rng = random.Random(f"quote-book:{seed}")
    n = FIXTURE_HORIZON
    quotes = []
    for i in range(count):
        rate = rng.uniform(0.0, 0.05)
        kind = ("accel", "case", "build")[i % 3]
        if kind == "accel":
            contract = rng.random()
        elif kind == "case":
            contract = rng.randint(1, 3)
        else:
            contract = tuple(synth.cashflow_entries(rng, n, FIXTURE_STATES, rng.randint(1, 4)))
        refuse = rng.random() < 1 / 16
        if refuse:
            pay = frozenset(rng.sample(range(2, 7), rng.randint(1, 3)))
            m = min(FIXTURE_OFFSETS[s] for s in pay)
        else:
            m = rng.randint(1, n)
            eligible = [s for s, d in FIXTURE_OFFSETS.items() if d < m]
            pay = frozenset(rng.sample(eligible, rng.randint(1, min(3, len(eligible)))))
        quotes.append(Quote(rate, kind, contract, pay, m, refuse))
    return quotes


class QuoteBook(Workload):
    """Thousands of ~100 us quotes on the fixture: per-call overhead shows."""

    name = "quote-book"
    layers = ("statemodel", "lifetable", "cashflow", "valuation")
    warmup = 200
    min_ops = 1000
    trace_pairs_per_s = 500.0
    named = (("quotes_per_s", "1/s", "ops_per_s", 1.0), ("quote_p50_us", "us", "op_p50_ms", 1e3),
             ("quote_p99_us", "us", "op_p99_ms", 1e3))

    def generate(self, seed, root):
        model_text, table_text = _fixture_texts(root)
        return {"model": model_text, "table": table_text, "quotes": make_quotes(seed)}

    def sizes(self, inputs):
        return {"N": FIXTURE_STATES, "n": FIXTURE_HORIZON, "quotes": len(inputs["quotes"])}

    def setup(self, api, inputs):
        chain = build_chain(api, inputs["model"], inputs["table"], FIXTURE_ENTRY_AGE)
        return {"chain": chain, "quotes": inputs["quotes"], "entry": api.pv.CashflowEntry,
                "refusal": api.pv.ValidationError}

    def op(self, api, state, i):
        q = state["quotes"][i % len(state["quotes"])]
        chain = state["chain"]
        n, n_states = chain.dist.n, chain.dist.n_states
        discount = api.valuation.constant_rate_discount(n, rate=q.rate)
        if q.kind == "accel":
            c_in = api.cashflow.accelerated_benefit(q.contract, n)
        elif q.kind == "case":
            c_in = api.cashflow.dread_disease_case(q.contract, n)
        else:
            c_in = api.cashflow.build_cashflow([state["entry"](*e) for e in q.contract], n, n_states)
        api.valuation.net_single_premium(c_in, chain.dist, discount)
        if q.refuse:
            try:
                api.valuation.period_premium(c_in, chain.dist, discount, q.pay, chain.offsets, q.m)
            except state["refusal"]:
                return QuoteResult(refused=True)
            return QuoteResult(refused=False)
        premium = api.valuation.period_premium(c_in, chain.dist, discount, q.pay, chain.offsets, q.m)
        c_out = api.cashflow.premium_outflow(premium.value, q.pay, chain.offsets, q.m, n, n_states)
        residual = api.valuation.equivalence_residual(c_in, c_out, chain.dist, discount)
        return QuoteResult(refused=False, numerator=premium.numerator, residual=residual)

    def check(self, state, i, result):
        q = state["quotes"][i % len(state["quotes"])]
        if q.refuse != result.refused:
            return f"quote {i}: expected {'a' if q.refuse else 'no'} refusal for pay {sorted(q.pay)}, m={q.m}"
        return None if q.refuse else checks.equivalence(result.residual, result.numerator)



# ---------------------------------------------------------------------------
# chain-build
# ---------------------------------------------------------------------------


class ChainBuild(Workload):
    """Whole chains from text at N=200, n=120: parsing, inference, Q(k), D."""

    name = "chain-build"
    layers = ("statemodel", "lifetable", "cashflow", "valuation")
    n_chains = 4
    entries_per_contract = 12
    trace_pairs_per_s = 1.0
    named = (("chains_per_s", "1/s", "ops_per_s", 1.0), ("chain_p50_ms", "ms", "op_p50_ms", 1.0))

    def generate(self, seed, root):
        rng = random.Random(f"chain-build:{seed}")
        chains = []
        for j in range(self.n_chains):
            model_text, table_text = synth.generate_chain(f"{seed}/{j}")
            contracts = [synth.cashflow_entries(rng, synth.HORIZON, synth.N_STATES, self.entries_per_contract)
                         for _ in range(2)]
            chains.append({"model": model_text, "table": table_text, "rate": rng.uniform(0.005, 0.04),
                           "contracts": contracts})
        return {"chains": chains}

    def sizes(self, inputs):
        return {"N": synth.N_STATES, "n": synth.HORIZON, "chains": len(inputs["chains"])}

    def setup(self, api, inputs):
        return {"chains": inputs["chains"], "entry": api.pv.CashflowEntry}

    def op(self, api, state, i):
        spec = state["chains"][i % len(state["chains"])]
        chain = build_chain(api, spec["model"], spec["table"])
        n, n_states = chain.dist.n, chain.dist.n_states
        discount = api.valuation.constant_rate_discount(n, rate=spec["rate"])
        priced = []
        for entries in spec["contracts"]:
            c_in = api.cashflow.build_cashflow([state["entry"](*e) for e in entries], n, n_states)
            priced.append((c_in, api.valuation.net_single_premium(c_in, chain.dist, discount).value))
        return chain, discount, priced

    def check(self, state, i, result):
        chain, discount, priced = result
        for j, (c_in, value) in enumerate(priced):
            want = checks.backward_epv(chain.seq.matrices, c_in.matrix, discount.values, chain.initial)
            reason = checks.relative(value, want, f"chain {i}, contract {j}: net single premium vs backward recursion")
            if reason:
                return reason
        return None



# ---------------------------------------------------------------------------
# mc-fixture and mc-large
# ---------------------------------------------------------------------------


class _Simulation(Workload):
    """Shared operation of the two simulation workloads: simulate, then estimate."""

    layers = ("statemodel", "lifetable", "cashflow", "valuation", "oracle")
    n_paths = 0
    pay_sets: tuple[frozenset, ...] = ()

    def sizes(self, inputs):
        return {"N": self.n_states, "n": self.horizon, "paths": self.n_paths}

    def _price(self, api, chain, c_in, discount, inputs):
        n = chain.dist.n
        return {"chain": chain, "c_in": c_in, "discount": discount, "m": n,
                "single": api.valuation.net_single_premium(c_in, chain.dist, discount).value,
                "premiums": [api.valuation.period_premium(c_in, chain.dist, discount, pay, chain.offsets, n).value
                             for pay in self.pay_sets],
                "master_seeds": inputs["master_seeds"], "digests": {}}

    def golden_digest(self, api, root: Path) -> str:
        """sha256 of the paths from GOLDEN_MASTER_SEED on the workload's golden chain."""
        chain = build_chain(api, *self.chain_texts(root, "golden"), self.entry_age)
        return checks.path_digest(api.oracle.simulate(chain.seq, chain.initial, self.n_paths,
                                                      GOLDEN_MASTER_SEED).paths)

    def verify(self, api, root: Path) -> "str | None":
        """The golden paths must hash as committed: same seed, bit-identical paths."""
        with open(GOLDEN_DIR / "digests.json", encoding="utf-8") as handle:
            committed = json.load(handle)[self.name]
        return checks.same_digest(self.golden_digest(api, root), committed, "golden master seed")

    def op(self, api, state, i):
        chain = state["chain"]
        slot = i % len(state["master_seeds"])
        ensemble = api.oracle.simulate(chain.seq, chain.initial, self.n_paths, state["master_seeds"][slot])
        single = api.oracle.mc_pv(ensemble, state["c_in"], state["discount"])
        premiums = [api.oracle.mc_premium(ensemble, state["c_in"], state["discount"], pay, chain.offsets, state["m"])
                    for pay in self.pay_sets]
        frequency = api.oracle.frequency_vs_distribution(ensemble, chain.dist) if self.check_frequencies else None
        return slot, ensemble, single, premiums, frequency

    def check(self, state, i, result):
        slot, ensemble, single, premiums, frequency = result
        digest = checks.path_digest(ensemble.paths)
        reasons = [checks.z_score(single.mean, single.std_error, state["single"], "mc_pv")]
        for pay, got, want in zip(self.pay_sets, premiums, state["premiums"]):
            reasons.append(checks.z_score(got.mean, got.std_error, want, f"mc_premium {sorted(pay)}"))
        if frequency is not None:
            reasons.append(checks.frequencies(*frequency))
        first = state["digests"].setdefault(slot, digest)
        reasons.append(checks.same_digest(digest, first, f"master seed {slot}, repeated"))
        return next((r for r in reasons if r), None)



class McFixture(_Simulation):
    """200 000 fixture paths per operation: the simulator and the estimators."""

    name = "mc-fixture"
    n_states, horizon, n_paths = FIXTURE_STATES, FIXTURE_HORIZON, 200_000
    named = (("mc_paths_per_s", "1/s", "ops_per_s", n_paths),)
    pay_sets = (frozenset({1}), frozenset({1, 2}), frozenset(range(1, 7)))
    check_frequencies = True
    trace_pairs_per_s = 0.3
    entry_age = FIXTURE_ENTRY_AGE

    def chain_texts(self, root, key):
        return _fixture_texts(root)

    def generate(self, seed, root):
        rng = random.Random(f"mc-fixture:{seed}")
        model_text, table_text = self.chain_texts(root, seed)
        return {"model": model_text, "table": table_text, "accel": rng.uniform(0.1, 0.9),
                "rate": rng.uniform(0.005, 0.03), "master_seeds": _master_seeds(rng)}

    def setup(self, api, inputs):
        chain = build_chain(api, inputs["model"], inputs["table"], self.entry_age)
        discount = api.valuation.constant_rate_discount(chain.dist.n, rate=inputs["rate"])
        c_in = api.cashflow.accelerated_benefit(inputs["accel"], chain.dist.n)
        return self._price(api, chain, c_in, discount, inputs)


class McLarge(_Simulation):
    """4 096 paths per operation on a synthetic N=200, n=120 chain."""

    name = "mc-large"
    n_states, horizon, n_paths = synth.N_STATES, synth.HORIZON, 4096
    named = (("mc_paths_per_s", "1/s", "ops_per_s", n_paths),)
    pay_sets = (frozenset({1}),)
    check_frequencies = False
    trace_pairs_per_s = 0.8
    entry_age = 0

    def chain_texts(self, root, key):
        return synth.generate_chain(f"{key}/large")

    def generate(self, seed, root):
        rng = random.Random(f"mc-large:{seed}")
        model_text, table_text = self.chain_texts(root, seed)
        # A benefit in every state at every time keeps each path's value a
        # sum of many terms, so 4 096 paths give a near-normal estimate.
        entries = [(s, 0, synth.HORIZON + 1, round(rng.uniform(0.0, 1.0), 6))
                   for s in range(1, synth.N_STATES + 1)]
        return {"model": model_text, "table": table_text, "entries": entries,
                "rate": rng.uniform(0.005, 0.03), "master_seeds": _master_seeds(rng)}

    def setup(self, api, inputs):
        chain = build_chain(api, inputs["model"], inputs["table"], self.entry_age)
        discount = api.valuation.constant_rate_discount(chain.dist.n, rate=inputs["rate"])
        entries = [api.pv.CashflowEntry(*e) for e in inputs["entries"]]
        c_in = api.cashflow.build_cashflow(entries, chain.dist.n, chain.dist.n_states)
        return self._price(api, chain, c_in, discount, inputs)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

_MODEL_ARG = str(FIXTURE_MODEL)
_TABLE_ARG = str(FIXTURE_TABLE)
#: (rate, acceleration share, simulation seed) of each session variant.
CLI_VARIANTS = ((0.01, 0.5, 7), (0.02, 0.25, 11), (0.03, 0.75, 13), (0.015, 0.1, 17),
                (0.005, 0.9, 19), (0.025, 0.4, 23), (0.035, 0.6, 29), (0.045, 0.3, 31))


def cli_session(rate: float, accel: float, sim_seed: int) -> list[tuple[str, ...]]:
    """The five commands of one session, arguments relative to the checkout root."""
    chain = ("--model", _MODEL_ARG, "--table", _TABLE_ARG, "--rate", str(rate), "--accel", str(accel))
    return [
        ("premium", *chain, "--period", "--m", "25", "--pay-states", "1,2"),
        ("check", *chain, "--premium", "0.01", "--period", "--m", "25", "--pay-states", "1,2"),
        ("demo", "accel"),
        ("table", "check", _MODEL_ARG, _TABLE_ARG),
        ("simulate", *chain, "--paths", "20000", "--seed", str(sim_seed)),
    ]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Cli(Workload):
    """Sessions of five ``python -m premval.cli`` commands, one child at a time."""

    name = "cli"
    layers = ("cli",)
    children_rss = True
    trace_pairs_per_s = 3.0
    named = (("cli_session_p50_s", "s", "op_p50_ms", 1e-3),)
    sessions = 64
    import_pairs = 3

    def generate(self, seed, root):
        rng = random.Random(f"cli:{seed}")
        with open(GOLDEN_DIR / "cli.json", encoding="utf-8") as handle:
            golden = json.load(handle)
        return {"root": root, "golden": golden,
                "sessions": [cli_session(*rng.choice(CLI_VARIANTS)) for _ in range(self.sessions)]}

    def sizes(self, inputs):
        return {"N": FIXTURE_STATES, "n": FIXTURE_HORIZON, "commands_per_session": 5, "paths": 20_000}

    def setup(self, api, inputs):
        return dict(inputs, env=child_env(inputs["root"]))

    def op(self, api, state, i):
        outputs = []
        for argv in state["sessions"][i % len(state["sessions"])]:
            done = subprocess.run([sys.executable, "-m", "premval.cli", *argv], cwd=state["root"],
                                  env=state["env"], capture_output=True, timeout=120)
            outputs.append((argv, done.returncode, done.stdout.decode("utf-8")))
        return outputs

    def traced_op(self, api, state, i):
        outputs = []
        for argv in state["sessions"][i % len(state["sessions"])]:
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = api.cli.main(list(argv))
            outputs.append((argv, code, buffer.getvalue()))
        return outputs

    def check(self, state, i, result):
        for argv, code, stdout in result:
            reason = checks.cli_report(code, stdout, state["golden"].get(" ".join(argv)), argv)
            if reason:
                return reason
        return None

    def import_seconds(self, state) -> float:
        """Median over a few pairs of ``import premval.cli`` minus a bare interpreter."""
        gaps = []
        for _ in range(self.import_pairs):
            times = []
            for code in ("import premval.cli", "pass"):
                started = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=state["root"], env=state["env"],
                               check=True, timeout=120)
                times.append(time.perf_counter() - started)
            gaps.append(times[0] - times[1])
        return statistics.median(gaps)



WORKLOADS = {w.name: w for w in (QuoteBook, ChainBuild, McFixture, McLarge, Cli)}
