"""Tests of the benchmark itself: input generation, output checks, metric names."""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import premval
import checks
import run
import synth
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _api(layers=tuple(tracing.FUNCTIONS), tracer=None):
    """The Api over the already imported premval, so test objects share its classes."""
    modules = SimpleNamespace(pv=premval, **{layer: importlib.import_module(f"premval.{layer}") for layer in layers})
    return tracing.make_api(modules, layers, tracer)


def _state(workload, seed=3):
    return workload.setup(_api(workload.layers), workload.generate(seed, ROOT))


class TestSyntheticChain:
    def test_same_seed_same_bytes(self):
        assert synth.generate_chain(5) == synth.generate_chain(5)
        assert synth.generate_chain(5) != synth.generate_chain(6)

    def test_builds_a_chain_of_the_stated_shape(self):
        model_text, table_text = synth.generate_chain(11)
        chain = workloads.build_chain(_api(), model_text, table_text)
        model = premval.parse_model_text(model_text).model
        assert model.n_states == synth.N_STATES and chain.dist.n == synth.HORIZON
        assert len(model.transitions) == synth.N_TRANSIENT * 2.5 + synth.N_REFLEX
        assert max(model.out_degree(s) for s in range(1, model.n_states + 1)) <= 4
        classes = premval.classify_states(model)
        assert (len(classes.transient), len(classes.reflex), len(classes.absorbing)) == (120, 50, 30)
        assert all(chain.offsets.is_reachable(s) for s in range(1, model.n_states + 1))
        raw = premval.load_table(table_text, model)
        inferred = set(classes.reflex) - set(raw.occupancy)
        assert len(inferred) == synth.N_REFLEX - synth.N_TABULATED_REFLEX
        assert any(p in classes.reflex for r in inferred for p in model.predecessors(r))


class TestChecksRejectPerturbedValues:
    def test_equivalence(self):
        workload = workloads.QuoteBook()
        state = _state(workload)
        i = next(i for i, q in enumerate(state["quotes"]) if not q.refuse)
        result = workload.op(_api(workload.layers), state, i)
        assert workload.check(state, i, result) is None
        shifted = dataclasses.replace(result, residual=result.residual + 1e-9 * max(1.0, result.numerator))
        assert workload.check(state, i, shifted) is not None

    def test_refusal_must_happen(self):
        workload = workloads.QuoteBook()
        state = _state(workload)
        i = next(i for i, q in enumerate(state["quotes"]) if q.refuse)
        result = workload.op(_api(workload.layers), state, i)
        assert result.refused and workload.check(state, i, result) is None
        assert workload.check(state, i, workloads.QuoteResult(refused=False)) is not None

    def test_backward_recursion(self):
        workload = workloads.ChainBuild()
        state = _state(workload)
        chain, discount, priced = workload.op(_api(workload.layers), state, 0)
        assert workload.check(state, 0, (chain, discount, priced)) is None
        c_in, value = priced[1]
        assert workload.check(state, 0, (chain, discount, [priced[0], (c_in, value * (1 + 1e-11))])) is not None

    def test_simulation_z_scores_and_digests(self):
        workload = workloads.McLarge()
        state = _state(workload, seed=0)
        slot, ensemble, single, premiums, frequency = workload.op(_api(workload.layers), state, 0)
        assert workload.check(state, 0, (slot, ensemble, single, premiums, frequency)) is None
        off = dataclasses.replace(single, mean=single.mean + 5 * single.std_error)
        assert workload.check(state, 0, (slot, ensemble, off, premiums, frequency)) is not None
        off = [dataclasses.replace(premiums[0], mean=premiums[0].mean - 5 * premiums[0].std_error)]
        assert workload.check(state, 0, (slot, ensemble, single, off, frequency)) is not None
        paths = ensemble.paths.copy()
        paths[17, 40] = paths[17, 40] % synth.N_STATES + 1
        moved = dataclasses.replace(ensemble, paths=paths)
        assert workload.check(state, 0, (slot, moved, single, premiums, frequency)) is not None

    def test_golden_digest(self, tmp_path, monkeypatch):
        workload = workloads.McLarge()
        api = _api(workload.layers)
        assert workload.verify(api, ROOT) is None
        (tmp_path / "digests.json").write_text(json.dumps({workload.name: "0" * 64}))
        monkeypatch.setattr(workloads, "GOLDEN_DIR", tmp_path)
        assert workload.verify(api, ROOT) is not None
        outcomes = run.Outcomes()
        monkeypatch.setattr(workloads, "GOLDEN_DIR", tmp_path / "missing")
        outcomes.run(lambda _i: workload.verify(api, ROOT), lambda _i, reason: reason, "golden")
        assert (outcomes.attempted, outcomes.failed) == (1, 1)

    def test_frequencies(self):
        assert checks.frequencies(0.01, 0.003) is None
        assert checks.frequencies(0.016, 0.003) is not None

    def test_digest_ignores_integer_width(self):
        paths = np.array([[1, 2, 3], [1, 1, 4]], dtype=np.int16)
        assert checks.path_digest(paths) == checks.path_digest(paths.astype(np.int64))

    def test_cli_reports(self):
        workload = workloads.Cli()
        state = _state(workload)
        result = workload.traced_op(_api(workload.layers), state, 0)
        assert workload.check(state, 0, result) is None
        argv, code, stdout = result[2]
        assert workload.check(state, 0, [(argv, code, stdout.replace("0", "9", 1))]) is not None
        assert workload.check(state, 0, [(argv, 1, stdout)]) is not None


@pytest.mark.parametrize("name", ["quote-book", "chain-build", "mc-fixture", "mc-large"])
def test_every_workload_passes_its_checks(name):
    workload = workloads.WORKLOADS[name]()
    state = _state(workload, seed=1)
    api = _api(workload.layers)
    for i in range(2):
        assert workload.check(state, i, workload.op(api, state, i)) is None


def test_tracer_counts_spans_refusals_and_errors():
    tracer = tracing.Tracer()
    api = _api(("valuation",), tracer)
    for op_id, fails in ((1, False), (2, True)):
        tracer.op_id = op_id
        with pytest.raises(premval.ValidationError):
            api.valuation.constant_rate_discount(5)
        tracer.ops.append((op_id, 0, 10, not fails))
    tracer.spans.append(("valuation.period_premium", 0, 5, 1, "ValidationError"))
    metrics = tracing.layer_metrics(tracer, plain_ns=[10])
    assert metrics["valuation.constant_rate_discount.calls"] == 2
    assert metrics["valuation.errors"] == 2
    assert metrics["valuation.period_premium.refused"] == 1
    assert metrics["trace.overhead_share"] == 0.0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = run.end_to_end(workloads.QuoteBook(), 1.0, [0.1, 0.2, 0.3])
    assert [m["name"] for m in spec["end_to_end"]] == list(printed)
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _value, unit in printed.values()]
    layer = tracing.layer_metrics(tracing.Tracer(), plain_ns=[1])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_a_short_run_is_correct_and_sets_up_repeatedly():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quote-book", "--seed", "2",
                           "--seconds", "1", "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1000 and result["failed"] == 0
    setups = int(done.stdout.split("(median of ")[1].split()[0])
    assert setups >= run.SETUP_MIN_REPEATS


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quote-book", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
