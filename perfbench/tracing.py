"""Access to premval's layers, plain or with spans around every call.

Workloads reach the library only through an ``Api``: one namespace per
layer (``api.lifetable.load_table`` ...).  Untraced, the namespaces hold the
library's own functions, so the measured calls carry no wrapper at all.
Traced, each function is wrapped to record a span (name, start, end, the
operation it ran in, the exception it raised if any) and the work counts
below.  Spans stay in memory until the run ends.

The benchmark's call sites never nest, so a span's self time is its
duration.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from types import SimpleNamespace

#: Public functions the workloads call, by layer (the premval module name).
FUNCTIONS = {
    "statemodel": ("parse_model_text", "shortest_arrival"),
    "lifetable": ("load_table", "infer_reflex_columns", "transition_sequence",
                  "unit_distribution", "distribution_matrix"),
    "cashflow": ("accelerated_benefit", "dread_disease_case", "build_cashflow", "premium_outflow"),
    "valuation": ("constant_rate_discount", "net_single_premium", "period_premium",
                  "equivalence_residual"),
    "oracle": ("simulate", "mc_pv", "mc_premium", "frequency_vs_distribution"),
    "cli": ("main",),
}

#: Work counts taken from a call's result: (metric name, count function).
WORK_COUNTS = {
    "lifetable.load_table": ("lifetable.load_table.cells",
                             lambda t: (t.n + 1) * (len(t.occupancy) + len(t.decrements))),
    "lifetable.transition_sequence": ("lifetable.transition_sequence.entries",
                                      lambda seq: seq.matrices.size),
    "oracle.simulate": ("oracle.simulate.steps", lambda e: e.n_paths * e.n),
}


def import_premval(layers) -> SimpleNamespace:
    """Import premval afresh and return ``pv`` plus the requested layer modules.

    Dropping premval's modules from ``sys.modules`` first makes every call
    pay the package's full import again (numpy, once loaded, stays loaded).
    """
    for name in [m for m in sys.modules if m == "premval" or m.startswith("premval.")]:
        del sys.modules[name]
    pv = importlib.import_module("premval")
    return SimpleNamespace(pv=pv, **{layer: importlib.import_module(f"premval.{layer}") for layer in layers})


class Tracer:
    """In-memory spans and work counts for one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, "int | None", "str | None"]] = []
        self.ops: list[tuple[int, int, int, bool]] = []
        self.counts: Counter = Counter()
        self.op_id: "int | None" = None

    def wrap(self, name: str, fn):
        spans, counted = self.spans, WORK_COUNTS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans.append((name, start, clock(), self.op_id, type(exc).__name__))
                raise
            spans.append((name, start, clock(), self.op_id, None))
            if counted:
                self.counts[counted[0]] += counted[1](result)
            return result

        return traced


def make_api(modules: SimpleNamespace, layers, tracer: "Tracer | None" = None) -> SimpleNamespace:
    """Namespaces of the layers' public functions, wrapped when ``tracer`` is given."""
    api = SimpleNamespace(pv=modules.pv, tracer=tracer)
    for layer in layers:
        module = getattr(modules, layer)
        functions = {name: getattr(module, name) for name in FUNCTIONS[layer]}
        if tracer is not None:
            functions = {name: tracer.wrap(f"{layer}.{name}", fn) for name, fn in functions.items()}
        setattr(api, layer, SimpleNamespace(**functions))
    return api


def layer_metrics(tracer: Tracer, plain_ns: list[int], import_s: float = 0.0) -> dict[str, float]:
    """Per-function and per-layer busy time, calls, errors and shares.

    Only spans inside traced operations count.  An exception from
    ``period_premium`` in an operation whose output check passed is an
    expected refusal; every other exception is an error.  ``plain_ns`` are
    the durations of the untraced operations run alongside, which give the
    tracing overhead; ``import_s`` is the measured cost of importing the CLI.
    """
    passed = {op_id: ok for op_id, _start, _end, ok in tracer.ops}
    op_seconds = sum(end - start for _op, start, end, _ok in tracer.ops) / 1e9
    metrics: dict[str, float] = {}
    for layer, names in FUNCTIONS.items():
        for name in names:
            metrics[f"{layer}.{name}.s"] = 0.0
            metrics[f"{layer}.{name}.calls"] = 0
        metrics[f"{layer}.errors"] = 0
    metrics["valuation.period_premium.refused"] = 0
    for name, start, end, op_id, raised in tracer.spans:
        if op_id not in passed:
            continue
        metrics[f"{name}.s"] += (end - start) / 1e9
        metrics[f"{name}.calls"] += 1
        if raised is not None:
            if passed[op_id] and name == "valuation.period_premium":
                metrics["valuation.period_premium.refused"] += 1
            else:
                metrics[f"{name.split('.')[0]}.errors"] += 1
    for layer, names in FUNCTIONS.items():
        busy = sum(metrics[f"{layer}.{name}.s"] for name in names)
        metrics[f"{layer}.busy_s"] = busy
        metrics[f"{layer}.share"] = busy / op_seconds if op_seconds > 0 else 0.0
        metrics[f"{layer}.calls"] = sum(metrics[f"{layer}.{name}.calls"] for name in names)
    for _fn, (metric, _count) in WORK_COUNTS.items():
        metrics[metric] = tracer.counts[metric]
    metrics["cli.import.s"] = import_s
    traced_ns = [end - start for _op, start, end, _ok in tracer.ops]
    metrics["trace.ops"] = len(traced_ns)
    metrics["trace.overhead_share"] = (
        sum(traced_ns) / len(traced_ns) / (sum(plain_ns) / len(plain_ns)) - 1.0 if traced_ns and plain_ns else 0.0)
    return metrics
