#!/usr/bin/env python3
"""premval benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload quote-book --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports premval from ``src/`` there
and fails, printing no result, when that source is missing.  Load is one
process running one operation at a time (closed loop, one client); only the
``cli`` workload starts children, one at a time.

``--trace 0`` times operations for ``--seconds`` seconds with no wrappers and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
operation pairs, one untraced and one with a span around every library call,
prints the per-layer metrics and the tracing overhead, and writes the spans
to ``.perfbench_out/``.  Either way every operation's output is checked (the
simulation workloads first check one golden simulation), and the last line of
stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
from array import array
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-ups are spread over the timed window: another one runs between two
#: operations whenever set-ups have taken less than SETUP_SHARE of the window
#: so far, and a run makes at least SETUP_MIN_REPEATS.  So the median set-up
#: time comes from the same stretch of machine time as the operations.
SETUP_SHARE, SETUP_MIN_REPEATS = 0.15, 5
FAILURES_SHOWN = 5


class Outcomes:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, op, check, i) -> tuple[int, bool]:
        """Run operation ``i``; return its duration in ns and whether it passed."""
        started = time.perf_counter_ns()
        try:
            result = op(i)
        except Exception as exc:  # an unexpected library error fails the operation, not the run
            elapsed = time.perf_counter_ns() - started
            reason = f"operation {i} raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter_ns() - started
            reason = check(i, result)
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < FAILURES_SHOWN:
                self.reasons.append(reason)
        return elapsed, not reason


class Runner:
    """A workload's current set-up, which each new set-up replaces."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.setup_s: list[float] = []
        self.modules = self.api = self.state = None
        self.set_up()

    def set_up(self) -> None:
        """Import premval afresh and run the workload's set-up, timed.

        The previous state is dropped first, so two never coexist in memory.
        Operations then run on the new modules and state.
        """
        from tracing import import_premval, make_api

        self.modules = self.api = self.state = None
        gc.collect()
        started = time.perf_counter()
        modules = import_premval(self.workload.layers)
        api = make_api(modules, self.workload.layers)
        state = self.workload.setup(api, self.inputs)
        self.setup_s.append(time.perf_counter() - started)
        self.modules, self.api, self.state = modules, api, state


def measure(runner: Runner, seconds: float, outcomes: Outcomes) -> array:
    """Untimed warm-up, then operations and set-ups until ``seconds`` have passed.

    Durations go into a flat array of doubles, so that the memory they take
    (8 bytes an operation) barely moves peak RSS with the operation count.
    """
    workload = runner.workload
    op = lambda i: workload.op(runner.api, runner.state, i)
    check = lambda i, result: workload.check(runner.state, i, result)
    for i in range(workload.warmup):
        outcomes.run(op, check, i)
    durations = array("d")
    i = workload.warmup
    setup_seconds = 0.0
    gc.collect()
    started = time.perf_counter()
    deadline = started + seconds
    while (now := time.perf_counter()) < deadline or len(durations) < workload.min_ops:
        if setup_seconds < SETUP_SHARE * (now - started):
            runner.set_up()
            setup_seconds += runner.setup_s[-1]
        elapsed, _ok = outcomes.run(op, check, i)
        durations.append(elapsed / 1e9)
        i += 1
    while len(runner.setup_s) < SETUP_MIN_REPEATS:
        runner.set_up()
    return durations


def percentile_ms(durations: list[float], q: int) -> float:
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def end_to_end(workload, setup_s: float, durations: list[float]) -> dict:
    """The gated end-to-end metrics, as (value, unit)."""
    who = resource.RUSAGE_CHILDREN if workload.children_rss else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p90_ms": (percentile_ms(durations, 90), "ms"),
    }


def figures(durations: list[float]) -> dict:
    """Further figures printed for reading, not gated: median and p99 latency."""
    return {"op_p50_ms": (percentile_ms(durations, 50), "ms"),
            "op_p99_ms": (percentile_ms(durations, 99), "ms")}


def traced(runner: Runner, seconds: float, outcomes: Outcomes, out_file: Path, meta: dict) -> dict:
    """Alternate untraced and traced operations; per-layer metrics from the spans."""
    from tracing import Tracer, layer_metrics, make_api

    workload, state, plain_api = runner.workload, runner.state, runner.api
    tracer = Tracer()
    traced_api = make_api(runner.modules, workload.layers, tracer)
    check = lambda i, result: workload.check(state, i, result)
    for i in range(workload.warmup):
        outcomes.run(lambda j: workload.traced_op(plain_api, state, j), check, i)
    plain_ns, traced_ns = [], []
    pairs = max(2, round(seconds * workload.trace_pairs_per_s))
    for i in range(workload.warmup, workload.warmup + 2 * pairs):
        if i % 2 == 0:
            elapsed, _ok = outcomes.run(lambda j: workload.traced_op(plain_api, state, j), check, i)
            plain_ns.append(elapsed)
            continue
        tracer.op_id = i
        started = time.perf_counter_ns()
        elapsed, ok = outcomes.run(lambda j: workload.traced_op(traced_api, state, j), check, i)
        tracer.ops.append((i, started, started + elapsed, ok))
        tracer.op_id = None
        traced_ns.append(elapsed)
    metrics = layer_metrics(tracer, plain_ns, workload.import_seconds(state))
    out_file.parent.mkdir(exist_ok=True)
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "ops": tracer.ops, "spans": tracer.spans}, handle)
    print(f"traced {len(traced_ns)} and untraced {len(plain_ns)} operations: mean "
          f"{sum(traced_ns) / len(traced_ns) / 1e6:.4f} ms traced vs "
          f"{sum(plain_ns) / len(plain_ns) / 1e6:.4f} ms untraced; spans in {out_file.relative_to(ROOT)}")
    return metrics


def _blas() -> tuple[str, "int | str"]:
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    threads: "int | str" = "unknown"
    for library in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            get = ctypes.CDLL(str(library)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    return name, threads


def _git_sha() -> str:
    """HEAD's commit from the .git directory, read as files; the benchmark may
    run in a plain copy of the tree, which has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, inputs, args) -> dict:
    import numpy as np

    blas, threads = _blas()
    return {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": threads, "nproc": os.cpu_count(), "git": _git_sha(),
            "sizes": workload.sizes(inputs)}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "premval" / "__init__.py").is_file():
        print(f"error: no premval source under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import premval

    if Path(premval.__file__).resolve().parent != SRC / "premval":
        print(f"error: imported premval from {premval.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    inputs = workload.generate(args.seed, ROOT)
    meta = metadata(workload, inputs, args)
    print(f"perfbench {workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    outcomes = Outcomes()
    if workload.verify is not None:  # before set-up, so that its chain never adds to the workload's in memory
        from tracing import import_premval, make_api

        api = make_api(import_premval(workload.layers), workload.layers)
        outcomes.run(lambda _i: workload.verify(api, ROOT), lambda _i, reason: reason, "golden")
    runner = Runner(workload, inputs)
    if args.trace:
        out_file = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.json"
        metrics = {name: (value, _unit(name)) for name, value in
                   traced(runner, args.seconds, outcomes, out_file, meta).items()}
        for name, (value, unit) in metrics.items():
            if value:
                print(f"{name} = {value:.6g} {unit}")
    else:
        durations = measure(runner, args.seconds, outcomes)
        metrics = end_to_end(workload, statistics.median(runner.setup_s), durations)
        shown = figures(durations)
        print(f"setup_s = {metrics['setup_s'][0]:.6f} s (median of {len(runner.setup_s)} set-ups)")
        for name in ("peak_rss_mb", "ops_per_s", "op_p90_ms"):
            print(f"{name} = {metrics[name][0]:.6g} {metrics[name][1]} (n={len(durations)} operations)")
        for name, (value, unit) in shown.items():
            print(f"{name} = {value:.6g} {unit} (n={len(durations)} operations; not gated)")
        for name, unit, generic, factor in workload.named:
            value = {**metrics, **shown}[generic][0] * factor
            print(f"{name} = {value:.6g} {unit} (n={len(durations)} operations; not gated)")
    for reason in outcomes.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(f"failed_ops_share = {outcomes.failed / outcomes.attempted:.6g} ratio "
          f"({outcomes.failed} failed of {outcomes.attempted} attempted)")
    print(json.dumps({"correct": outcomes.failed == 0, "attempted": outcomes.attempted, "failed": outcomes.failed,
                      "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}))
    return 0


def _unit(name: str) -> str:
    if name.endswith((".s", "busy_s")):
        return "s"
    return "ratio" if name.endswith("share") else "count"


if __name__ == "__main__":
    sys.exit(main())
