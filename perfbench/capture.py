#!/usr/bin/env python3
"""Rewrite the benchmark's golden files from the current source.

    python3 perfbench/capture.py

* ``golden/cli.json``: stdout of every command of every ``cli`` session
  variant, keyed by its arguments;
* ``golden/digests.json``: for ``mc-fixture`` and ``mc-large``, the sha256
  of the paths simulated from the golden master seed on the golden chain.

Both come from the workloads' own code, the same that the benchmark checks
against these files.  Run it only for a change that is meant to alter the
reports or the paths; the benchmark fails every operation whose output
differs from these files.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, SRC
from tracing import import_premval, make_api
import workloads


def _write(name: str, data: dict) -> None:
    (workloads.GOLDEN_DIR / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(SRC))
    cli = workloads.Cli()
    state = cli.setup(None, {"root": ROOT, "sessions": [workloads.cli_session(*v) for v in workloads.CLI_VARIANTS]})
    golden = {}
    for i in range(len(state["sessions"])):
        for argv, code, stdout in cli.op(None, state, i):
            if code != 0:
                raise SystemExit(f"{' '.join(argv)}: exit code {code}")
            golden[" ".join(argv)] = stdout
    _write("cli.json", golden)

    digests = {}
    for cls in (workloads.McFixture, workloads.McLarge):
        workload = cls()
        api = make_api(import_premval(workload.layers), workload.layers)
        digests[workload.name] = workload.golden_digest(api, ROOT)
    _write("digests.json", digests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
