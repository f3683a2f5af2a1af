#!/usr/bin/env python3
"""Run every workload once, one after another, and summarise.

    python3 perfbench/run_all.py --seed 1 --seconds 20 --trace 0

Each workload runs in its own ``run.py`` process, whose output is passed
through.  The summary lists every metric by name with its unit; the exit code
is 1 when any operation of any workload failed its output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    summary, all_correct = [], True
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            summary.append(f"{name}: exited with code {done.returncode}")
            all_correct = False
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        all_correct &= result["correct"]
        summary.append(f"{name}: {'correct' if result['correct'] else 'INCORRECT'}, "
                       f"{result['failed']} of {result['attempted']} operations failed")
        summary += [f"  {metric} = {m['value']:.6g} {m['unit']}" for metric, m in result["metrics"].items()
                    if not args.trace or m["value"]]
    print("\n".join(["summary:"] + summary))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
