"""Self-test of the benchmark: the same seed gives the same work.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

For each workload, runs two traced passes of one seed, each in a fresh
process, and requires every deterministic work counter (tracer.COUNTERS)
and the generated inputs to be identical.  Also requires that another
seed gives other inputs.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
import tracer
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run.OUT.mkdir(exist_ok=True)
    ok = True
    for name in sorted(workloads.GENERATORS):
        if workloads.GENERATORS[name](args.seed) == workloads.GENERATORS[name](args.seed + 1):
            print(f"{name}: seeds {args.seed} and {args.seed + 1} give the same inputs")
            ok = False
        first, second = (run.worker(name, args.seed, "--trace",
                                    deadline=time.monotonic() + 600)
                         for _ in range(2))
        diffs = [f"{k}: {first['layers'][k][0]} != {second['layers'][k][0]}"
                 for k in tracer.COUNTERS
                 if first["layers"][k][0] != second["layers"][k][0]]
        if first["inputs"] != second["inputs"]:
            diffs.append("inputs differ")
        for d in diffs:
            print(f"{name}: {d}")
        ok = ok and not diffs
        print(f"{name}: {'identical' if not diffs else 'DIFFERENT'} "
              f"({len(tracer.COUNTERS)} counters, seed {args.seed})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
