"""The mudeform benchmark: one command, one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan-near,scan-far,proofs} \
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with tracing off: passes of the
workload, each in a fresh worker process, one at a time (closed loop, one
client), until the next pass would not fit in S seconds (at least
MIN_PASSES).  Each pass samples a fixed reference work as it runs
(calib.py), and its times are scaled to the host's quiet speed by it.
Per-pass numbers, set-up included, are medians over the passes, and
latency percentiles pool the operations of all passes.

--trace 1 runs one untraced and one traced pass of the same inputs and
reports the per-layer metrics of the traced pass, plus the tracing
overhead.  Spans go to .bench_out/.

Every output is checked; a failed check counts as a failed operation and
makes the command exit 1.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150  # a run must end within 180 s
# One operation runs at a time, on one core: a BLAS thread pool as wide as
# the machine would slow by half whenever anything else held the other
# core, which the single-threaded reference of calib.py cannot see.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def worker(workload: str, seed: int, *flags: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(OUT), *flags]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, env={**os.environ, **WORKER_ENV})
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def at_quiet_speed(p: dict) -> dict:
    """The pass's times scaled to the host's quiet speed (calib.py)."""
    f = p["slowdown"]
    return {"setup_s": p["setup_s"] / f, "wall_s": p["wall_s"] / f,
            "first_op_s": p["first_op_s"] / f,
            "latencies_s": [x / f for x in p["latencies_s"]],
            "peak_rss_mb": p["peak_rss_mb"]}


def measure(workload: str, seed: int, seconds: float, hard_deadline: float):
    """End-to-end metrics from untraced passes in fresh processes."""
    start = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    while (len(passes) < workloads.MIN_PASSES[workload]
           or time.monotonic() - start + 1.1 * longest <= seconds):
        t = time.monotonic()
        passes.append(worker(workload, seed, "--sample", deadline=hard_deadline))
        longest = max(longest, time.monotonic() - t)
    # Times are scaled to the host's quiet speed by the reference work
    # sampled during each pass (calib.py), so every pass counts.
    scaled = [at_quiet_speed(p) for p in passes]
    lat = sorted(x for p in scaled for x in p["latencies_s"])
    pct = workloads.tail_percentile(workload)
    beyond = len(lat) - max(1, math.ceil(pct / 100 * len(lat)))
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in scaled), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in scaled), "s"),
        "first_op_s": (statistics.median(p["first_op_s"] for p in scaled), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, pct) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in scaled), "MB"),
    }
    notes = [f"passes {len(passes)} (fresh worker process each, closed loop, "
             f"1 client)",
             f"op_tail_ms is p{pct:g} of {len(lat)} operations "
             f"({beyond} beyond it)",
             "times are scaled to the host's quiet speed; per pass, as measured:",
             "pass slowdown " + " ".join(f"{p['slowdown']:.4f}" for p in passes),
             "pass setup_s " + " ".join(f"{p['setup_s']:.4f}" for p in passes),
             "pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in passes),
             "pass first_op_s " + " ".join(f"{p['first_op_s']:.4f}" for p in passes)]
    return passes, metrics, notes


def trace_run(workload: str, seed: int, hard_deadline: float):
    """Per-layer metrics from a traced pass, beside an untraced one."""
    plain = worker(workload, seed, deadline=hard_deadline)
    traced = worker(workload, seed, "--trace", deadline=hard_deadline)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace_overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "frac")
    notes = [f"traced pass wall {traced['wall_s']:.4f} s, untraced "
             f"{plain['wall_s']:.4f} s, {traced['spans']} spans in "
             f"{traced['spans_file']}"]
    return [plain, traced], metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    hard_deadline = time.monotonic() + WORKER_TIMEOUT_S
    if not (ROOT / "src" / "mudeform" / "__init__.py").is_file():
        print(f"error: no mudeform sources under {ROOT / 'src'}; run from the "
              "root of a mudeform checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            passes, metrics, notes = trace_run(args.workload, args.seed, hard_deadline)
        else:
            passes, metrics, notes = measure(args.workload, args.seed,
                                             args.seconds, hard_deadline)
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("inputs " + json.dumps(passes[0]["inputs"]))
    for line in notes:
        print(line)
    for p in passes:
        for msg in p["failures"]:
            print(f"FAILED {msg}")
    print(f"fail_frac {failed / attempted:.6g} frac ({failed}/{attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
