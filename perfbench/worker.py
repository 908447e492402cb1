"""One fresh process: set up a workload and run one pass.

Usage (from the root of a checkout; run.py starts this):

    python3 perfbench/worker.py --workload scan-near --seed 3 --out DIR
        [--trace | --sample]

Prints one JSON object on its last stdout line.  Set-up is the time to
import mudeform and its dependencies and to build the seeded inputs; it is
measured from the top of this file, before any heavy import.  With
--sample the pass runs calib.Sampler, which times a reference work ten
times a second; the pass's times leave that work out, and the result
carries the slowdown it shows, by which run.py scales the pass's times.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def set_up(workload: str, seed: int):
    sys.path.insert(0, str(SRC))
    import mudeform
    import mudeform.cli  # noqa: F401  (the CLI is part of the driven API)
    if Path(mudeform.__file__).resolve().parent != SRC / "mudeform":
        raise SystemExit(f"imported mudeform from {mudeform.__file__}, "
                         f"not from {SRC}")
    inputs = workloads.GENERATORS[workload](seed)
    program_inputs = workloads.materialize(mudeform, workload, inputs)
    return mudeform, inputs, program_inputs, time.perf_counter() - _T0


def run_pass(md, workload: str, seed: int, program_inputs, out_dir: Path,
             traced: bool, sampled: bool) -> dict:
    tracer = sampler = None
    if traced:
        from tracer import Tracer
        tracer = Tracer(md.EvaluationError)
        tracer.install()
    if sampled:
        from calib import Sampler
        sampler = Sampler()
    p = workloads.Pass(tracer, sampler)
    tag = f"{workload}-seed{seed}" + ("-traced" if traced else "")
    if sampler is not None:
        sampler.start()
    t0 = p.clock()
    if workload == "proofs":
        run_dir = out_dir / tag
        run_dir.mkdir(exist_ok=True)
        cmds, results = workloads.run_proofs(md, program_inputs, run_dir, p)
        wall = p.clock() - t0
    else:
        rows, csv_text, json_text = workloads.run_scan(
            md, program_inputs, out_dir, tag, p)
        wall = p.clock() - t0
    if sampler is not None:
        sampler.stop()
    if workload == "proofs":
        workloads.check_proofs(cmds, results, p)
    else:
        workloads.check_scan(rows, csv_text, json_text, p)
    if tracer is not None:
        workloads.check_routes(tracer.estimates, p)
    result = {
        "wall_s": wall,
        "first_op_s": p.latencies[0],
        "latencies_s": p.latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(p.latencies),
        "failed": len(p.failed_ops),
        "failures": p.failures,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        spans = out_dir / f"{tag}-spans.tsv"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans"] = len(tracer.start)
    if sampler is not None:
        result["slowdown"] = sampler.slowdown()
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--sample", action="store_true")
    args = ap.parse_args()
    md, inputs, program_inputs, setup_s = set_up(args.workload, args.seed)
    result = {"setup_s": setup_s, "inputs": inputs}
    result.update(run_pass(md, args.workload, args.seed, program_inputs,
                           Path(args.out), args.trace, args.sample))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
