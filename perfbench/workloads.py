"""Seeded workload inputs, the operations that run them, and their checks.

Inputs are plain data (floats, tuples, strings) made from the seed alone, so
the program under test only ever receives the generated inputs.  Every
workload is a closed loop with one client: the next operation starts when
the previous one has returned.

Workloads (see README.md for why each was chosen):

scan-near  32 mu values x 6 pairs, one ``evaluate_pair`` per row, then CSV
           and JSON written with ``rows_to_csv``/``rows_to_json``; the
           first row is fixed.
scan-far   8 mu values x 5 pairs with 10 <= sup|A| sup|B| <= 18; the
           18-pair is always evaluated first, at a positive mu.
proofs     ``verify-identities`` at its defaults, ``check-operators`` at
           8 seeded mu values (default psi and one seeded psi each), and
           one ``--kappa 2`` run, all through ``mudeform.cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from pathlib import Path

# percentile ladder for op_tail_ms; each workload fixes the highest rung
# that leaves at least 10 samples beyond it in its guaranteed sample count
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)

MU_ZERO_TOL = 1e-9            # ACCEPTANCE 1: equality at mu = 0
INTERTWINING_TOL = 1e-6       # ACCEPTANCE 9


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _mu_values(rng: random.Random, lo_milli: int, hi_milli: int, count: int,
               exclude=(0,)) -> list[float]:
    """count distinct 3-decimal mu values in [lo, hi] (given in 1/1000),
    one from each of count equal strata, so every seed spreads its mu
    values (and their cost) over the range alike."""
    edges = [lo_milli + (hi_milli + 1 - lo_milli) * i // count
             for i in range(count + 1)]
    out = []
    for a, b in zip(edges, edges[1:]):
        m = rng.randrange(a, b)
        while m in exclude:
            m = rng.randrange(a, b)
        out.append(m / 1000)
    rng.shuffle(out)
    return out


def _reflect(rng: random.Random, ivs: list) -> list:
    return sorted((-hi, -lo) for lo, hi in ivs) if rng.random() < 0.5 else list(ivs)


def _set_with_sup(rng: random.Random, s: float, kind: str) -> list:
    """Interval endpoints on a grid of s/8 whose sup |x| is exactly s.

    Each kind has 2 panels (pieces on either side of the origin), so the
    seed moves the set without changing its cost class: "origin" is an
    interval containing the origin, "union" a two-interval union in which
    neither interval straddles it.  Half the sets are reflected.
    """
    step = s / 8
    if kind == "origin":
        ivs = [(-rng.randint(2, 4) * step, s)]
    else:
        i3 = rng.randint(0, 6)
        i1, i2 = rng.choice([(i1, i2) for i1 in range(-8, i3) for i2 in range(i1 + 1, i3)
                             if i2 <= 0 or i1 >= 0])
        ivs = [(i1 * step, i2 * step), (i3 * step, s)]
    return [(round(lo, 6) + 0.0, round(hi, 6) + 0.0) for lo, hi in _reflect(rng, ivs)]


# a * (9 / a) == 9 exactly in floats, 9 / a has 3 decimals, and neither
# factor is over 3x the other
NEAR_SUPS = (2.0, 2.25, 2.5, 3.0, 3.6, 4.0, 4.5)

DEFAULT_PAIRS = (  # mudeform.trace.DEFAULT_PAIRS, as plain data
    ([(1.0, 2.0)], [(0.5, 1.5)]),
    ([(0.25, 1.25)], [(0.25, 1.25)]),
    ([(0.5, 1.5)], [(2.0, 3.0)]),
    ([(3.0, 4.0)], [(0.25, 1.25)]),
    ([(2.0, 3.0)], [(1.0, 2.0)]),
)


# The first row is the same on every seed: the largest default pair
# (sup|A| sup|B| = 6) at mu = 1.0, a value of mudeform's default grid.  It
# pays the cold coefficients up to s = 6.  With a seeded first row,
# first_op_s depended on the seed by up to 20 % (README.md).
FIRST_MU = 1.0


def gen_scan_near(seed: int) -> dict:
    rng = _rng("scan-near", seed)
    rest = _mu_values(rng, -449, 2000, 30, exclude=(0, 1000)) + [0.0]
    rng.shuffle(rest)
    a = rng.choice(NEAR_SUPS)
    union, origin = _set_with_sup(rng, a, "union"), _set_with_sup(rng, 9 / a, "origin")
    seeded = (union, origin) if rng.random() < 0.5 else (origin, union)
    pairs = [DEFAULT_PAIRS[4], *DEFAULT_PAIRS[:4], seeded]
    return {"mu": [FIRST_MU] + rest, "pairs": pairs}


# scan-far pairs, one per sup|A| sup|B| of 18, 16, 14, 12 and 10, with
# fixed geometry: the quadrature cost of a row depends on the widths and
# positions of its sets, and free shapes made the latency percentiles of
# this 40-row workload depend on the seed more than on the program.  The
# seed reflects each set and picks which one plays A, which moves no cost.
# The 12-pair is a union x union so that its rows (18-30 ms) fill the gap
# between the 10-pair's and the 14/16-pairs' rows, where the median of the
# 40 rows falls; across that gap, op_p50_ms swung with a few rows.
FAR_PAIRS = (
    ([(1.5, 6.0)], [(-0.75, 3.0)]),                     # 18: interval x origin
    ([(-3.2, -1.6), (0.8, 4.0)], [(1.0, 4.0)]),         # 16: union x interval
    ([(-1.75, 3.5)], [(-4.0, -2.0), (0.5, 2.5)]),       # 14: origin x union
    ([(-3.0, -1.5), (0.75, 3.0)], [(-4.0, -2.0), (1.0, 2.0)]),  # 12: union x union
    ([(-2.5, -1.25), (0.0, 1.25)], [(-1.0, 4.0)]),      # 10: union x origin
)


def gen_scan_far(seed: int) -> dict:
    rng = _rng("scan-far", seed)
    neg = _mu_values(rng, -449, -1, 3)
    pos = _mu_values(rng, 1, 2000, 4)
    first, rest = pos[0], pos[1:] + neg + [0.0]
    rng.shuffle(rest)
    pairs = []
    for a, b in FAR_PAIRS:
        pair = (_reflect(rng, a), _reflect(rng, b))
        pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    # the 18-pair first, at a positive mu: the same cold cost on every seed
    return {"mu": [first] + rest, "pairs": pairs}


def _psi_literal(rng: random.Random) -> str:
    """A gauss-poly literal of degree 6 with small coefficients.

    The degree is pinned at the largest the workload allows, so every seed
    has the same cost class; the lower powers and coefficients are seeded.
    """
    degree = 6
    powers = sorted({degree, *rng.sample(range(degree), rng.randint(0, degree))},
                    reverse=True)
    terms = []
    for i, p in enumerate(powers):
        mono = "" if p == 0 else ("x" if p == 1 else f"x^{p}")
        if i == 0 and rng.random() < 0.3:  # complex lead, parenthesized
            terms.append(f"({rng.randint(1, 2)}{rng.choice('+-')}{rng.randint(1, 2)}i){mono}")
            continue
        c = rng.choice(("1", "2", "3", "1/2", "1/3"))
        sign = rng.choice("+-")
        body = (c if c != "1" or p == 0 else "") + mono
        terms.append(("-" if sign == "-" else "") + body if i == 0
                     else f"{sign} {body}")
    return "(" + " ".join(terms) + ") * gauss"


def gen_proofs(seed: int) -> dict:
    rng = _rng("proofs", seed)
    mus = _mu_values(rng, -449, 2000, 8, exclude=())
    return {"mu": mus, "psi": [_psi_literal(rng) for _ in mus]}


GENERATORS = {"scan-near": gen_scan_near, "scan-far": gen_scan_far,
              "proofs": gen_proofs}


def op_count(workload: str) -> int:
    """Operations in one pass; fixed per workload, independent of the seed."""
    inputs = GENERATORS[workload](0)
    if workload == "proofs":
        return 2 + 2 * len(inputs["mu"])
    return len(inputs["mu"]) * len(inputs["pairs"])


MIN_PASSES = {"scan-near": 2, "scan-far": 2, "proofs": 3}


def tail_percentile(workload: str) -> float:
    """Highest ladder percentile with >= 10 samples beyond it, given the
    samples every run is guaranteed (ops per pass x minimum passes)."""
    n = op_count(workload) * MIN_PASSES[workload]
    return max(p for p in TAIL_LADDER if n * (1 - p / 100) >= 10)


# --- running a pass -------------------------------------------------------------

class Pass:
    """Per-operation latencies and failures of one pass in one process.

    With a calib.Sampler, times leave out the reference work it runs.
    """

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.failures) < 20:
            self.failures.append(f"op {op}: {message}")

    def clock(self) -> float:
        """perf_counter() less the time spent in the sampler's work."""
        stolen = self.sampler.stolen_s if self.sampler is not None else 0.0
        return time.perf_counter() - stolen

    def timed(self, op: int, fn, *args):
        if self.tracer is not None:
            self.tracer.current_op = op
        t0 = self.clock()
        try:
            return fn(*args)
        except Exception as err:  # an op that raises is a failed op; go on
            self.fail(op, f"{type(err).__name__}: {err}")
            return None
        finally:
            self.latencies.append(self.clock() - t0)


def materialize(md, workload: str, inputs: dict):
    """Program objects for the inputs: part of set-up, not of any op."""
    if workload == "proofs":
        return inputs
    IntervalSet = md.IntervalSet
    ctxs = [md.MuContext(mu) for mu in inputs["mu"]]
    pairs = [(IntervalSet(tuple(map(tuple, a))), IntervalSet(tuple(map(tuple, b))))
             for a, b in inputs["pairs"]]
    return [(ctx, a, b) for ctx in ctxs for a, b in pairs]


def run_scan(md, rows_in, out_dir: Path, tag: str, p: Pass):
    """One evaluate_pair per row, then CSV and JSON written at the end."""
    trace = md.trace  # module attributes: the tracer may have patched them
    rows = [p.timed(i, trace.evaluate_pair, a, b, ctx)
            for i, (ctx, a, b) in enumerate(rows_in)]
    done = [r for r in rows if r is not None]
    csv_text = trace.rows_to_csv(done)
    json_text = trace.rows_to_json(done, config={"benchmark": tag})
    (out_dir / f"{tag}.csv").write_text(csv_text)
    (out_dir / f"{tag}.json").write_text(json_text)
    return rows, csv_text, json_text


def check_scan(rows, csv_text: str, json_text: str, p: Pass) -> None:
    """ACCEPTANCE 1 and 2 on every row, and round-trips of both outputs."""
    for op, r in enumerate(rows):
        if r is None:
            continue
        if r.method == "failed" or not all(
                math.isfinite(v) for v in (r.value, r.error, r.deviation)):
            p.fail(op, f"row not finite or failed: mu={r.mu} note={r.note}")
        elif r.mu == 0.0 and not abs(r.deviation) < MU_ZERO_TOL:
            p.fail(op, f"mu=0 deviation {r.deviation!r} not below {MU_ZERO_TOL}")
        elif r.mu > 0.0 and r.sign_resolved and not r.deviation < 0.0:
            p.fail(op, f"mu={r.mu} resolved deviation {r.deviation!r} not < 0")
    done = [r for r in rows if r is not None]
    parsed = list(csv.reader(io.StringIO(csv_text)))
    payload = json.loads(json_text)
    if len(parsed) != len(done) + 1 or len(payload["rows"]) != len(done):
        p.fail(len(rows) - 1, "CSV/JSON row counts do not match the rows evaluated")


def check_routes(estimates, p: Pass) -> None:
    """Where both routes converged, |quad - series| <= err_quad + err_series."""
    by_op: dict[int, dict] = {}
    for op, route, value, error in estimates:
        by_op.setdefault(op, {})[route] = (value, error)
    for op, routes in by_op.items():
        if len(routes) == 2:
            (vq, eq), (vs, es) = routes.values()
            if not abs(vq - vs) <= eq + es:
                p.fail(op, f"routes disagree: |{vq!r} - {vs!r}| > {eq:.3g} + {es:.3g}")


def proof_commands(inputs: dict, out_dir: Path) -> list[list[str]]:
    cmds = [["verify-identities", "--out", str(out_dir / "identities.json")]]
    for i, (mu, psi) in enumerate(zip(inputs["mu"], inputs["psi"])):
        cmds.append(["check-operators", "--mu", repr(mu),
                     "--out", str(out_dir / f"operators-{i}-default.json")])
        cmds.append(["check-operators", "--mu", repr(mu), "--psi", psi,
                     "--out", str(out_dir / f"operators-{i}-seeded.json")])
    cmds.append(["check-operators", "--kappa", "2",
                 "--out", str(out_dir / "operators-kappa2.json")])
    return cmds


def _cli_call(cli, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def run_proofs(md, inputs: dict, out_dir: Path, p: Pass):
    cli = md.cli
    cmds = proof_commands(inputs, out_dir)
    results = [p.timed(i, _cli_call, cli, argv) for i, argv in enumerate(cmds)]
    return cmds, results


def check_proofs(cmds, results, p: Pass) -> None:
    """Identities pass; CCR zero at kappa 1; intertwining < 1e-6; kappa 2
    reports the failure as demonstrated."""
    for op, (argv, res) in enumerate(zip(cmds, results)):
        if res is None:
            continue
        code, stderr = res
        if code != 0:
            p.fail(op, f"exit {code}: {' '.join(argv)}: {stderr.strip()}")
            continue
        try:
            payload = json.loads(Path(argv[argv.index("--out") + 1]).read_text())
        except (OSError, ValueError) as err:
            p.fail(op, f"unreadable output of {' '.join(argv)}: {err}")
            continue
        if argv[0] == "verify-identities":
            if not (payload["all_passed"] and payload["checks"]
                    and all(c["passed"] for c in payload["checks"])):
                p.fail(op, "an identity check failed")
        elif "--kappa" in argv:
            if payload["ccr_all_zero"] or "failure demonstrated" not in stderr:
                p.fail(op, "kappa=2 did not demonstrate the CCR failure")
        else:
            if not (payload["ccr_all_zero"]
                    and all(c["residual_zero"] for c in payload["ccr"])):
                p.fail(op, f"CCR residual nonzero: {' '.join(argv)}")
            for entry in payload["intertwining"]:
                gap = entry.get("max_discrepancy", math.inf)
                if not gap < INTERTWINING_TOL:
                    p.fail(op, f"intertwining {entry}: {' '.join(argv)}")
