"""Two independent evaluators of Tr(E^Q(A) E^P(B)) and deviation scans.

The trace equals the double integral of |exp_mu(i k x)|^2 over A x B against
m_mu x m_mu.  Route one is tensor-product adaptive quadrature of that
integral; route two substitutes the rearranged even-power series and
reduces the trace to a single alternating sum over products of closed-form
moments with exact rational coefficients.  Where both converge they must
agree within their combined error estimates; their difference from
m_mu(A) m_mu(B) is the deviation of interest: provably negative for
mu > 0 on sets of positive measure, conjecturally positive for
-1/2 < mu < 0, and zero in the classical case mu = 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .core import MuContext, abs2_grid_error_bound, abs2_on_grid, even_coeff
from .errors import EvaluationError
from .intervals import IntervalSet, format_interval_set
from .measure import measure, moment_mp, weighted_panel_rule


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive tensor-product quadrature."""

    nodes_per_panel: int = 12
    max_subdivisions: int = 8
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.nodes_per_panel < 1 or self.max_subdivisions < 1:
            raise ValueError("nodes_per_panel and max_subdivisions must be >= 1")
        if not (0.0 < self.rel_tol < 1.0 and 0.0 < self.abs_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")


ROUNDING_ULPS = 4  # float rounding of a trace value and of m(A) m(B)
_EPS = float(np.finfo(float).eps)  # a Python float keeps rows JSON-ready


@dataclass
class TraceEstimate:
    """A trace value with its error estimate and the factorized reference.

    deviation = value - product_measures, stored exactly as that float
    subtraction; negative deviation is the mu > 0 strictness direction,
    positive the conjectured direction for -1/2 < mu < 0.  error_estimate
    includes the float rounding of value and product_measures, so a
    deviation of a few ulps is never reported as a resolved sign.
    """

    value: float
    error_estimate: float
    method: str  # "quadrature" | "moment_series"
    product_measures: float
    deviation: float

    @classmethod
    def build(cls, value: float, error: float, method: str,
              product: float) -> "TraceEstimate":
        rounding = ROUNDING_ULPS * _EPS * (abs(value) + abs(product))
        return cls(value=value, error_estimate=error + rounding, method=method,
                   product_measures=product, deviation=value - product)

    @property
    def sign_resolved(self) -> bool:
        """True when the error is below a tenth of the deviation magnitude."""
        return self.error_estimate < abs(self.deviation) / 10.0


def trace_quadrature(A: IntervalSet, B: IntervalSet, ctx: MuContext,
                     spec: QuadratureSpec = QuadratureSpec()) -> TraceEstimate:
    """Tensor-product adaptive quadrature of the trace double integral.

    Panels are refined dyadically until two successive levels agree within
    the spec tolerances; the refinement difference plus a per-point
    integrand error floor forms the error estimate.  Non-convergence
    raises EvaluationError carrying the best estimate.
    """
    product = measure(A, ctx) * measure(B, ctx)
    if A.is_empty or B.is_empty:
        return TraceEstimate.build(0.0, 0.0, "quadrature", product)
    prev = None
    diff = math.inf
    for level in range(spec.max_subdivisions + 1):
        panels = 2 ** level
        x, wx = weighted_panel_rule(A, ctx, panels, spec.nodes_per_panel)
        k, wk = weighted_panel_rule(B, ctx, panels, spec.nodes_per_panel)
        F = abs2_on_grid(np.outer(x, k), ctx)
        value = float(wx @ F @ wk)
        floor = abs2_grid_error_bound(float(F.max())) * product
        if prev is not None:
            diff = abs(value - prev)
            if diff <= max(spec.abs_tol, spec.rel_tol * abs(value)):
                return TraceEstimate.build(
                    value, diff + floor, "quadrature", product)
        prev = value
    best = TraceEstimate.build(prev, diff + floor, "quadrature", product)
    raise EvaluationError(
        f"trace quadrature did not converge within {spec.max_subdivisions} "
        f"subdivisions (last refinement change {diff:.3g})", best=best)


MOMENT_SERIES_MAX_TERMS = 200


def trace_moment_series(A: IntervalSet, B: IntervalSet, ctx: MuContext,
                        tol: float = 1e-13) -> TraceEstimate:
    """The trace as sum_j (-1)^j p_{2j,mu}(-1,1)/gamma_mu(2j) M_A(2j) M_B(2j).

    Coefficients are exact rationals; moments are closed-form.  The
    alternating sum cancels like e^(2 sup|A| sup|B|), so the whole sum runs
    in mpmath at a working precision chosen from that bound.  A hard cap of
    200 terms signals failure rather than silently truncating.
    """
    product = measure(A, ctx) * measure(B, ctx)
    if A.is_empty or B.is_empty:
        return TraceEstimate.build(0.0, 0.0, "moment_series", product)
    s_max = A.sup_abs * B.sup_abs
    # the alternating terms only start decaying near j ~ s_max, so past
    # this point the 200-term cap is guaranteed to fire; fail fast
    if s_max > 0.75 * MOMENT_SERIES_MAX_TERMS:
        raise EvaluationError(
            f"moment series cannot converge within {MOMENT_SERIES_MAX_TERMS} "
            f"terms for sup|A| sup|B| = {s_max:.3g}; use trace_quadrature")
    muf = ctx.mu_fraction
    # digits: working digits + cancellation growth + headroom
    dps = 25 + int(0.87 * 2.0 * s_max) + 10
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        peak = mpmath.mpf(0)
        consecutive = 0
        stopped_at = None
        for j in range(MOMENT_SERIES_MAX_TERMS + 1):
            c = even_coeff(j, muf)
            term = ((-1) ** j * mpmath.mpf(c.numerator) / c.denominator
                    * moment_mp(A, ctx.mu, 2 * j) * moment_mp(B, ctx.mu, 2 * j))
            total += term
            peak = max(peak, abs(total))
            if abs(term) <= tol * max(abs(total), mpmath.mpf("1e-300")) \
                    and 2 * j > s_max:
                consecutive += 1
                if consecutive >= 3:
                    stopped_at = j
                    break
            else:
                consecutive = 0
        value = float(total)
        tail = float(abs(term))
        rounding = float(peak) * 10.0 ** (5 - dps)
        if stopped_at is None:
            best = TraceEstimate.build(value, tail + rounding,
                                       "moment_series", product)
            raise EvaluationError(
                f"moment series hit the {MOMENT_SERIES_MAX_TERMS}-term cap; "
                "use trace_quadrature for sets this far from the origin",
                best=best)
    return TraceEstimate.build(value, tail + rounding, "moment_series", product)


# --- scans --------------------------------------------------------------------

DEFAULT_MU_GRID = (-0.45, -0.4, -0.3, -0.2, -0.1, -0.05,
                   0.0, 0.05, 0.25, 0.5, 1.0, 2.0)

DEFAULT_PAIRS = (
    (IntervalSet.of((1.0, 2.0)), IntervalSet.of((0.5, 1.5))),
    (IntervalSet.of((0.25, 1.25)), IntervalSet.of((0.25, 1.25))),
    (IntervalSet.of((0.5, 1.5)), IntervalSet.of((2.0, 3.0))),
    (IntervalSet.of((3.0, 4.0)), IntervalSet.of((0.25, 1.25))),
    (IntervalSet.of((2.0, 3.0)), IntervalSet.of((1.0, 2.0))),
)


@dataclass
class ScanRow:
    mu: float
    set_a: IntervalSet
    set_b: IntervalSet
    method: str
    value: float
    error: float
    product: float
    deviation: float
    sign_resolved: bool
    contains_zero: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "A": format_interval_set(self.set_a),
            "B": format_interval_set(self.set_b),
            "method": self.method,
            "value": self.value,
            "error": self.error,
            "product": self.product,
            "deviation": self.deviation,
            "sign_resolved": self.sign_resolved,
            "contains_zero": self.contains_zero,
            "note": self.note,
        }


def evaluate_pair(A: IntervalSet, B: IntervalSet, ctx: MuContext,
                  spec: QuadratureSpec = QuadratureSpec()) -> ScanRow:
    """Run both evaluators on one (A, B); keep the smaller-error result."""
    estimates = []
    note = ""
    for run in (lambda: trace_quadrature(A, B, ctx, spec),
                lambda: trace_moment_series(A, B, ctx)):
        try:
            estimates.append(run())
        except EvaluationError as err:
            if err.best is not None:
                estimates.append(err.best)
            note = (note + "; " if note else "") + str(err)
    if not estimates:
        return ScanRow(ctx.mu, A, B, "failed", math.nan, math.inf,
                       measure(A, ctx) * measure(B, ctx), math.nan, False,
                       A.contains_zero or B.contains_zero, note)
    best = min(estimates, key=lambda e: e.error_estimate)
    return ScanRow(ctx.mu, A, B, best.method, best.value, best.error_estimate,
                   best.product_measures, best.deviation, best.sign_resolved,
                   A.contains_zero or B.contains_zero, note)


def deviation_scan(mu_grid=DEFAULT_MU_GRID, pairs=DEFAULT_PAIRS,
                   spec: QuadratureSpec = QuadratureSpec()) -> list[ScanRow]:
    """Deviation table over a mu grid and interval pairs.

    Row order is canonical (sorted by mu, then by the textual form of the
    pair) regardless of evaluation order.  Per-row failures are recorded in
    the row; the scan continues.
    """
    rows = []
    for mu in mu_grid:
        ctx = MuContext(mu)  # validates mu > -1/2
        for A, B in pairs:
            rows.append(evaluate_pair(A, B, ctx, spec))
    rows.sort(key=lambda r: (r.mu, format_interval_set(r.set_a),
                             format_interval_set(r.set_b)))
    return rows


CSV_COLUMNS = ("mu", "A", "B", "method", "value", "error", "product",
               "deviation", "sign_resolved", "contains_zero")


def rows_to_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        d = r.to_dict()
        writer.writerow([repr(d["mu"]), d["A"], d["B"], d["method"],
                         repr(d["value"]), repr(d["error"]), repr(d["product"]),
                         repr(d["deviation"]), str(d["sign_resolved"]).lower(),
                         str(d["contains_zero"]).lower()])
    return buf.getvalue()


def rows_to_json(rows: list[ScanRow], config: dict | None = None) -> str:
    payload = {
        "schema_version": 1,
        "rows": [r.to_dict() for r in rows],
    }
    if config is not None:
        payload["config"] = config
    return json.dumps(payload, sort_keys=True, indent=2)
