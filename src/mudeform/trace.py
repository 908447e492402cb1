"""Two independent evaluators of Tr(E^Q(A) E^P(B)) and deviation scans.

The trace equals the double integral of |exp_mu(i k x)|^2 over A x B against
m_mu x m_mu.  Route one is a 1-D adaptive panel rule over A of the diagonal
of E^P(B), in closed form by Lommel's integral; route two substitutes the
rearranged even-power series, whose terms are products of closed-form
moments, and sums it in closed form: its term ratio is rational in j, so
the trace is a finite corner sum of 2F3 values over the half-line panels of
A and B, each distinct corner evaluated once per (mu, digits).  Where both
converge they must agree within their combined error estimates.  A scan
row comes from the closed form alone, its best estimate included where it
fails.  The quadrature runs at the fixed settings measure.QUAD_* and is
only the independent cross-check: the trace command, the tests and the
acceptance suite run both.  The trace's difference from
m_mu(A) m_mu(B) is the deviation of interest: provably negative for mu > 0
on sets of positive measure, conjecturally positive for -1/2 < mu < 0, and
zero in the classical case mu = 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .core import (KERNEL_ABS2_FLOOR, MuContext, exp_mu_imag_on_grid,
                   norm_const_mp)
from .errors import EvaluationError
from .intervals import IntervalSet, format_interval_set
from .measure import (QUAD_LEVELS, QUAD_NODES, QUAD_REL_TOL, _density_scale,
                      _positive_panels, measure, weighted_panel_rule)


ROUNDING_ULPS = 4  # float rounding of a trace value and of m(A) m(B)
_EPS = float(np.finfo(float).eps)  # a Python float keeps rows JSON-ready
_TINY = sys.float_info.min  # the least normal float


@dataclass
class TraceEstimate:
    """A trace value with its error estimate and the factorized reference.

    build forms product_measures = m(A) m(B) from the two measures, and
    deviation is the float subtraction value - product_measures; negative
    deviation is the mu > 0 strictness direction, positive the conjectured
    direction for -1/2 < mu < 0.  error_estimate includes the float
    rounding of value and product_measures, so a deviation of a few ulps is
    never reported as a resolved sign.
    """

    value: float
    error_estimate: float
    method: str  # "quadrature" | "moment_series" | "failed"
    product_measures: float

    @classmethod
    def build(cls, value: float, error: float, method: str, m_a: float,
              m_b: float) -> "TraceEstimate":
        product = m_a * m_b
        # the ulp of 0 covers a trace that underflows to a subnormal or 0
        rounding = ROUNDING_ULPS * (_EPS * (abs(value) + abs(product))
                                    + math.ulp(0.0))
        # a measure below the normal range is off by up to about its least
        # normal float, which the other measure scales in the product
        for m, other in ((m_a, m_b), (m_b, m_a)):
            if m < _TINY:
                rounding += ROUNDING_ULPS * _TINY * other
        return cls(value, error + rounding, method, product)

    @property
    def deviation(self) -> float:
        return self.value - self.product_measures

    @property
    def sign_resolved(self) -> bool:
        """True when the error is below a tenth of the deviation magnitude."""
        return self.error_estimate < abs(self.deviation) / 10.0


def _measures(A: IntervalSet, B: IntervalSet, ctx: MuContext):
    """m(A) and m(B) for TraceEstimate.build; both an exact 0 where A or B
    is empty, as the trace and m(A) m(B) are then, with nothing rounded."""
    m_a, m_b = measure(A, ctx), measure(B, ctx)
    return (0.0, 0.0) if A.is_empty or B.is_empty else (m_a, m_b)


def _start_panels(A: IntervalSet, B: IntervalSet) -> list[int]:
    """Level-0 panels per half-line panel of A, one per period of Phi_B."""
    s = max(abs(v) for iv in B.intervals for v in iv)
    return [1 + math.ceil((b - a) * s / math.pi)
            for a, b, _ in _positive_panels(A)]


def _diagonal(x: np.ndarray, B: IntervalSet, ctx: MuContext):
    """Phi_B at the nodes x, and its scale: the sum of |each term|."""
    p = 2.0 * ctx.mu + 1.0
    phi, scale = np.zeros_like(x), np.zeros_like(x)
    for c, d, _ in _positive_panels(B):
        for t, sign in ((d, 1.0), (c, -1.0)):
            if t > 0.0:
                T = np.abs(x) * t
                E = exp_mu_imag_on_grid(T, ctx)
                # Im(E) / T = j_nu(T) / p, and j_nu(T) = 1 - O(T^2) rounds
                # to 1 below sqrt(eps), where T / p may be subnormal
                cross = 2.0 * ctx.mu * E.real * np.divide(
                    E.imag, T, out=np.full_like(T, 1.0 / p),
                    where=T >= math.sqrt(_EPS))
                abs2 = E.real ** 2 + E.imag ** 2
                corner = _density_scale(ctx.mu, t)  # norm_const t^p
                phi += sign * corner * (abs2 - cross)
                scale += corner * (abs2 + np.abs(cross))
    return phi, scale


def trace_quadrature(A: IntervalSet, B: IntervalSet,
                     ctx: MuContext) -> TraceEstimate:
    """Tr as the integral over A of the diagonal Phi_B of E^P(B).

    With p = 2 mu + 1 and E = exp_mu(iT), Lommel's integral (DLMF 10.22.5)
    gives the integral of s^(2 mu) |E(s)|^2 over [0, T] as T^p H(T),
    H(T) = |E|^2 - 2 mu Re(E) Im(E) / T, so Phi_B(x) is norm times the sum
    of d^p H(|x| d) - c^p H(|x| c) over the half-line panels [c, d] of B.
    Tr is symmetric: A is the set needing fewer first panels.  Panels of
    QUAD_NODES nodes double, up to QUAD_LEVELS times, until a change from
    the second refinement on is within QUAD_REL_TOL |value| plus the floor
    KERNEL_ABS2_FLOOR |w| @ scale + ulp(0) (sum |phi| + nodes); that floor
    plus the larger of the last two changes (two levels can agree by
    chance) is the error estimate, and non-convergence raises
    EvaluationError carrying the best estimate.
    """
    measures = _measures(A, B, ctx)
    if A.is_empty or B.is_empty:
        return TraceEstimate.build(0.0, 0.0, "quadrature", *measures)
    start, swapped = _start_panels(A, B), _start_panels(B, A)
    if sum(swapped) < sum(start):
        A, B, start = B, A, swapped
    prev = None
    diff = math.inf
    for level in range(QUAD_LEVELS + 1):
        x, w = weighted_panel_rule(A, ctx, [n << level for n in start],
                                   QUAD_NODES)
        phi, scale = _diagonal(x, B, ctx)
        value = float(w @ phi)
        # subnormal weights and products each round by up to ulp(0)
        floor = (KERNEL_ABS2_FLOOR * float(np.abs(w) @ scale)
                 + math.ulp(0.0) * (float(np.abs(phi).sum()) + x.size))
        if prev is not None:
            last, diff = diff, abs(value - prev)
            if diff <= QUAD_REL_TOL * abs(value) + floor and level > 1:
                return TraceEstimate.build(value, max(diff, last) + floor,
                                           "quadrature", *measures)
        prev = value
    best = TraceEstimate.build(prev, diff + floor, "quadrature", *measures)
    raise EvaluationError(
        f"trace quadrature did not converge within {QUAD_LEVELS} "
        f"subdivisions (last refinement change {diff:.3g})", best=best)


SERIES_DPS = 20           # digits of the first pass of the corner sum
SERIES_CHECK_DIGITS = 10  # the rerun that estimates its error runs higher
SERIES_MAX_ROUNDS = 4     # both passes double their digits after each round


@lru_cache(maxsize=256)
def _series_params(mu: float, dps: int):
    """The 2F3 parameters mu, mu + 1/2, p = 2 mu + 1, mu + 3/2 and the scale
    (norm / p)^2 of F, at dps digits."""
    with mpmath.workdps(dps):
        mu = mpmath.mpf(mu)
        p = 2 * mu + 1
        return mu, mu + 0.5, p, mu + 1.5, (norm_const_mp(mu) / p) ** 2


@lru_cache(maxsize=256)
def _corner(mu: float, t, dps: int):
    """F(t) / scale = t^p 2F3(mu, mu+1/2; p, mu+3/2, mu+3/2; -t^2) at dps
    digits, keyed on the rounded product t so equal products share it."""
    a1, a2, p, b, _ = _series_params(mu, dps)
    with mpmath.workdps(dps):
        return t ** p * mpmath.hyp2f3(a1, a2, p, b, b, -t * t)


def _corner_sum(A: IntervalSet, B: IntervalSet, mu: float, dps: int):
    """sum of +-F(x y) over the corners of the half-line panels of A and B,
    at dps digits; F vanishes at the corners on an axis."""
    scale = _series_params(mu, dps)[-1]
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for a, b, _ in _positive_panels(A):
            for c, d, _ in _positive_panels(B):
                for x, y, sign in ((b, d, 1), (a, d, -1), (b, c, -1),
                                   (a, c, 1)):
                    if x > 0.0 and y > 0.0:
                        total += sign * _corner(mu, mpmath.mpf(x) * y, dps)
        return scale * total


def trace_moment_series(A: IntervalSet, B: IntervalSet,
                        ctx: MuContext) -> TraceEstimate:
    """The series sum_j (-1)^j c_j M_A(2j) M_B(2j), in closed form.

    With p = 2 mu + 1, M(2j) = norm x^(p+2j)/(p+2j) on [0, x] and the
    coefficient ratio c_j / c_{j-1} = (mu+j-1) / (j (2mu+j) (mu+j-1/2)) of
    core.even_series_result, the term ratio is rational in j: over
    [0,a] x [0,b] the series is F(ab), F(t) = norm^2 t^p / p^2
    2F3(mu, mu+1/2; p, mu+3/2, mu+3/2; -t^2).  The kernel is even, so a
    pair of half-line panels [a,b] x [c,d] gives F(bd) - F(ad) - F(bc) +
    F(ac).  The corner sum runs at SERIES_DPS digits and SERIES_CHECK_DIGITS
    higher, and the difference is the error estimate; past double precision
    the corners cancel, and both digit counts double, for at most
    SERIES_MAX_ROUNDS rounds.  _corner caches F(t) / scale per (mu, digits,
    t rounded at those digits) and _series_params the 2F3 parameters and
    scale per (mu, digits), so corners shared within a row or across rows
    are evaluated once, with the same bits as where they occur.
    """
    measures = _measures(A, B, ctx)
    for rounds in range(SERIES_MAX_ROUNDS):
        dps = SERIES_DPS * 2 ** rounds
        low = _corner_sum(A, B, ctx.mu, dps)
        high = _corner_sum(A, B, ctx.mu, dps + SERIES_CHECK_DIGITS)
        best = TraceEstimate.build(float(high), float(abs(high - low)),
                                   "moment_series", *measures)
        if abs(high - low) <= _EPS * abs(high):
            return best
    raise EvaluationError(
        f"the moment-series corners cancel beyond "
        f"{dps + SERIES_CHECK_DIGITS} digits", best=best)


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
        out = dict(vars(self))
        out["A"] = format_interval_set(out.pop("set_a"))
        out["B"] = format_interval_set(out.pop("set_b"))
        return out


def evaluate_pair(A: IntervalSet, B: IntervalSet, ctx: MuContext) -> ScanRow:
    """The scan row of one (A, B), from the moment series alone.

    Where the series raises, the row keeps its best estimate and the note
    its message.  A series error with no best comes from m(A) or m(B)
    overflowing a float, so that row is failed, with no product either.
    """
    try:
        est, note = trace_moment_series(A, B, ctx), ""
    except EvaluationError as err:
        est, note = err.best, str(err)
    if est is None:
        est = TraceEstimate(math.nan, math.inf, "failed", math.nan)
    return ScanRow(ctx.mu, A, B, est.method, est.value, est.error_estimate,
                   est.product_measures, est.deviation, est.sign_resolved,
                   A.contains_zero or B.contains_zero, note)


def deviation_scan(mu_grid, pairs) -> list[ScanRow]:
    """Deviation table over a mu grid and interval pairs.

    Row order is canonical (sorted by mu, then by the textual form of the
    pair) regardless of evaluation order.  Per-row failures are recorded in
    the row; the scan continues.
    """
    rows = []
    for mu in mu_grid:
        ctx = MuContext(mu)  # validates mu > -1/2
        for A, B in pairs:
            rows.append(evaluate_pair(A, B, ctx))
    rows.sort(key=lambda r: (r.mu, format_interval_set(r.set_a),
                             format_interval_set(r.set_b)))
    return rows


CSV_COLUMNS = ("mu", "A", "B", "method", "value", "error", "product",
               "deviation", "sign_resolved", "contains_zero")


def _csv_cell(v) -> str:
    """repr for a number, text as it is, a boolean in lower case."""
    return (str(v).lower() if isinstance(v, bool)
            else v if isinstance(v, str) else repr(v))


def rows_to_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_csv_cell(d[c]) for c in CSV_COLUMNS]
                     for d in map(ScanRow.to_dict, rows))
    return buf.getvalue()


def rows_to_json(rows: list[ScanRow], config: dict) -> str:
    payload = {
        "schema_version": 1,
        "rows": [r.to_dict() for r in rows],
        "config": config,
    }
    return json.dumps(payload, sort_keys=True, indent=2)
