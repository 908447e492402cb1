"""Two independent evaluators of Tr(E^Q(A) E^P(B)) and deviation scans.

Tr is the double integral of |exp_mu(i k x)|^2 over A x B against m_mu x
m_mu.  The quadrature integrates over A the diagonal of E^P(B), in closed
form by Lommel's integral.  The moment series sums the even-power series in
closed form, a corner sum of 2F3 values over the half-line panels of A and
B that also gives m_mu(A) m_mu(B).  Its hot path works on libmp values at
an explicit precision, with no mpf object per corner, and sums each 2F3 in
fixed point up to t = prec bits; mpmath.hyp2f3 sums beyond, directly (at
times misrounding by ulps) up to t of about 724 and asymptotically above.
The corners t = x y are the same at every mu, so a scan does their mu-free
work once: the corner list per (A, B, prec), and z = -t^2, float(t), the
first guard and log t per (t, prec).  Per (mu, t, digits) only t^p and the
2F3's terms are computed, and per row the checks on the two corner sums,
also on libmp values.  Every cache is bounded, and holds bit for bit what
the same call would compute cold.
Where both routes converge they must agree within their combined error
estimates.  A scan row comes from the series alone, its best estimate
included where it fails.  The quadrature, at the fixed settings
measure.QUAD_*, is the cross-check run by the trace command, the tests and
the acceptance suite.  The deviation of interest, Tr - m_mu(A) m_mu(B), is
provably negative for mu > 0 on sets of positive measure, conjecturally
positive for -1/2 < mu < 0, and zero in the classical case mu = 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import libmp

from .core import (KERNEL_ABS2_FLOOR, MuContext, exp_mu_imag_on_grid,
                   norm_const_mp)
from .errors import EvaluationError
from .intervals import IntervalSet, format_interval_set
from .measure import (QUAD_LEVELS, QUAD_NODES, QUAD_REL_TOL, _density_scale,
                      _positive_panels, weighted_panel_rule)


ROUNDING_ULPS = 4  # float rounding of a trace value and of m(A) m(B)
_EPS = float(np.finfo(float).eps)  # a Python float keeps rows JSON-ready
_MAXEXP = np.finfo(float).maxexp  # m(A) m(B) at or past 2^_MAXEXP overflows


@dataclass
class TraceEstimate:
    """A trace value with its error estimate and m(A) m(B).

    product_measures is the series' corner sum, rounded once; deviation =
    value - product_measures is negative in the proven mu > 0 direction,
    positive in the conjectured mu < 0 one.  build adds the rounding of
    both to error_estimate, so a few ulps are never a resolved sign.
    """

    value: float
    error_estimate: float
    method: str  # "quadrature" | "moment_series" | "failed"
    product_measures: float

    @classmethod
    def build(cls, value: float, error: float, method: str,
              product: float) -> "TraceEstimate":
        # ulp(0) covers a value or product that underflowed to 0
        rounding = ROUNDING_ULPS * (_EPS * (abs(value) + abs(product))
                                    + math.ulp(0.0))
        return cls(value, error + rounding, method, product)

    @property
    def deviation(self) -> float:
        return self.value - self.product_measures

    @property
    def sign_resolved(self) -> bool:
        """True when the error is below a tenth of the deviation magnitude."""
        return self.error_estimate < abs(self.deviation) / 10.0


def _sup(S: IntervalSet) -> float:
    """sup |x| over S, whose intervals are sorted; 0 for the empty set."""
    return max(-S.intervals[0][0], S.intervals[-1][1]) if S.intervals else 0.0


def _start_panels(A: IntervalSet, B: IntervalSet) -> list[int]:
    """Level-0 panels per half-line panel of A, one per period of Phi_B."""
    return [1 + math.ceil((b - a) * _sup(B) / math.pi)
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
                corner = _density_scale(ctx, t)  # norm_const t^p
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
    KERNEL_ABS2_FLOOR |w| @ scale + ulp(0) (sum |phi| + sum |w| + nodes);
    that floor plus the larger of the last two changes (two levels can
    agree by chance) is the error estimate, and non-convergence raises
    EvaluationError carrying the best estimate.  m(A) m(B) is the moment
    series', or its best estimate's where it fails.
    """
    try:
        product = trace_moment_series(A, B, ctx).product_measures
    except EvaluationError as err:
        if err.best is None:  # m(A) m(B) overflows a float
            raise
        product = err.best.product_measures
    if math.inf in (_density_scale(ctx, _sup(S)) for S in (A, B)):
        raise EvaluationError(f"the density of m_mu on {A} or {B} at "
                              f"mu = {ctx.mu} overflows a float")
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
        # an underflowed or subnormal w or phi is off by ulp(0) per unit of
        # the other factor, and a subnormal product w phi by ulp(0)
        floor = (KERNEL_ABS2_FLOOR * float(np.abs(w) @ scale)
                 + math.ulp(0.0) * (float(np.abs(phi).sum())
                                    + float(np.abs(w).sum()) + x.size))
        if prev is not None:
            last, diff = diff, abs(value - prev)
            if diff <= QUAD_REL_TOL * abs(value) + floor and level > 1:
                return TraceEstimate.build(value, max(diff, last) + floor,
                                           "quadrature", product)
        prev = value
    best = TraceEstimate.build(prev, diff + floor, "quadrature", product)
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
def _ratio_table(mu: float) -> list:
    """A box holding (W, R), R[j] = floor(r_j 2^W) for the corner 2F3's term
    ratios r_j = term_{j+1} / (z term_j) at mu, grown by _fixed_2f3."""
    return [(0, ())]


def _ratios(mu: float, bits: int, start: int, stop: int) -> tuple:
    """floor(r_j 2^bits) for start <= j < stop, exact in mu = m/q:
    r_j = 2q (m+jq) (2m+(2j+1)q) / ((2m+(j+1)q) (2m+(2j+3)q)^2 (j+1))."""
    m, q = mu.as_integer_ratio()
    return tuple((2 * q * (m + j * q) * (2 * m + (2 * j + 1) * q) << bits)
                 // ((2 * m + (j + 1) * q) * (2 * m + (2 * j + 3) * q) ** 2
                     * (j + 1)) for j in range(start, stop))


def _stop_bound(et: float, wp: int) -> int:
    """An index past the first j with 2j ln(j / et) >= h = (wp - 25) ln 2,
    from where the term bound (e t / j)^(2j) is below 2^(25 - wp).  That
    function is convex and increasing past j = t, and already >= h at the
    start e et + (wp - 25) / 2, so each of three Newton steps, j <- (j +
    h / 2) / (1 + ln(j / et)), stays at or above its root, which lies
    beyond the climb j <= e t; + 1 covers rounding."""
    h, J = (wp - 25) * math.log(2), math.e * et + (wp - 25) / 2
    for _ in range(3):
        J = (J + h / 2) / (1 + math.log(J / et))
    return math.ceil(J) + 1


@lru_cache(maxsize=256)
def _fixed_start(t: tuple, prec: int) -> tuple:
    """The mu-free start of _fixed_2f3 at the corner t: z = -t^2 at prec
    bits, float(t) rounded to nearest, and the first guard."""
    ft = libmp.to_float(t, rnd="n")
    return (libmp.mpf_mul(libmp.mpf_neg(t), t, prec, "n"), ft,
            50 + math.ceil(2.0 * ft / math.log(2.0)))


def _fixed_2f3(mu: float, t: tuple, prec: int) -> tuple:
    """2F3(mu, mu+1/2; 2mu+1, mu+3/2, mu+3/2; -t^2) in libmp at prec bits,
    summed as mpmath's hypsum does, in integers at wp bits.

    The terms peak below about e^(2t), so wp carries ceil(2t / ln 2) bits
    beyond mpmath's 50 from the start.  z = -t^2, float(t) and that first
    guard are the same at every mu, and are read from _fixed_start, cached
    per (t, prec); the term loop is all that runs per mu.  As in hypsum
    the sum stops at the first term below 2^(25 - wp), reruns with twice
    the guard where it cancels to within 30 bits of it (F > 0, a trace of
    a positive kernel, so the reruns end), and is rounded once.  The
    ratios come from one table per mu at W >= wp bits, shifted to
    floor(r_j 2^wp), which is the same for every W, so the order of calls
    cannot change a result.  As |r_j z| < t^2 / (j+1)^2, |term_j| <
    (e t / j)^(2j), so the sum stops within _stop_bound(e t, wp) ratios (a
    t below float range counts as 1e-300, which bounds it).  A table that
    runs out first is grown to that bound and the pass restarts; one that
    runs out at the bound is a fault, and raises.
    """
    (z, ft, guard), box = _fixed_start(t, prec), _ratio_table(mu)
    while True:
        wp = prec + guard
        bits, table = box[0]
        if bits < wp:  # rebuild with room for the rerun's doubled guard
            bits, table = 2 * wp, ()
        shift, double, Z = bits - wp, 2 * wp, libmp.to_fixed(z, wp)
        S = T = 1 << wp
        for R in table:
            T = T * Z * (R >> shift) >> double
            S += T
            if -(1 << 25) < T < 1 << 25:  # a term below 2^(25 - wp)
                break
        else:  # grow the table to the bound and sum again
            need = _stop_bound(math.e * max(ft, 1e-300), wp)
            if len(table) >= need:
                raise RuntimeError(f"2F3 ratio table of {len(table)} entries "
                                   f"ran out before a term fell below "
                                   f"2^(25 - {wp})")
            box[0] = (bits, table + _ratios(mu, bits, len(table), need))
            continue
        if wp - S.bit_length() < guard - 30:
            return libmp.from_man_exp(S, -wp, prec, "n")
        guard *= 2


@lru_cache(maxsize=256)
def _log(t: tuple, prec: int) -> tuple:
    """log t at prec + 10 bits, as libmp.mpf_pow takes it for t^p."""
    return libmp.mpf_log(t, prec + 10, "n")


@lru_cache(maxsize=256)
def _corner(mu: float, t: tuple, dps: int):
    """t^p and t^p 2F3(mu, mu+1/2; p, mu+3/2, mu+3/2; -t^2) in libmp at dps
    digits, keyed on the rounded product t so equal products share them:
    by _fixed_2f3 up to t = prec bits, by mpmath.hyp2f3 beyond, directly
    (misrounding by ulps at times) below t = 724 and asymptotically above.

    t^p is libmp.mpf_pow's.  For p neither an integer nor a half-integer
    that is exp(p log t), whose log t, the same at every mu, is cached per
    (t, prec); other p call mpf_pow and take no log."""
    (a1, a2, p, b, _), prec = _series_params(mu, dps), libmp.dps_to_prec(dps)
    if p._mpf_[2] < -1:  # mpf_pow's general branch, step for step
        power = libmp.mpf_exp(libmp.mpf_mul(p._mpf_, _log(t, prec)), prec, "n")
    else:
        power = libmp.mpf_pow(t, p._mpf_, prec, "n")
    if libmp.mpf_le(t, libmp.from_int(prec)):
        value = _fixed_2f3(mu, t, prec)
    else:
        with mpmath.workdps(dps):
            t = mpmath.mp.make_mpf(t)
            value = mpmath.hyp2f3(a1, a2, p, b, b, -t * t)._mpf_
    return power, libmp.mpf_mul(power, value, prec, "n")


@lru_cache(maxsize=256)
def _corners(A: IntervalSet, B: IntervalSet, prec: int) -> tuple:
    """The corners of the half-line panels of A and B, the same at every
    mu: each product t = x y (exact in 106 bits) rounded once at prec bits,
    with libmp.mpf_add or mpf_sub for its sign.  Corners at 0 drop."""
    corners = []
    for a, b, _ in _positive_panels(A):
        for c, d, _ in _positive_panels(B):
            for x, y, add in ((b, d, libmp.mpf_add), (a, d, libmp.mpf_sub),
                              (b, c, libmp.mpf_sub), (a, c, libmp.mpf_add)):
                if x > 0.0 and y > 0.0:
                    (m, u), (n, v) = x.as_integer_ratio(), y.as_integer_ratio()
                    corners.append((libmp.from_man_exp(
                        m * n, 1 - (u * v).bit_length(), prec, "n"), add))
    return tuple(corners)


def _corner_sum(A: IntervalSet, B: IntervalSet, mu: float, dps: int):
    """m(A) m(B) and Tr as mpf at dps digits, the sums of +-scale t^p and
    +-F(t) over the corners t = x y of the half-line panels of A and B,
    whose list is built once per (A, B, prec)."""
    scale, prec = _series_params(mu, dps)[-1]._mpf_, libmp.dps_to_prec(dps)
    product = trace = libmp.fzero
    for t, add in _corners(A, B, prec):
        power, value = _corner(mu, t, dps)
        product = add(product, power, prec, "n")
        trace = add(trace, value, prec, "n")
    return (mpmath.mp.make_mpf(libmp.mpf_mul(scale, product, prec, "n")),
            mpmath.mp.make_mpf(libmp.mpf_mul(scale, trace, prec, "n")))


def _gap(x: tuple, y: tuple, prec: int) -> tuple:
    """|x - y| at prec bits, rounded as abs(mpf - mpf) rounds it."""
    return libmp.mpf_abs(libmp.mpf_sub(x, y, prec, "n"), prec, "n")


def trace_moment_series(A: IntervalSet, B: IntervalSet,
                        ctx: MuContext) -> TraceEstimate:
    """The series sum_j (-1)^j c_j M_A(2j) M_B(2j), in closed form.

    With p = 2 mu + 1, M(2j) = norm x^(p+2j)/(p+2j) on [0, x] and the
    coefficient ratio c_j / c_{j-1} = (mu+j-1) / (j (2mu+j) (mu+j-1/2)) of
    core.even_series_result, the term ratio is rational in j: over
    [0,a] x [0,b] the series is F(ab), F(t) = scale t^p 2F3(mu, mu+1/2; p,
    mu+3/2, mu+3/2; -t^2), scale = (norm / p)^2, whose j = 0 term scale t^p
    is m([0,a]) m([0,b]).  The kernel is even, so panels [a,b] x [c,d] give
    F(bd) - F(ad) - F(bc) + F(ac), and m(A) m(B) likewise.  Both sums run
    at SERIES_DPS digits and SERIES_CHECK_DIGITS higher, the trace's
    difference is the error estimate, and where the corners cancel past
    double precision both digit counts double until both sums settle, for
    at most SERIES_MAX_ROUNDS rounds.  A pair whose largest corner's
    m(A) m(B) overflows a float fails before any 2F3, which there may take
    seconds or not converge.
    """
    _, man, exp, _ = _series_params(ctx.mu, SERIES_DPS)[-1]._mpf_  # scale
    ends = _sup(A), _sup(B)
    if 0.0 not in ends and (  # log2 of scale t^p at t = sup|A| sup|B|
            math.log2(man) + exp + (2.0 * ctx.mu + 1.0)
            * sum(map(math.log2, ends)) >= _MAXEXP):
        raise EvaluationError(f"m(A) m(B) over {A} x {B} at mu = {ctx.mu} "
                              "overflows a float")
    # the checks make the libmp calls of mpf arithmetic, at its precision
    wp, eps = mpmath.mp.prec, libmp.from_float(_EPS)
    for rounds in range(SERIES_MAX_ROUNDS):
        dps = SERIES_DPS * 2 ** rounds
        low = _corner_sum(A, B, ctx.mu, dps)
        product, value = (x._mpf_ for x in _corner_sum(
            A, B, ctx.mu, dps + SERIES_CHECK_DIGITS))
        error = _gap(value, low[1]._mpf_, wp)
        best = TraceEstimate.build(
            libmp.to_float(value, rnd="n"), libmp.to_float(error, rnd="n"),
            "moment_series", libmp.to_float(product, rnd="n"))
        if (libmp.mpf_le(error, libmp.mpf_mul(libmp.mpf_abs(value, wp, "n"),
                                               eps, wp, "n"))
                and libmp.mpf_le(_gap(product, low[0]._mpf_, wp),
                                 libmp.mpf_mul(product, eps, wp, "n"))):
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
    its message.  A series error with no best comes from m(A) m(B)
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
