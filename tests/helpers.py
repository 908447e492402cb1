"""Definitions that only the tests use: the direct deformed binomial, exact
rational evaluation, the exact even-series coefficients, the moments in
mpmath, |exp_mu(is)|^2 on the kernel with its error bound, the trace as a
dense 2-D sum, the moment series' corner sum with no cache, the reflection
and two sizes of an interval set, an override of the quadrature settings,
the panel rule built one panel at a time and the deformed Fourier ladder
from level 0 with no level cache."""

from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from mudeform.core import (KERNEL_ABS2_FLOOR, exp_mu_imag_on_grid,
                           gauss_jacobi, norm_const_mp)
from mudeform.exact import MuPolynomial, MuRationalFunction, _binom_factored
from mudeform.intervals import IntervalSet
from mudeform.measure import (QUAD_ABS_TOL, QUAD_LEVELS, QUAD_NODES,
                              QUAD_REL_TOL, _density_scale, _positive_panels,
                              weighted_panel_rule)
from mudeform.operators import _on_grid, _support_radius


def binom_mu_exact(k: int, j: int) -> MuRationalFunction:
    """The mu-deformed binomial coefficient, exactly in lowest terms, as the
    product of its (mu + i + 1/2) factors."""
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got k={k}, j={j}")
    scalar, num_range, den_range = _binom_factored(k, j)
    num, den = MuPolynomial.const(scalar), MuPolynomial.const(1)
    for i in range(*num_range):
        num = num * MuPolynomial.mu_plus(i + Fraction(1, 2))
    for i in range(*den_range):
        den = den * MuPolynomial.mu_plus(i + Fraction(1, 2))
    return MuRationalFunction(num, den)


def eval_rational(f: MuRationalFunction, mu: Fraction) -> Fraction:
    """Exact evaluation of a rational function at rational mu."""
    return f.evaluate(Fraction(mu))


EVEN_COEFF_TABLES = 64  # per-mu coefficient tables kept, least recent dropped


@lru_cache(maxsize=EVEN_COEFF_TABLES)
def _even_coeff_table(mu: Fraction) -> list[Fraction]:
    return [Fraction(1)]


def even_coeff(j: int, mu: Fraction) -> Fraction:
    """c_j = p_{2j,mu}(-1,1) / gamma_mu(2j), exactly, at rational mu.

    The paper's product identities for p_{4n-2,mu}(-1,1) and p_{4n,mu}(-1,1),
    with gamma_mu(2j) = 4^j j! (mu+1/2)_j, give c_i / c_{i-1} =
    (mu+i-1) / (i (2mu+i) (mu+i-1/2)); per-mu tables grow on demand.  The
    even series runs on this ratio in floats or mpmath; these exact values
    are its oracle, checked against the symbolic layer.
    """
    table = _even_coeff_table(mu)
    while len(table) <= j:
        i = len(table)
        table.append(table[-1] * (
            (mu + i - 1) / (i * (2 * mu + i) * (mu + i - Fraction(1, 2)))))
    return table[j]


def moment_mp(A: IntervalSet, mu, n: int):
    """The n-th moment in the current mpmath working precision."""
    norm = norm_const_mp(mu)
    p = 2 * mpmath.mpf(mu) + n + 1
    total = mpmath.mpf(0)
    for a, b, reflected in _positive_panels(A):
        part = (mpmath.power(b, p) - mpmath.power(a, p)) / p
        total += -part if (reflected and n % 2) else part
    return norm * total


def corner_sum_uncached(A: IntervalSet, B: IntervalSet, mu: float, dps: int):
    """trace._corner_sum with every corner evaluated where it occurs: the
    oracle of its cached corners, m(A) m(B) and the trace, which must match
    it bit for bit."""
    with mpmath.workdps(dps):
        mu = mpmath.mpf(mu)
        p = 2 * mu + 1
        norm = norm_const_mp(mu)
        product = total = mpmath.mpf(0)
        for a, b, _ in _positive_panels(A):
            for c, d, _ in _positive_panels(B):
                for x, y, sign in ((b, d, 1), (a, d, -1), (b, c, -1),
                                   (a, c, 1)):
                    if x > 0.0 and y > 0.0:
                        t = mpmath.mpf(x) * y
                        product += sign * t ** p
                        total += sign * t ** p * mpmath.hyp2f3(
                            mu, mu + 0.5, p, mu + 1.5, mu + 1.5, -t * t)
        return (norm / p) ** 2 * product, (norm / p) ** 2 * total


def abs2_on_grid(svals, ctx) -> np.ndarray:
    """Vectorized |exp_mu(i s)|^2 over an array of real s, on the kernel."""
    vals = exp_mu_imag_on_grid(svals, ctx)
    return vals.real ** 2 + vals.imag ** 2


def abs2_grid_error_bound(peak: float) -> float:
    """Per-point absolute error of abs2_on_grid where every value is <= peak."""
    return KERNEL_ABS2_FLOOR * max(1.0, peak)


def dense_trace(A: IntervalSet, B: IntervalSet, ctx, panels: int = 8,
                nodes: int = 12) -> float:
    """Tr(E^Q(A) E^P(B)) as the 2-D tensor sum of |exp_mu(ixk)|^2 over the
    panel rules of A and B: the oracle of the 1-D trace quadrature that
    needs no Lommel integral, for small sets only."""
    x, wx = weighted_panel_rule(A, ctx, panels, nodes)
    k, wk = weighted_panel_rule(B, ctx, panels, nodes)
    return float(wx @ abs2_on_grid(np.outer(x, k), ctx) @ wk)


def reflected(s: IntervalSet) -> IntervalSet:
    """The set -s."""
    return IntervalSet(tuple((-hi, -lo) for lo, hi in s.intervals))


def sup_abs(s: IntervalSet) -> float:
    """sup |x| over the set; 0 for the empty set."""
    return max((max(abs(lo), abs(hi)) for lo, hi in s.intervals), default=0.0)


def total_length(s: IntervalSet) -> float:
    return sum(hi - lo for lo, hi in s.intervals)


def set_quadrature(monkeypatch, module, **settings):
    """Override the measure.QUAD_* settings as module reads them, e.g.
    set_quadrature(monkeypatch, trace_module, QUAD_LEVELS=5)."""
    for name, value in settings.items():
        monkeypatch.setattr(module, name, value)


def panel_rule_by_panel(A: IntervalSet, ctx, panels_per_interval,
                        nodes_per_panel: int):
    """measure.weighted_panel_rule as a loop over panels, one rule each: the
    oracle of its array pass, which must match it bit for bit."""
    pieces = list(_positive_panels(A))
    counts = np.broadcast_to(panels_per_interval, (len(pieces),))
    p = 2.0 * ctx.mu + 1.0
    xs, ws = [], []
    for (a, b, reflected), panels in zip(pieces, counts):
        scale = _density_scale(ctx, b)  # norm_const b^p
        edges = np.linspace(a, b, panels + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            if lo == hi:
                continue
            if 2.0 * lo < hi:  # nearer 0 than its width: [0,hi] minus [0,lo]
                t, w = gauss_jacobi(nodes_per_panel, 0.0, 2.0 * ctx.mu)
                parts = [(hi, 1.0)] + ([(lo, -1.0)] if lo > 0.0 else [])
                x = np.concatenate([0.5 * end * (1.0 + t) for end, _ in parts])
                wt = np.concatenate([
                    sign * w * (0.5 * (end / b)) ** p * scale
                    for end, sign in parts])
            else:
                t, w = gauss_jacobi(nodes_per_panel, 0.0, 0.0)
                half = 0.5 * ((hi - lo) / b)
                x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
                wt = w * half * (lo / b + half * (1.0 + t)) ** (2.0 * ctx.mu) \
                    * scale
            xs.append(-x if reflected else x)
            ws.append(wt)
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ws)  # weights of 0 included


def fourier_uncached(psis, k, ctx):
    """operators.fourier_mu_numeric as its ladder ran from level 0, with no
    level cache: the values, and the level at which they converged."""
    k = np.asarray(k, dtype=float)
    values = [p.values_at(ctx.mu) for p in psis]
    log_norm = float(mpmath.log(ctx.norm_const))
    R = max(_support_radius(v, ctx.mu, log_norm, QUAD_ABS_TOL)
            for v in values if v.size)
    ak, inv = np.unique(np.abs(k), return_inverse=True)
    odd_factor = -1j * np.sign(k)
    prev = None
    for level in range(QUAD_LEVELS + 1):
        x, w = weighted_panel_rule(IntervalSet.of((0.0, R)), ctx, 2 ** level,
                                   QUAD_NODES)
        x, w = x[w != 0.0], w[w != 0.0]
        mirrored = np.concatenate((x, -x))
        both = np.array([_on_grid(v, mirrored) for v in values])
        plus, minus = both[:, :x.size], both[:, x.size:]
        kernel = exp_mu_imag_on_grid(np.outer(ak, x), ctx)
        even = (w * (plus + minus)) @ kernel.real.T
        odd = (w * (plus - minus)) @ kernel.imag.T
        vals = even[:, inv] + odd_factor * odd[:, inv]
        if prev is not None and np.all(
                np.max(np.abs(vals - prev), axis=1) <= np.maximum(
                    QUAD_ABS_TOL, QUAD_REL_TOL * np.max(np.abs(vals), axis=1))):
            return vals, level
        prev = vals
    raise AssertionError("the uncached Fourier ladder did not converge")
