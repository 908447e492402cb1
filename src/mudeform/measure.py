"""The measure m_mu on interval sets: closed-form moments and panel rules.

dm_mu(x) = norm_const |x|^(2 mu) dx.  All moments reduce to the
antiderivative x^(2 mu + n + 1)/(2 mu + n + 1) on panels that avoid 0, with
sign (-1)^n on reflected negative panels; the exponent is always positive
for mu > -1/2, so no panel ever needs a principal value.  The moment
series in trace.py sums in closed form over the corners of these
half-line panels; its term-by-term oracle, with the moments in mpmath,
lives in the tests.

Panel rules are weight-aware at the origin: a panel nearer 0 than its width
uses Gauss-Jacobi nodes exact against the x^(2 mu) factor, which matters for
-1/2 < mu < 0 where the density is integrable but unbounded.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import MuContext, gauss_jacobi
from .errors import EvaluationError
from .intervals import IntervalSet


def _positive_panels(A: IntervalSet):
    """Split A at the origin into panels on [0, inf) plus a reflection flag.

    Yields (a, b, reflected); each panel satisfies 0 <= a < b and
    integrates f(x) for reflected=False, f(-x) for reflected=True.
    """
    for lo, hi in A.intervals:
        if hi <= 0.0:
            yield -hi, -lo, True
        elif lo >= 0.0:
            yield lo, hi, False
        else:
            yield 0.0, -lo, True
            yield 0.0, hi, False


def moment(A: IntervalSet, ctx: MuContext, n: int = 0) -> float:
    """The n-th moment of m_mu over A, by closed-form antiderivative."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = 2.0 * ctx.mu + n + 1.0
    total = 0.0
    for a, b, reflected in _positive_panels(A):
        try:
            part = (b ** p - a ** p) / p
        except OverflowError:
            raise EvaluationError(
                f"moment {n} of m_mu over {A} at mu = {ctx.mu} overflows "
                "a float") from None
        total += -part if (reflected and n % 2) else part
    return ctx.norm_const * total


def measure(A: IntervalSet, ctx: MuContext) -> float:
    """m_mu(A) >= 0."""
    return moment(A, ctx, 0)


@lru_cache(maxsize=256)
def _legendre(n: int):
    return gauss_jacobi(n, 0.0, 0.0)


@lru_cache(maxsize=256)
def _origin_rule(mu: float, n: int):
    # Gauss-Jacobi for weight (1+t)^(2 mu) on [-1,1]; mapped onto [0,h]
    # this is exact against the x^(2 mu) density factor.
    return gauss_jacobi(n, 0.0, 2.0 * mu)


# the fixed settings of both adaptive quadratures on these panel rules,
# trace.trace_quadrature and operators.fourier_mu_numeric
QUAD_NODES = 12
QUAD_LEVELS = 8
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-12


def weighted_panel_rule(A: IntervalSet, ctx: MuContext, panels_per_interval,
                        nodes_per_panel: int):
    """Nodes and weights integrating f against dm_mu over A.

    Each half-line panel of A gets panels_per_interval equal panels: one
    count for all, or one per _positive_panels entry.  A first panel [e, h]
    nearer 0 than its width is [0, h] minus [0, e] by the Jacobi rule exact
    for |x|^(2 mu); the rest get Gauss-Legendre, in one array pass.
    """
    t, w = _legendre(nodes_per_panel)
    pieces = list(_positive_panels(A))
    counts = np.broadcast_to(panels_per_interval, (len(pieces),))
    xs, ws = [], []
    for (a, b, reflected), panels in zip(pieces, counts):
        edges = np.linspace(a, b, panels + 1)
        if 2.0 * edges[0] < edges[1]:
            t0, w0 = _origin_rule(ctx.mu, nodes_per_panel)
            for end, sign in ((edges[1], 1.0), (edges[0], -1.0)):
                if end > 0.0:
                    half = 0.5 * end
                    x = half * (1.0 + t0)
                    xs.append(-x if reflected else x)
                    ws.append(sign * w0 * half ** (2.0 * ctx.mu + 1.0)
                              * ctx.norm_const)
            edges = edges[1:]
        lo, hi = edges[:-1, None], edges[1:, None]
        half = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + half * t
        wt = w * half * np.abs(x) ** (2.0 * ctx.mu) * ctx.norm_const
        xs.append((-x if reflected else x).ravel())
        ws.append(wt.ravel())
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ws)
