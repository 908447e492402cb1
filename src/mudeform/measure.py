"""The measure m_mu on interval sets: half-line panels and panel rules.

dm_mu(x) = norm_const |x|^(2 mu) dx, with norm_const the 113-bit constant
of MuContext.  A set splits at the origin into half-line panels, reflected
below 0, so every integral against m_mu runs over [a, b] with 0 <= a < b.

Panel rules are weight-aware at the origin: a panel nearer 0 than its width
uses Gauss-Jacobi nodes exact against the x^(2 mu) factor, which matters for
-1/2 < mu < 0 where the density is integrable but unbounded.  Their weights
are ratios to each piece's end times _density_scale, the one place that
forms the density, so they stay in float range up to mu = 250.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath
import numpy as np

from .core import MuContext, gauss_jacobi
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


# the fixed settings of both adaptive quadratures on these panel rules,
# trace.trace_quadrature and operators.fourier_mu_numeric
QUAD_NODES = 12
QUAD_LEVELS = 8
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-12


@lru_cache(maxsize=256)
def _density_scale(ctx: MuContext, end: float) -> float:
    """ctx.norm_const end^(2 mu + 1) for end > 0, at 113 bits and rounded
    once: in float range where norm_const and end^(2 mu) alone may not be."""
    with mpmath.workprec(113):
        value = ctx.norm_const * mpmath.power(end, 2 * mpmath.mpf(ctx.mu) + 1)
    with mpmath.workprec(53):
        return float(+value)


def weighted_panel_rule(A: IntervalSet, ctx: MuContext, panels_per_interval,
                        nodes_per_panel: int):
    """Nodes and weights integrating f against dm_mu over A.

    Each half-line panel [a, b] of A gets panels_per_interval equal panels,
    one count for all or one per _positive_panels entry, less any of zero
    width.  A first panel [e, h] nearer 0 than its width is [0, h] minus
    [0, e] by the Jacobi rule exact for |x|^(2 mu); the rest get
    Gauss-Legendre, in one array pass.  Each weight is _density_scale(ctx, b)
    times ratios to b: (end / 2b)^(2 mu + 1) on a Jacobi weight, the half
    width over b times (x / b)^(2 mu) on a Legendre weight.  A node whose
    weight underflowed to 0 is kept, as is a negative Jacobi weight.
    """
    t, w = gauss_jacobi(nodes_per_panel, 0.0, 0.0)
    p = 2.0 * ctx.mu + 1.0
    pieces = list(_positive_panels(A))
    counts = np.broadcast_to(panels_per_interval, (len(pieces),))
    xs, ws = [np.empty(0)], [np.empty(0)]  # an empty A gives an empty rule
    for (a, b, reflected), panels in zip(pieces, counts):
        scale = _density_scale(ctx, b)
        edges = np.linspace(a, b, panels + 1)
        edges = edges[np.diff(edges, prepend=-1.0) > 0.0]  # as a >= 0
        if 2.0 * edges[0] < edges[1]:
            t0, w0 = gauss_jacobi(nodes_per_panel, 0.0, 2.0 * ctx.mu)
            for end, sign in ((edges[1], 1.0), (edges[0], -1.0)):
                if end > 0.0:
                    x = 0.5 * end * (1.0 + t0)
                    xs.append(-x if reflected else x)
                    ws.append(sign * w0 * (0.5 * (end / b)) ** p * scale)
            edges = edges[1:]
        lo, hi = edges[:-1, None], edges[1:, None]
        half = 0.5 * ((hi - lo) / b)
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        wt = w * half * (lo / b + half * (1.0 + t)) ** (2.0 * ctx.mu) * scale
        xs.append((-x if reflected else x).ravel())
        ws.append(wt.ravel())
    return np.concatenate(xs), np.concatenate(ws)
