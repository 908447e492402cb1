"""Definitions that only the tests use: the direct deformed binomial, exact
rational evaluation, two sizes of an interval set, and an override of the
quadrature settings."""

from fractions import Fraction

from mudeform.exact import (HALF, MuPolynomial, MuRationalFunction,
                            _binom_factored, _prod)
from mudeform.intervals import IntervalSet


def binom_mu_exact(k: int, j: int) -> MuRationalFunction:
    """The mu-deformed binomial coefficient, exactly in lowest terms, as the
    product of its (mu + i + 1/2) factors."""
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got k={k}, j={j}")
    scalar, num_range, den_range = _binom_factored(k, j)
    num = _prod(MuPolynomial.mu_plus(i + HALF)
                for i in range(*num_range)).scale(scalar)
    den = _prod(MuPolynomial.mu_plus(i + HALF) for i in range(*den_range))
    return MuRationalFunction(num, den)


def eval_rational(f: MuRationalFunction, mu: Fraction) -> Fraction:
    """Exact evaluation of a rational function at rational mu."""
    return f.evaluate(Fraction(mu))


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
