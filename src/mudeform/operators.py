"""Exact position/momentum/parity operators on Gaussian polynomials.

The function class is psi(x) = p(x) exp(-x^2/2), where each coefficient of
p is a complex polynomial in mu with rational coefficients.  It is closed
under

    Q psi = x psi,   J psi = psi(-x),   H = (Q^2 + P^2)/2,
    P psi = (1/i) (psi' + kappa mu (psi - J psi)/x).

kappa = 1 makes i[P,Q] = I + 2 mu J hold identically; kappa is exposed so
that a doubled reflection term can be shown to break it on odd functions.

A GaussPoly holds p as its nonzero terms on integers: num = {(n, j): (a, b)}
stands for (a + i b) x^n mu^j / den, with Python ints over one positive
integer den.  Every operator is one pass over the terms, the same for every
mu: Q raises n, J negates the odd n, the derivative (p' - x p) sends a term
c x^n to n c x^(n-1) - c x^(n+1), the reflection term sends an odd n to
2 kappa mu c x^(n-1) (psi - J psi keeps only odd powers, so dividing by x
is exact), and 1/i takes a + i b to b - i a.  Terms that cancel are
dropped; equality and the coefficient views read the terms in lowest
terms.  CPoly is one coefficient as two MuPolynomials.

The numeric layer evaluates these functions on grids and implements the
deformed Fourier transform by weight-aware adaptive quadrature.  It takes
a sequence of functions, which share one radius and one kernel matrix per
refinement level; a level, built once per (mu, R, |k|) and kept for later
calls, evaluates the kernel on |k| times the positive half of the
mirror-symmetric rule only.  Each call rounds the coefficients at mu once.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

import mpmath
import numpy as np

from .core import MuContext, exp_mu_imag_on_grid
from .errors import EvaluationError
from .exact import MuPolynomial
from .intervals import IntervalSet
from .measure import (QUAD_ABS_TOL, QUAD_LEVELS, QUAD_NODES, QUAD_REL_TOL,
                      weighted_panel_rule)


@dataclass(frozen=True)
class CPoly:
    """One coefficient re + i im of a GaussPoly, as two MuPolynomials."""

    re: MuPolynomial = MuPolynomial()
    im: MuPolynomial = MuPolynomial()

    def __post_init__(self):
        for part in ("re", "im"):
            value = getattr(self, part)
            if not isinstance(value, MuPolynomial):
                object.__setattr__(self, part, MuPolynomial.const(value))

    def evaluate(self, mu: float) -> complex:
        return complex(float(self.re.evaluate(Fraction(mu))),
                       float(self.im.evaluate(Fraction(mu))))


CPoly.ZERO = CPoly()


def _on_grid(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(sum_n values[n] x^n) exp(-x^2/2), by Horner."""
    acc = np.zeros(x.shape, dtype=complex)
    for c in values[::-1]:
        acc = acc * x + c
    return acc * np.exp(-0.5 * x * x)


class GaussPoly:
    """psi(x) = (sum_n c_n x^n) exp(-x^2/2), with the exact coefficients
    c_n = sum_j (a + i b) mu^j / den over the terms num = {(n, j): (a, b)}.

    Every term is nonzero, but den may share a factor with all of them;
    equality and the coefficients read the form in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        """From CPoly coefficients, lowest power of x first."""
        coeffs = list(coeffs)
        den = math.lcm(1, *(p.den for c in coeffs for p in (c.re, c.im)))
        self.num, self.den = {}, den
        for n, c in enumerate(coeffs):
            re, im = ([v * (den // p.den) for v in p.nums]
                      for p in (c.re, c.im))
            self.num.update(((n, j), ab) for j, ab in enumerate(
                zip_longest(re, im, fillvalue=0)) if any(ab))

    @classmethod
    def _of(cls, num: dict, den: int = 1) -> "GaussPoly":
        psi = cls.__new__(cls)
        psi.num, psi.den = num, den
        return psi

    @classmethod
    def basis(cls, n: int) -> "GaussPoly":
        """x^n exp(-x^2/2)."""
        return cls._of({(n, 0): (1, 0)})

    @property
    def degree(self) -> int:
        return max((n for n, _ in self.num), default=-1)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _lowest(self) -> tuple[dict, int]:
        """The terms and den with their common factor divided out."""
        g = math.gcd(self.den, *(v for ab in self.num.values() for v in ab))
        return ({key: (a // g, b // g) for key, (a, b) in self.num.items()},
                self.den // g)

    @property
    def coeffs(self) -> tuple[CPoly, ...]:
        terms, den = self._lowest()
        rows = [[[], []] for _ in range(self.degree + 1)]
        for (n, j), ab in terms.items():
            for part, v in zip(rows[n], ab):
                part.extend([0] * (j + 1 - len(part)))
                part[j] = v
        return tuple(CPoly(*(MuPolynomial._of(part, den) for part in row))
                     for row in rows)

    def coeff(self, n: int) -> CPoly:
        coeffs = self.coeffs
        return coeffs[n] if 0 <= n < len(coeffs) else CPoly.ZERO

    def __eq__(self, other):
        return (isinstance(other, GaussPoly)
                and self._lowest() == other._lowest())

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        return _combine((self, 1, 0), (other, 1, 0))

    def __sub__(self, other: "GaussPoly") -> "GaussPoly":
        return _combine((self, 1, 0), (other, -1, 0))

    def scale_complex(self, re, im) -> "GaussPoly":
        """Multiply by the constant re + i*im (exact rationals)."""
        re, im = Fraction(re), Fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        scaled = _combine((self, int(re * den), int(im * den)))
        return GaussPoly._of(scaled.num, scaled.den * den)

    def values_at(self, mu) -> np.ndarray:
        """The coefficients at mu as complex floats, CPoly.evaluate of each:
        at mu = p/q each is the exact integer quotient
        sum_j (a + i b) p^j q^(top-j) / (den q^top), rounded once."""
        p, q = Fraction(mu).as_integer_ratio()
        top = max((j for _, j in self.num), default=0)
        powers = [p ** j * q ** (top - j) for j in range(top + 1)]
        sums = [[0, 0] for _ in range(self.degree + 1)]
        for (n, j), (a, b) in self.num.items():
            acc = sums[n]
            acc[0] += a * powers[j]
            acc[1] += b * powers[j]
        den, values = self.den * q ** top, []
        for n, (a, b) in enumerate(sums):
            try:
                values.append(complex(a / den, b / den))
            except OverflowError:
                raise EvaluationError(f"the coefficient of x^{n} at mu = {mu} "
                                      "leaves float range") from None
        return np.array(values, dtype=complex)

    def evaluate(self, x: np.ndarray, mu: float) -> np.ndarray:
        """psi on a grid, its coefficients evaluated at mu."""
        return _on_grid(self.values_at(mu), np.asarray(x, dtype=float))

    def __repr__(self):
        return f"GaussPoly({list(self.coeffs)!r})"


def _collect(pieces, den: int) -> GaussPoly:
    """The GaussPoly over den whose term at each key is the sum of the
    (key, a, b) in pieces, the terms that cancel dropped."""
    out = {}
    for key, a, b in pieces:
        c, d = out.get(key, (0, 0))
        out[key] = (a + c, b + d)
    return GaussPoly._of({k: v for k, v in out.items() if v[0] or v[1]}, den)


def _combine(*parts) -> GaussPoly:
    """The sum of (c + i d) psi over the (psi, c, d) in parts."""
    den = math.lcm(*(psi.den for psi, _, _ in parts))
    pieces = []
    for psi, c, d in parts:
        c, d = c * (den // psi.den), d * (den // psi.den)
        pieces += [(key, a * c - b * d, a * d + b * c)
                   for key, (a, b) in psi.num.items()]
    return _collect(pieces, den)


def apply_Q(psi: GaussPoly) -> GaussPoly:
    """Multiplication by x: shift all coefficients up one degree."""
    return GaussPoly._of({(n + 1, j): v for (n, j), v in psi.num.items()},
                         psi.den)


def apply_J(psi: GaussPoly) -> GaussPoly:
    """Parity: c_n -> (-1)^n c_n (the Gaussian factor is even)."""
    return GaussPoly._of({(n, j): (-a, -b) if n & 1 else (a, b)
                          for (n, j), (a, b) in psi.num.items()}, psi.den)


def apply_P(psi: GaussPoly, kappa=Fraction(1)) -> GaussPoly:
    """(1/i)(psi' + kappa mu (psi - J psi)/x).

    (p e^{-x^2/2})' = (p' - x p) e^{-x^2/2}: the term (n, j) gives
    n c x^(n-1) mu^j and -c x^(n+1) mu^j.  The reflection difference keeps
    the odd powers, doubled, so dividing by x is exact: an odd n also gives
    2 kappa c x^(n-1) mu^(j+1).  1/i takes a + i b to b - i a.  kappa
    defaults to the value consistent with i[P,Q] = I + 2 mu J.
    """
    kappa = Fraction(kappa)
    q, two_p = kappa.denominator, 2 * kappa.numerator
    pieces = []  # f c / i = f b - i f a for c = a + i b
    for (n, j), (a, b) in psi.num.items():
        pieces.append(((n + 1, j), -q * b, q * a))
        if n:
            pieces.append(((n - 1, j), n * q * b, -n * q * a))
        if n & 1:
            pieces.append(((n - 1, j + 1), two_p * b, -two_p * a))
    return _collect(pieces, psi.den * q)


def apply_H(psi: GaussPoly, kappa=Fraction(1)) -> GaussPoly:
    """H = (Q^2 + P^2)/2, composed exactly."""
    qq = apply_Q(apply_Q(psi))
    pp = apply_P(apply_P(psi, kappa), kappa)
    total = qq + pp
    return GaussPoly._of(total.num, 2 * total.den)


def ccr_residual(psi: GaussPoly, kappa=Fraction(1)) -> GaussPoly:
    """i(P(Q psi) - Q(P psi)) - psi - 2 mu J psi; identically zero iff the
    deformed canonical commutation relation holds on psi."""
    mu_j = GaussPoly._of({(n, j + 1): v for (n, j), v
                          in apply_J(psi).num.items()}, psi.den)
    return _combine((apply_P(apply_Q(psi), kappa), 0, 1),
                    (apply_Q(apply_P(psi, kappa)), 0, -1),
                    (psi, -1, 0), (mu_j, -2, 0))


def _fit_constant(target: GaussPoly, reference: GaussPoly):
    """The unique complex constant c with target = c * reference, or None.

    Any term r of reference and the term t of target at the same place fix
    the candidate c = t/r = t conj(r)/|r|^2, a complex rational; target ==
    c * reference is then checked on every term.
    """
    if reference.is_zero:
        return None
    key, (ra, rb) = next(iter(reference.num.items()))
    ta, tb = target.num.get(key, (0, 0))
    norm = (ra * ra + rb * rb) * target.den
    c = (Fraction((ta * ra + tb * rb) * reference.den, norm),
         Fraction((tb * ra - ta * rb) * reference.den, norm))
    return c if reference.scale_complex(*c) == target else None


@dataclass
class EomReport:
    """Equations-of-motion check [H,Q] ~ P and [H,P] ~ Q on a given psi.

    residual_q / residual_p are taken against the printed,
    convention-dependent claim [H,Q]=P, [H,P]=-Q; fitted_c1 / fitted_c2 are
    the unique constants actually making the commutators proportional, as
    exact (re, im) pairs, or None.
    """

    residual_q: GaussPoly
    residual_p: GaussPoly
    fitted_c1: tuple[Fraction, Fraction] | None
    fitted_c2: tuple[Fraction, Fraction] | None

    @property
    def residuals_vanish(self) -> bool:
        return self.residual_q.is_zero and self.residual_p.is_zero

    def fitted_as_complex(self):
        return tuple(None if c is None else complex(float(c[0]), float(c[1]))
                     for c in (self.fitted_c1, self.fitted_c2))


def eom_residuals(psi: GaussPoly, kappa=Fraction(1)) -> EomReport:
    """Residuals [H,Q]psi - P psi and [H,P]psi + Q psi, plus the fitted
    constants that make each commutator a multiple of the target."""
    p_psi, q_psi, h_psi = (apply_P(psi, kappa), apply_Q(psi),
                           apply_H(psi, kappa))
    hq = apply_H(q_psi, kappa) - apply_Q(h_psi)
    hp = apply_H(p_psi, kappa) - apply_P(h_psi, kappa)
    return EomReport(
        residual_q=hq - p_psi,
        residual_p=hp + q_psi,
        fitted_c1=_fit_constant(hq, p_psi),
        fitted_c2=_fit_constant(hp, q_psi),
    )


# --- numeric deformed Fourier transform ---------------------------------------

def _support_radius(values: np.ndarray, mu: float, log_norm: float,
                    abs_tol: float) -> float:
    """R with norm_const max|c_n| (1+R)^(deg+1) e^{-R^2/2} max(1, R^{2 mu})
    below a tenth of abs_tol, for the coefficients c_n at mu of a nonzero
    psi and log_norm = log MuContext.norm_const, compared in logs: beyond R
    the Gaussian envelope is negligible.  R is past the envelope's peak,
    R^2 >= 2 mu + deg + 1, so a tiny norm_const cannot pass an R on its
    rising side."""
    log_ratio = (math.log(max(max(map(abs, values.tolist())), 1e-300))
                 + log_norm - math.log(0.1 * abs_tol))
    R = 2.0
    while R < 40.0:
        if R * R >= 2.0 * mu + len(values) and (
                log_ratio + len(values) * math.log1p(R) - 0.5 * R * R
                + max(0.0, 2.0 * mu * math.log(R))) < 0.0:
            return R
        R *= 1.25
    return R


@lru_cache(maxsize=QUAD_LEVELS - 1)
def _fourier_level(ctx: MuContext, R: float, level: int, nodes: int,
                   ak: bytes):
    """Refinement level `level` of the transform on [-R, R]: the panel rule
    (x, w) on (0, R) and the kernel exp_mu(i |k| x) on the float64 |k| in
    ak, all read-only.  The key holds every input, so the functions of one
    command and repeated calls share a level; the cache holds one ladder."""
    domain = IntervalSet.of((0.0, R))  # panel splitter is weight-aware at 0
    x, w = weighted_panel_rule(domain, ctx, 2 ** level, nodes)
    x, w = x[w != 0.0], w[w != 0.0]  # underflowed weights carry nothing
    kernel = exp_mu_imag_on_grid(np.outer(np.frombuffer(ak), x), ctx)
    for array in (x, w, kernel):
        array.flags.writeable = False
    return x, w, kernel


def fourier_mu_numeric(psis: Sequence[GaussPoly], k_points,
                       ctx: MuContext) -> np.ndarray:
    """F_mu psi (k) = integral of exp_mu(-i k x) psi(x) dm_mu(x), for each
    psi in psis, as an array of shape (len(psis), len(k)).

    The functions share one radius R, the largest of the Gaussian envelope
    bounds, and one kernel matrix per refinement level, which
    _fourier_level keeps for later calls at the same (mu, R, |k|).  Each
    function's coefficients are rounded at mu once per call, and a function
    whose values leave float range on [-R, R] fails before any level.  The
    measure and the panel rule on [-R, R] are mirror-symmetric, and
    exp_mu(-ikx) = C(|kx|) - i S(kx) with C even and S odd, so each level
    evaluates the kernel once, on unique(|k|) times the nodes x > 0 of the
    rule on (0, R):

        F(k) = C @ (w (psi(x) + psi(-x))) - i sign(k) S @ (w (psi(x) - psi(-x)))

    which is the full-grid sum exactly, for any k.  Panels of QUAD_NODES
    nodes are refined from 4 panels (level 2: coarser levels almost never
    agree) up to level QUAD_LEVELS, until successive levels agree within
    max(QUAD_ABS_TOL, QUAD_REL_TOL max|F|) at every k, per F.
    The weights of measure.weighted_panel_rule stay in float range, so it
    runs for every mu the kernel takes, up to 250.
    """
    k = np.asarray(list(k_points), dtype=float)
    if k.size == 0 or all(p.is_zero for p in psis):
        return np.zeros((len(psis), k.size), dtype=complex)
    values = [p.values_at(ctx.mu) for p in psis]
    log_norm = float(mpmath.log(ctx.norm_const))  # once per call
    R = max(_support_radius(v, ctx.mu, log_norm, QUAD_ABS_TOL)
            for v in values if v.size)
    log_max = math.log(sys.float_info.max)
    for v in values:  # Horner's partial sums are at most sum |c_n| R^n
        logs = [math.log(abs(c)) + n * math.log(R)
                for n, c in enumerate(v.tolist()) if c]
        if logs and math.log(len(logs)) + max(logs) > log_max:
            raise EvaluationError(
                f"psi leaves float range on [-R, R], R = {R:g}")
    ak, inv = np.unique(np.abs(k), return_inverse=True)
    odd_factor = -1j * np.sign(k)
    prev = None
    diff = math.inf
    for level in range(2, QUAD_LEVELS + 1):
        x, w, kernel = _fourier_level(ctx, R, level, QUAD_NODES, ak.tobytes())
        mirrored = np.concatenate((x, -x))
        both = np.array([_on_grid(v, mirrored) for v in values])
        plus, minus = both[:, :x.size], both[:, x.size:]
        even = (w * (plus + minus)) @ kernel.real.T
        odd = (w * (plus - minus)) @ kernel.imag.T
        vals = even[:, inv] + odd_factor * odd[:, inv]
        if prev is not None:
            change = np.max(np.abs(vals - prev), axis=1)
            diff = float(np.max(change))
            if np.all(change <= np.maximum(
                    QUAD_ABS_TOL, QUAD_REL_TOL * np.max(np.abs(vals), axis=1))):
                return vals
        prev = vals
    raise EvaluationError(
        f"deformed Fourier quadrature did not converge (last change {diff:.3g})",
        best=prev)


def intertwining_check(psi: GaussPoly, k_points, ctx: MuContext,
                       kappa=Fraction(1)) -> float:
    """The largest gap of F_mu P_mu psi against k (F_mu psi)(k) over
    k_points: F_mu P_mu = Q_mu F_mu checked pointwise."""
    k = np.asarray(list(k_points), dtype=float)
    lhs, transformed = fourier_mu_numeric([apply_P(psi, kappa), psi], k, ctx)
    return float(np.max(np.abs(lhs - k * transformed))) if k.size else 0.0


# --- literal syntax -----------------------------------------------------------
# The gauss-poly grammar, one verbose sub-pattern per rule.  Each token
# takes the whitespace after it, so no two \s* meet and a malformed
# literal fails in time linear in its length.
#   literal := [ "(" poly ")" | poly ] ["*"] "gauss"   (any case)
#   poly    := [sign] term { sign term }
#   term    := coeff [ ["*"] mono ] | mono
#   coeff   := atom | "(" [sign] atom { sign atom } ")"
#   atom    := real ["i"] | "i"
#   mono    := "x" [ "^" digits ]   at most 3, and 4 in a real's exponent
_REAL = (r"(?: \d+ \s* / \s* \d+"
         r" | (?: \d+ (?:\.\d*)? | \.\d+ ) (?: [eE][+-]?\d{1,4} )? ) \s*")
_ATOM = rf"(?: {_REAL} (?: i\s* )? | i\s* )"
_COEFF = (rf"(?: {_ATOM}"
          rf" | \(\s* (?:[+-]\s*)? {_ATOM} (?: [+-]\s* {_ATOM} )* \)\s* )")
_MONO = r"(?: x\s* (?: \^\s* \d{1,3}\s* )? )"
_TERM = rf"(?: {_COEFF} (?: (?:\*\s*)? {_MONO} )? | {_MONO} )"
_POLY = rf"(?: (?:[+-]\s*)? {_TERM} (?: [+-]\s* {_TERM} )* )"
# strings, not compiled patterns: re compiles each at its first use and
# caches it, so importing mudeform compiles none of them (about 9 ms)
_LITERAL = rf"""(?x) \s*
    (?: (?P<open> \(\s* )? (?P<poly> {_POLY} ) (?(open) \)\s* ) )?
    (?:\*\s*)? (?i: gauss ) \s*
"""
# readers of text the grammar has matched: one signed term, one signed atom
_SIGNED_TERM = rf"""(?x) (?P<sign> [+-]? ) \s*
    (?: (?P<coeff> {_COEFF} ) (?: (?:\*\s*)? (?P<mono> {_MONO} ) )?
      | (?P<lone> {_MONO} ) )
"""
_SIGNED_ATOM = (rf"(?x) (?P<sign> [+-]? ) \s*"
                rf" (?: (?P<real> {_REAL} ) (?P<imag> i )? | i )")


def _rational(real: str) -> tuple[int, int]:
    """A real of the grammar as integers n / d."""
    num, slash, den = real.partition("/")
    if slash:  # int() takes the whitespace around either side
        return int(num), int(den)
    mantissa, _, exp = real.strip().lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = int(exp or 0) - len(frac)
    n = int(whole + frac)
    return (n * 10 ** shift, 1) if shift >= 0 else (n, 10 ** -shift)


def parse_gauss_poly(text: str) -> GaussPoly:
    """Parse a literal like "(1 + 2x^3) * gauss" or "(1+2i)x^2 + 3x + 1 *
    gauss" by the grammar above.  Bare "gauss" is the unit Gaussian, and
    equal powers of x add.  The atoms are summed as integers over the lcm
    of their denominators and the result put in lowest terms."""
    literal = re.fullmatch(_LITERAL, text)
    if literal is None:
        raise ValueError(f"not a gauss-poly literal: {text!r}")
    atoms = []  # (key, a, b, d) for the signed atom (a + i b) x^n / d
    for term in re.finditer(_SIGNED_TERM, literal["poly"] or "1"):
        mono = term["mono"] or term["lone"]
        power = int(mono.partition("^")[2] or 1) if mono else 0
        for atom in re.finditer(_SIGNED_ATOM, term["coeff"] or "1"):
            real = atom["real"]
            n, d = _rational(real) if real else (1, 1)
            if not d:
                raise ValueError(
                    f"zero denominator in gauss-poly literal {text!r}")
            if (term["sign"] + atom["sign"]).count("-") == 1:
                n = -n
            imaginary = real is None or atom["imag"] is not None
            atoms.append(((power, 0), 0 if imaginary else n,
                          n if imaginary else 0, d))
    den = math.lcm(*(d for *_, d in atoms))
    return GaussPoly._of(*_collect(
        [(key, a * (den // d), b * (den // d)) for key, a, b, d in atoms],
        den)._lowest())
