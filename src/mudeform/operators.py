"""Exact symbolic position/momentum/parity operators on Gaussian polynomials.

The function class is psi(x) = p(x) exp(-x^2/2) where p has complex
coefficients whose real and imaginary parts are exact polynomials in mu.
The class is closed under

    Q psi = x psi
    J psi = psi(-x)
    P psi = (1/i) (psi' + kappa mu (psi - J psi)/x)
    H     = (Q^2 + P^2)/2

and every operation here is exact: the division by x in P is exact because
psi - J psi keeps only odd powers.  kappa = 1 is the reflection-term
coefficient that makes i[P,Q] = I + 2 mu J hold identically; kappa is
exposed so the variant with a doubled reflection term can be exercised and
shown to break the commutation relation on odd functions.

The numeric layer evaluates these functions on grids and implements the
deformed Fourier transform by weight-aware adaptive quadrature.  It takes
one function or a sequence of them; a sequence shares one radius and one
kernel matrix per refinement level, and each level evaluates the kernel
on |k| times the positive half of the mirror-symmetric rule only.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import MuContext, exp_mu_imag_on_grid
from .errors import EvaluationError
from .exact import MU, MuPolynomial
from .intervals import IntervalSet
from .measure import weighted_panel_rule
from .trace import QuadratureSpec


class CPoly:
    """Complex number whose real and imaginary parts are MuPolynomials."""

    __slots__ = ("re", "im")

    ZERO: "CPoly"

    def __init__(self, re=None, im=None):
        def lift(v):
            if v is None:
                return MuPolynomial()
            if isinstance(v, MuPolynomial):
                return v
            return MuPolynomial.const(v)
        self.re = lift(re)
        self.im = lift(im)

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def __eq__(self, other):
        return isinstance(other, CPoly) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other: "CPoly") -> "CPoly":
        return CPoly(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CPoly") -> "CPoly":
        return CPoly(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CPoly":
        return CPoly(-self.re, -self.im)

    def __mul__(self, other: "CPoly") -> "CPoly":
        return CPoly(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    def scale(self, q) -> "CPoly":
        return CPoly(self.re.scale(q), self.im.scale(q))

    def scale_complex(self, re, im) -> "CPoly":
        """Multiply by the constant re + i*im (exact rationals)."""
        return CPoly(self.re.scale(re) - self.im.scale(im),
                     self.re.scale(im) + self.im.scale(re))

    def times_i(self) -> "CPoly":
        return CPoly(-self.im, self.re)

    def times_minus_i(self) -> "CPoly":
        return CPoly(self.im, -self.re)

    def times_poly(self, p: MuPolynomial) -> "CPoly":
        return CPoly(self.re * p, self.im * p)

    def evaluate(self, mu: float) -> complex:
        return complex(float(self.re.evaluate(Fraction(mu))),
                       float(self.im.evaluate(Fraction(mu))))

    def __repr__(self):
        return f"CPoly({self.re!r}, {self.im!r})"


CPoly.ZERO = CPoly()


class GaussPoly:
    """psi(x) = (sum_n c_n x^n) exp(-x^2/2), coefficients exact CPoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def basis(cls, n: int) -> "GaussPoly":
        """x^n exp(-x^2/2)."""
        return cls([CPoly.ZERO] * n + [CPoly(1)])

    @classmethod
    def gaussian(cls) -> "GaussPoly":
        return cls.basis(0)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> CPoly:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return CPoly.ZERO

    def __eq__(self, other):
        return isinstance(other, GaussPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return GaussPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "GaussPoly") -> "GaussPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return GaussPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def scale_complex(self, re, im) -> "GaussPoly":
        return GaussPoly([c.scale_complex(re, im) for c in self.coeffs])

    def evaluate(self, x: np.ndarray, mu: float) -> np.ndarray:
        """psi on a grid, coefficients specialized at mu."""
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape, dtype=complex)
        for c in reversed(self.coeffs):
            acc = acc * x + c.evaluate(mu)
        return acc * np.exp(-0.5 * x * x)

    def max_coeff_magnitude(self, mu: float) -> float:
        return max((abs(c.evaluate(mu)) for c in self.coeffs), default=0.0)

    def __repr__(self):
        return f"GaussPoly({list(self.coeffs)!r})"


def apply_Q(psi: GaussPoly) -> GaussPoly:
    """Multiplication by x: shift all coefficients up one degree."""
    if psi.is_zero:
        return psi
    return GaussPoly((CPoly.ZERO,) + psi.coeffs)


def apply_J(psi: GaussPoly) -> GaussPoly:
    """Parity: c_n -> (-1)^n c_n (the Gaussian factor is even)."""
    return GaussPoly([c if n % 2 == 0 else -c
                      for n, c in enumerate(psi.coeffs)])


def _derivative(psi: GaussPoly) -> GaussPoly:
    # (p e^{-x^2/2})' = (p' - x p) e^{-x^2/2}
    d = psi.degree
    out = []
    for n in range(d + 2):
        term = CPoly.ZERO
        if n + 1 <= d:
            term = term + psi.coeff(n + 1).scale(n + 1)
        if n >= 1:
            term = term - psi.coeff(n - 1)
        out.append(term)
    return GaussPoly(out)


def apply_P(psi: GaussPoly, kappa=Fraction(1)) -> GaussPoly:
    """(1/i)(psi' + kappa mu (psi - J psi)/x).

    The reflection difference has only odd powers, so dividing by x is an
    exact one-degree shift down.  kappa defaults to the value consistent
    with i[P,Q] = I + 2 mu J.
    """
    kappa = Fraction(kappa)
    deriv = _derivative(psi)
    refl = []
    for n in range(max(psi.degree, 0)):
        c = psi.coeff(n + 1)
        if (n + 1) % 2:  # odd powers survive psi - J psi, doubled
            refl.append(c.scale(2 * kappa).times_poly(MU))
        else:
            refl.append(CPoly.ZERO)
    total = deriv + GaussPoly(refl)
    return GaussPoly([c.times_minus_i() for c in total.coeffs])


def apply_H(psi: GaussPoly, kappa=Fraction(1)) -> GaussPoly:
    """H = (Q^2 + P^2)/2, composed exactly."""
    qq = apply_Q(apply_Q(psi))
    pp = apply_P(apply_P(psi, kappa), kappa)
    return (qq + pp).scale_complex(Fraction(1, 2), 0)


def ccr_residual(psi: GaussPoly, kappa=Fraction(1)) -> GaussPoly:
    """i(P(Q psi) - Q(P psi)) - psi - 2 mu J psi; identically zero iff the
    deformed canonical commutation relation holds on psi."""
    comm = apply_P(apply_Q(psi), kappa) - apply_Q(apply_P(psi, kappa))
    i_comm = GaussPoly([c.times_i() for c in comm.coeffs])
    two_mu_j = GaussPoly([c.times_poly(MU).scale(2)
                          for c in apply_J(psi).coeffs])
    return i_comm - psi - two_mu_j


def _fit_constant(target: GaussPoly, reference: GaussPoly):
    """The unique complex constant c with target = c * reference, or None.

    Solves coefficient-wise: c = (a b~)/(b b~) must reduce to a mu-free
    rational constant, the same for every coefficient index.
    """
    candidate = None
    for n in range(max(target.degree, reference.degree) + 1):
        a, b = target.coeff(n), reference.coeff(n)
        if b.is_zero:
            if not a.is_zero:
                return None
            continue
        den = b.re * b.re + b.im * b.im
        n_re = a.re * b.re + a.im * b.im
        n_im = a.im * b.re - a.re * b.im

        def as_const(num):
            if num.is_zero:
                return Fraction(0)
            if num.degree != den.degree:
                return None
            q = num.lead / den.lead
            return q if num == den.scale(q) else None

        c_re, c_im = as_const(n_re), as_const(n_im)
        if c_re is None or c_im is None:
            return None
        if candidate is None:
            candidate = (c_re, c_im)
        elif candidate != (c_re, c_im):
            return None
    return candidate


@dataclass
class EomReport:
    """Equations-of-motion check [H,Q] ~ P and [H,P] ~ Q on a given psi.

    residual_q / residual_p are computed against the supplied constants
    (defaults: the printed, convention-dependent claim [H,Q]=P, [H,P]=-Q);
    fitted_c1 / fitted_c2 are the unique constants actually making the
    commutators proportional, as exact (re, im) pairs, or None.
    """

    residual_q: GaussPoly
    residual_p: GaussPoly
    fitted_c1: tuple[Fraction, Fraction] | None
    fitted_c2: tuple[Fraction, Fraction] | None
    c1: tuple[Fraction, Fraction]
    c2: tuple[Fraction, Fraction]

    @property
    def residuals_vanish(self) -> bool:
        return self.residual_q.is_zero and self.residual_p.is_zero

    def fitted_as_complex(self):
        out = []
        for c in (self.fitted_c1, self.fitted_c2):
            out.append(None if c is None else complex(float(c[0]), float(c[1])))
        return tuple(out)


def _as_pair(c) -> tuple[Fraction, Fraction]:
    if isinstance(c, tuple):
        return Fraction(c[0]), Fraction(c[1])
    c = complex(c)
    return Fraction(c.real), Fraction(c.imag)


def eom_residuals(psi: GaussPoly, c1=1, c2=-1, kappa=Fraction(1)) -> EomReport:
    """Residuals [H,Q]psi - c1 P psi and [H,P]psi - c2 Q psi, plus the
    fitted constants that make each commutator a multiple of the target."""
    c1p, c2p = _as_pair(c1), _as_pair(c2)
    hq = (apply_H(apply_Q(psi), kappa) - apply_Q(apply_H(psi, kappa)))
    hp = (apply_H(apply_P(psi, kappa), kappa)
          - apply_P(apply_H(psi, kappa), kappa))
    p_psi = apply_P(psi, kappa)
    q_psi = apply_Q(psi)
    return EomReport(
        residual_q=hq - p_psi.scale_complex(*c1p),
        residual_p=hp - q_psi.scale_complex(*c2p),
        fitted_c1=_fit_constant(hq, p_psi),
        fitted_c2=_fit_constant(hp, q_psi),
        c1=c1p, c2=c2p,
    )


# --- numeric deformed Fourier transform ---------------------------------------

def _support_radius(psi: GaussPoly, mu: float, abs_tol: float) -> float:
    """R with (max coeff) (1+R)^deg e^{-R^2/2} (1+R) max(1, R^{2 mu}) below
    a tenth of abs_tol: beyond R the Gaussian envelope is negligible."""
    cmax = max(psi.max_coeff_magnitude(mu), 1e-300)
    deg = max(psi.degree, 0)
    R = 2.0
    while R < 40.0:
        envelope = (cmax * (1.0 + R) ** deg * math.exp(-0.5 * R * R)
                    * (1.0 + R) * max(1.0, R ** (2.0 * mu)))
        if envelope < 0.1 * abs_tol:
            return R
        R *= 1.25
    return R


def fourier_mu_numeric(psi: GaussPoly | Sequence[GaussPoly], k_points,
                       ctx: MuContext,
                       spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """F_mu psi (k) = integral of exp_mu(-i k x) psi(x) dm_mu(x).

    psi is one GaussPoly (result of shape k.shape) or a sequence of them
    (result of shape (n, len(k))); a sequence shares one radius R, the
    largest of the Gaussian envelope bounds, and one kernel matrix per
    refinement level.  The measure and the panel rule on [-R, R] are
    mirror-symmetric and exp_mu(-ikx) = C(|kx|) - i S(kx) with C even and
    S odd, so each level evaluates the kernel once, on unique(|k|) times
    the nodes x > 0 of the rule on (0, R):

        F(k) = C @ (w (psi(x) + psi(-x))) - i sign(k) S @ (w (psi(x) - psi(-x)))

    which is the full-grid sum exactly, for any k.  Refinement stops when
    successive levels agree within the spec tolerances at every requested
    k, for every function.
    """
    single = isinstance(psi, GaussPoly)
    psis = [psi] if single else list(psi)
    k = np.asarray(list(k_points), dtype=float)
    if k.size == 0 or all(p.is_zero for p in psis):
        return np.zeros(k.shape if single else (len(psis), k.size),
                        dtype=complex)
    R = max(_support_radius(p, ctx.mu, spec.abs_tol)
            for p in psis if not p.is_zero)
    domain = IntervalSet.of((0.0, R))  # panel splitter is weight-aware at 0
    ak, inv = np.unique(np.abs(k), return_inverse=True)
    odd_factor = -1j * np.sign(k)
    prev = None
    diff = math.inf
    for level in range(spec.max_subdivisions + 1):
        x, w = weighted_panel_rule(domain, ctx, 2 ** level,
                                   spec.nodes_per_panel)
        mirrored = np.concatenate((x, -x))
        both = np.array([p.evaluate(mirrored, ctx.mu) for p in psis])
        plus, minus = both[:, :x.size], both[:, x.size:]
        kernel = exp_mu_imag_on_grid(np.outer(ak, x), ctx)
        even = (w * (plus + minus)) @ kernel.real.T
        odd = (w * (plus - minus)) @ kernel.imag.T
        vals = even[:, inv] + odd_factor * odd[:, inv]
        if prev is not None:
            change = np.max(np.abs(vals - prev), axis=1)
            diff = float(np.max(change))
            if np.all(change <= np.maximum(
                    spec.abs_tol, spec.rel_tol * np.max(np.abs(vals), axis=1))):
                return vals[0] if single else vals
        prev = vals
    raise EvaluationError(
        f"deformed Fourier quadrature did not converge (last change {diff:.3g})",
        best=prev[0] if single else prev)


@dataclass
class IntertwiningReport:
    """Pointwise comparison of F_mu(P_mu psi) against k * (F_mu psi)(k)."""

    k_points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    max_discrepancy: float

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "k": [float(k) for k in self.k_points],
            "discrepancy": [float(abs(l - r))
                            for l, r in zip(self.lhs, self.rhs)],
            "max_discrepancy": self.max_discrepancy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def intertwining_check(psi: GaussPoly, k_points, ctx: MuContext,
                       spec: QuadratureSpec = QuadratureSpec(),
                       kappa=Fraction(1)) -> IntertwiningReport:
    """Check F_mu P_mu = Q_mu F_mu pointwise on k_points."""
    k = np.asarray(list(k_points), dtype=float)
    lhs, transformed = fourier_mu_numeric([apply_P(psi, kappa), psi], k,
                                          ctx, spec)
    rhs = k * transformed
    gap = float(np.max(np.abs(lhs - rhs))) if k.size else 0.0
    return IntertwiningReport(k_points=k, lhs=lhs, rhs=rhs,
                              max_discrepancy=gap)


# --- literal syntax -----------------------------------------------------------

_GAUSS_TAIL = re.compile(r"\*?\s*gauss\s*$", re.IGNORECASE)


def _frac_atom(text: str) -> Fraction:
    """A signed rational atom: "2", "-1/3", "0.5", "" / "+" / "-" for ±1."""
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return Fraction(text)


def _parse_complex(text: str) -> CPoly:
    """Sum of real and imaginary atoms: "1+2i", "-1/2-i", "3", "2i"."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty coefficient")
    out = CPoly.ZERO
    start = 0
    for idx in range(1, len(text) + 1):
        at_end = idx == len(text)
        if at_end or (text[idx] in "+-" and text[idx - 1] not in "+-/."):
            atom = text[start:idx]
            if atom.endswith("i"):
                out = out + CPoly(0, _frac_atom(atom[:-1]))
            else:
                out = out + CPoly(_frac_atom(atom), 0)
            start = idx
    return out


def _parse_term(raw: str):
    """One monomial: optional coefficient times optional x power."""
    t = raw.strip()
    if "x" in t:
        cpart, xpart = t.split("x", 1)
        cpart = cpart.strip().rstrip("*").strip()
        xpart = xpart.strip()
        if xpart == "":
            power = 1
        elif xpart.startswith("^") and xpart[1:].strip().isdigit():
            power = int(xpart[1:])
        else:
            raise ValueError(f"cannot parse monomial {raw!r}")
    else:
        cpart, power = t, 0
    if cpart in ("", "+", "-"):
        if power == 0 and cpart == "":
            raise ValueError(f"empty term {raw!r}")
        coef = CPoly(_frac_atom(cpart), 0)
    elif cpart.startswith("(") and cpart.endswith(")"):
        coef = _parse_complex(cpart[1:-1])
    else:
        coef = _parse_complex(cpart)
    return power, coef


def parse_gauss_poly(text: str) -> GaussPoly:
    """Parse literals like "(1 + 2x^3) * gauss" or "(1+2i)x^2 * gauss".

    The trailing "* gauss" marks the fixed Gaussian factor and is
    mandatory.  Terms are separated by top-level +/-; complex coefficients
    are written "a+bi", parenthesized when attached to a power of x.
    """
    stripped, count = _GAUSS_TAIL.subn("", text.strip())
    if count != 1 or "gauss" in stripped.lower():
        raise ValueError(
            f"gauss-poly literal must end with '* gauss': {text!r}")
    body = stripped.strip() or "1"  # bare "gauss" is the unit Gaussian
    if body.startswith("(") and body.endswith(")"):
        # strip outer grouping parens iff they match each other
        depth = 0
        for idx, ch in enumerate(body):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and idx < len(body) - 1:
                break
        else:
            body = body[1:-1]
    if not body.strip():
        raise ValueError(f"empty polynomial in {text!r}")
    terms = []
    depth = 0
    start = 0
    for idx, ch in enumerate(body):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and ch in "+-" and idx > start:
            prev = body[start:idx].rstrip()
            if prev and prev[-1] not in "+-*/^(":
                terms.append(body[start:idx])
                start = idx
    terms.append(body[start:])

    coeffs: dict[int, CPoly] = {}
    for raw in terms:
        if not raw.strip():
            raise ValueError(f"cannot parse {text!r}")
        power, coef = _parse_term(raw)
        coeffs[power] = coeffs.get(power, CPoly.ZERO) + coef
    top = max(coeffs)
    return GaussPoly([coeffs.get(n, CPoly.ZERO) for n in range(top + 1)])
