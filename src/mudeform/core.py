"""Numeric mu-deformed special functions.

Implements the deformed factorial, the deformed exponential and the squared
modulus of the deformed exponential on the imaginary axis.  The hot path is
one closed form: in rank one exp_mu(is) is the Dunkl kernel
j_{mu-1/2}(|s|) + i s/(2mu+1) j_{mu+1/2}(|s|), with the normalized Bessel
function j_a(t) = Gamma(a+1) (2/t)^a J_a(t), for every mu > -1/2.  The
independent routes stay as oracles: the power series, the rearranged
even-power series with exact rational coefficients and, for mu > 0, the
integral representation against the probability measure eta_mu on [-1,1]
with Jacobi weight (1-t)^(mu-1) (1+t)^mu.

Series evaluations track truncation and cancellation; when cancellation
exceeds the escalation threshold the sum is repeated with arbitrary-
precision floats at four times working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln, gammaln, jv

from .errors import EvaluationError

MU_MIN = -0.5 + 1e-6
LOG_SPACE_THRESHOLD = 150      # gamma_mu switches to log-space beyond this n
CANCELLATION_ESCALATION = 1e8  # re-evaluate in extended precision past this
ESCALATED_PREC_BITS = 4 * 53   # "4x working precision"
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class MuContext:
    """Deformation parameter mu and the normalization constant of m_mu.

    The measure density is norm_const * |x|^(2 mu) with
    norm_const = [2^(mu+1/2) Gamma(mu+1/2)]^(-1).
    """

    mu: float
    norm_const: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > MU_MIN):
            raise ValueError(f"need finite mu > -1/2 + 1e-6, got {self.mu}")
        log_nc = -(self.mu + 0.5) * math.log(2.0) - gammaln(self.mu + 0.5)
        object.__setattr__(self, "norm_const", math.exp(log_nc))

    @property
    def mu_fraction(self) -> Fraction:
        """Exact binary rational mu, for even_coeff and the exact oracle."""
        return Fraction(self.mu)


@dataclass
class SeriesResult:
    """A truncated power-series value with its error diagnostics.

    cancellation is the largest intermediate partial-sum magnitude divided
    by the result magnitude (>= 1); values much above 1 mean the final
    digits were produced by cancellation of large terms.
    """

    value: complex
    terms_used: int
    trunc_error: float
    cancellation: float
    escalated: bool = False


@dataclass(frozen=True)
class JacobiRule:
    """Gauss rule for the probability measure eta_mu on (-1, 1).

    weights are normalized to sum to one; raw_mass is the unnormalized
    total mass of the Jacobi weight (1-t)^(mu-1) (1+t)^mu, which equals the
    beta value B(1/2, mu).
    """

    nodes: np.ndarray
    weights: np.ndarray
    raw_mass: float
    mu: float


def _odd(n: int) -> int:
    return n & 1


def gamma_mu(n: int, ctx: MuContext) -> float:
    """Deformed factorial gamma_mu(n) = (n + 2 mu [n odd]) gamma_mu(n-1).

    Computed by direct recursion up to n=150 and in log-space beyond;
    raises OverflowError when the value exceeds float range.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= LOG_SPACE_THRESHOLD:
        acc = 1.0
        for m in range(1, n + 1):
            acc *= m + 2.0 * ctx.mu * _odd(m)
        if math.isinf(acc):
            raise OverflowError(f"gamma_mu({n}) overflows float range")
        return acc
    lg = log_gamma_mu(n, ctx)
    if lg > _LOG_FLOAT_MAX:
        raise OverflowError(
            f"gamma_mu({n}) overflows float range; use log_gamma_mu instead")
    return math.exp(lg)


def log_gamma_mu(n: int, ctx: MuContext) -> float:
    """log gamma_mu(n); every recursion step is strictly positive."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(math.log(m + 2.0 * ctx.mu * _odd(m)) for m in range(1, n + 1))


def deformed_binomial(k: int, j: int, ctx: MuContext) -> float:
    """gamma_mu(k) / (gamma_mu(k-j) gamma_mu(j)); strictly positive."""
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got k={k}, j={j}")
    if k <= LOG_SPACE_THRESHOLD:
        return gamma_mu(k, ctx) / (gamma_mu(j, ctx) * gamma_mu(k - j, ctx))
    return math.exp(
        log_gamma_mu(k, ctx) - log_gamma_mu(j, ctx) - log_gamma_mu(k - j, ctx))


def binomial_poly(k: int, x: complex, y: complex, ctx: MuContext) -> complex:
    """The k-th deformed binomial polynomial sum_j binom_mu(k,j) x^j y^(k-j)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    total = 0.0 + 0.0j
    for j in range(k + 1):
        total += deformed_binomial(k, j, ctx) * (x ** j) * (y ** (k - j))
    return total


# --- deformed exponential: power series --------------------------------------

def _series_sum_float(z: complex, mu: float, tol: float, max_terms: int):
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    peak = 1.0
    consecutive = 0
    az = abs(z)
    n = 0
    for n in range(1, max_terms + 1):
        term *= z / (n + 2.0 * mu * _odd(n))
        total += term
        peak = max(peak, abs(total))
        if abs(term) <= tol * abs(total) and n > az:
            consecutive += 1
            if consecutive >= 3:
                break
        else:
            consecutive = 0
    else:
        raise EvaluationError(
            f"exp_mu series did not converge in {max_terms} terms for |z|={az:.3g}")
    return total, term, n, peak


def _series_sum_mp(z: complex, mu: float, tol: float, max_terms: int, prec_bits: int):
    with mpmath.workprec(prec_bits):
        zz = mpmath.mpc(z)
        mu_mp = mpmath.mpf(mu)
        total = mpmath.mpc(1)
        term = mpmath.mpc(1)
        peak = mpmath.mpf(1)
        consecutive = 0
        az = abs(z)
        stop_tol = mpmath.mpf(tol)
        for n in range(1, max_terms + 1):
            term *= zz / (n + 2 * mu_mp * _odd(n))
            total += term
            peak = max(peak, abs(total))
            if abs(term) <= stop_tol * abs(total) and n > az:
                consecutive += 1
                if consecutive >= 3:
                    break
            else:
                consecutive = 0
        else:
            raise EvaluationError(
                f"escalated exp_mu series did not converge in {max_terms} terms")
        return complex(total), float(abs(term)), n, float(peak / abs(total))


def _geometric_tail(last_term: float, az: float, n: int, mu: float) -> float:
    # Later denominators are at least n+1+min(0, 2 mu); the stopping rule
    # guarantees n > |z| so the ratio is below one.
    r = az / (n + 1 + min(0.0, 2.0 * mu))
    if r >= 1.0:
        return math.inf
    return last_term * r / (1.0 - r)


def exp_mu_series(z: complex, ctx: MuContext, tol: float = 1e-15,
                  max_terms: int = 4000,
                  prec_bits: int = ESCALATED_PREC_BITS) -> SeriesResult:
    """exp_mu(z) = sum_n z^n / gamma_mu(n), truncated by the stopping rule.

    Stops once three consecutive terms are below tol relative to the
    partial sum and the index exceeds |z|; the discarded tail is bounded by
    geometric comparison.  Re-evaluates in extended precision when the
    cancellation diagnostic crosses the escalation threshold.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    z = complex(z)
    total, term, n, peak = _series_sum_float(z, ctx.mu, tol, max_terms)
    cancellation = peak / abs(total) if total != 0 else math.inf
    escalated = False
    if cancellation > CANCELLATION_ESCALATION:
        value, last, n, cancellation = _series_sum_mp(
            z, ctx.mu, tol, max_terms, prec_bits)
        total = value
        term = last
        escalated = True
        budget = 2.0 ** (prec_bits * 0.5)
        if cancellation > budget:
            raise EvaluationError(
                "cancellation exceeds the escalated precision budget; "
                "raise prec_bits", best=total)
    trunc = _geometric_tail(abs(term), abs(z), n, ctx.mu)
    return SeriesResult(value=total, terms_used=n + 1, trunc_error=trunc,
                        cancellation=max(1.0, cancellation), escalated=escalated)


# --- eta_mu: Gauss-Jacobi rule ------------------------------------------------

def gauss_jacobi(n: int, alpha: float, beta: float):
    """n-point Gauss rule for the weight (1-t)^alpha (1+t)^beta on [-1,1].

    Golub-Welsch: eigen-decompose the symmetric tridiagonal matrix built
    from the three-term recurrence of the (monic) Jacobi polynomials; the
    weights come from the first eigenvector components scaled by the total
    weight mass 2^(alpha+beta+1) B(alpha+1, beta+1).
    """
    if n < 1:
        raise ValueError("need at least one node")
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi parameters must exceed -1")
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    i = np.arange(1, n, dtype=float)
    diag[1:] = (beta ** 2 - alpha ** 2) / ((2 * i + ab) * (2 * i + ab + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        # first off-diagonal entry in its non-degenerate form (the generic
        # formula is 0/0 at alpha + beta = -1)
        off[0] = math.sqrt(
            4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0)))
        i = i[1:]
        num = 4.0 * i * (i + alpha) * (i + beta) * (i + ab)
        s = 2.0 * i + ab
        off[1:] = np.sqrt(num / (s ** 2 * (s ** 2 - 1.0)))
    if n == 1:
        nodes, vecs = np.array([diag[0]]), np.array([[1.0]])
    else:
        nodes, vecs = eigh_tridiagonal(diag, off)
    mass = math.exp((ab + 1.0) * math.log(2.0) + betaln(alpha + 1.0, beta + 1.0))
    weights = mass * vecs[0, :] ** 2
    return nodes, weights


def eta_rule(ctx: MuContext, n_nodes: int) -> JacobiRule:
    """Gauss rule for the probability measure eta_mu, mu > 0 only.

    d eta_mu(t) = B(1/2, mu)^(-1) (1-t)^(mu-1) (1+t)^mu dt on [-1, 1].
    The raw (unnormalized) mass is computed from the Jacobi-weight side as
    2^(2 mu) B(mu, mu+1); that it equals B(1/2, mu) is a checked identity,
    not an input.
    """
    if ctx.mu <= 0:
        raise ValueError(
            "the integral representation of exp_mu requires mu > 0")
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    nodes, raw = gauss_jacobi(n_nodes, ctx.mu - 1.0, ctx.mu)
    mass = float(np.sum(raw))
    return JacobiRule(nodes=nodes, weights=raw / mass, raw_mass=mass, mu=ctx.mu)


@lru_cache(maxsize=64)
def _cached_eta_rule(mu: float, n_nodes: int) -> JacobiRule:
    return eta_rule(MuContext(mu), n_nodes)


ETA_NODES_CAP = 1200


def default_eta_nodes(s_max: float) -> int:
    """Node count comfortably resolving e^{ist} on [-1,1] for |s| <= s_max.

    Past ETA_NODES_CAP nodes the capped rule would be under-resolved, so this
    raises EvaluationError there; the integral oracle then needs a rule.
    """
    n_nodes = int(2.2 * abs(s_max)) + 40
    if n_nodes > ETA_NODES_CAP:
        raise EvaluationError(
            f"the default eta_mu rule (at most {ETA_NODES_CAP} nodes) does not "
            f"resolve e^(ist) for |s| = {abs(s_max):.3g}; pass a finer rule")
    return max(48, n_nodes)


def exp_mu_integral(z: complex, ctx: MuContext, rule: JacobiRule | None = None) -> complex:
    """exp_mu(z) via the integral representation against eta_mu (mu > 0)."""
    if ctx.mu <= 0:
        raise ValueError(
            "the integral representation of exp_mu requires mu > 0")
    if rule is None:
        rule = _cached_eta_rule(ctx.mu, default_eta_nodes(abs(z)))
    return complex(np.sum(rule.weights * np.exp(complex(z) * rule.nodes)))


# --- |exp_mu(i s)|^2: three oracle routes, then the closed-form kernel -------

EVEN_COEFF_TABLES = 64  # per-mu coefficient tables kept, least recent dropped


@lru_cache(maxsize=EVEN_COEFF_TABLES)
def _even_coeff_table(mu: Fraction) -> list[Fraction]:
    return [Fraction(1)]


def even_coeff(j: int, mu: Fraction) -> Fraction:
    """c_j = p_{2j,mu}(-1,1) / gamma_mu(2j), exactly, at rational mu.

    The paper's product identities for p_{4n-2,mu}(-1,1) and p_{4n,mu}(-1,1),
    with gamma_mu(2j) = 4^j j! (mu+1/2)_j, give c_i / c_{i-1} =
    (mu+i-1) / (i (2mu+i) (mu+i-1/2)); per-mu tables grow on demand.
    """
    table = _even_coeff_table(mu)
    while len(table) <= j:
        i = len(table)
        table.append(table[-1] * (
            (mu + i - 1) / (i * (2 * mu + i) * (mu + i - Fraction(1, 2)))))
    return table[j]


def _abs2_product(s: float, ctx: MuContext, tol: float, prec_bits: int) -> float:
    r = exp_mu_series(1j * s, ctx, tol=tol, prec_bits=prec_bits)
    return abs(r.value) ** 2


def even_series_result(s: float, ctx: MuContext, tol: float = 1e-15,
                       prec_bits: int = ESCALATED_PREC_BITS) -> SeriesResult:
    """|exp_mu(i s)|^2 as sum_j (-1)^j p_{2j,mu}(-1,1) s^{2j} / gamma_mu(2j),
    with diagnostics.

    Coefficients are exact rationals (even_coeff), so the only float error
    is in the alternating outer sum; it is monitored and escalated.  Note
    this sum cancels like e^(2|s|), twice as hard as the complex series.
    """
    muf = ctx.mu_fraction
    s2 = s * s

    def run_float():
        total = 1.0
        power = 1.0
        peak = 1.0
        last = 0.0
        consecutive = 0
        for j in range(1, 400):
            power *= s2
            term = (-1.0) ** j * float(even_coeff(j, muf)) * power
            total += term
            last = abs(term)
            peak = max(peak, abs(total))
            if last <= tol * max(abs(total), 1e-300) and 2 * j > abs(s):
                consecutive += 1
                if consecutive >= 3:
                    return total, peak, last, j
            else:
                consecutive = 0
        raise EvaluationError("even series for |exp_mu(is)|^2 did not converge")

    total, peak, last, j = run_float()
    cancellation = peak / abs(total) if total != 0 else math.inf
    escalated = False
    if cancellation > CANCELLATION_ESCALATION:
        escalated = True
        with mpmath.workprec(prec_bits):
            s2_mp = mpmath.mpf(s) ** 2
            total_mp = mpmath.mpf(1)
            power = mpmath.mpf(1)
            peak_mp = mpmath.mpf(1)
            consecutive = 0
            for j in range(1, 2000):
                power *= s2_mp
                c = even_coeff(j, muf)
                term = (-1) ** j * mpmath.mpf(c.numerator) / c.denominator * power
                total_mp += term
                peak_mp = max(peak_mp, abs(total_mp))
                if abs(term) <= tol * abs(total_mp) and 2 * j > abs(s):
                    consecutive += 1
                    if consecutive >= 3:
                        break
                else:
                    consecutive = 0
            else:
                raise EvaluationError("escalated even series did not converge")
            cancellation = float(peak_mp / abs(total_mp))
            if cancellation > 2.0 ** (prec_bits * 0.5):
                raise EvaluationError(
                    "cancellation exceeds the escalated precision budget")
            total = float(total_mp)
            last = float(abs(term))
    return SeriesResult(value=complex(total), terms_used=j + 1,
                        trunc_error=last, cancellation=max(1.0, cancellation),
                        escalated=escalated)


def _abs2_integral(s: float, ctx: MuContext, rule: JacobiRule | None) -> float:
    if ctx.mu <= 0:
        raise ValueError("method 'integral' requires mu > 0")
    if rule is None:
        rule = _cached_eta_rule(ctx.mu, default_eta_nodes(s))
    c = float(np.sum(rule.weights * np.cos(s * rule.nodes)))
    sn = float(np.sum(rule.weights * np.sin(s * rule.nodes)))
    return c * c + sn * sn


def abs2_exp_mu_imag(s: float, ctx: MuContext, method: str | None = None,
                     tol: float = 1e-15, rule: JacobiRule | None = None,
                     prec_bits: int = ESCALATED_PREC_BITS) -> float:
    """|exp_mu(i s)|^2 by the requested method.

    method 'product' squares the power-series value; 'even_series' sums the
    rearranged even-power series with exact rational coefficients;
    'integral' uses cos/sin moments of eta_mu (mu > 0 only).  These are the
    oracles; method=None evaluates the closed-form kernel of abs2_on_grid.
    """
    if method is None:
        return float(abs2_on_grid(s, ctx))
    if method == "product":
        return _abs2_product(s, ctx, tol, prec_bits)
    if method == "even_series":
        return even_series_result(s, ctx, tol, prec_bits).value.real
    if method == "integral":
        return _abs2_integral(s, ctx, rule)
    raise ValueError(f"unknown method {method!r}")


KERNEL_MU_MAX = 250.0  # beyond, Gamma(a+1) (2/t)^a overflows as J_a underflows
KERNEL_ABS2_FLOOR = 1e-12  # per-point error of abs2_on_grid over max(1, value)
_J_SERIES_TERMS = 20  # the first omitted term is below 1/20! < 5e-19


def _bessel_j_normalized(a: float, t: np.ndarray) -> np.ndarray:
    """j_a(t) = Gamma(a+1) (2/t)^a J_a(t) = 0F1(; a+1; -t^2/4) for a > 0, t >= 0.

    While t^2/4 < a+1 the 0F1 terms alternate and shrink, the k-th below
    1/k!, so a short series is exact to rounding and t = 0 needs no case of
    its own; beyond, jv of positive order is scaled in log space.
    """
    out = np.empty_like(t)
    near = t * t < 4.0 * (a + 1.0)
    x = -0.25 * t[near] ** 2
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, _J_SERIES_TERMS):
        term *= x / (k * (a + k))
        total += term
    out[near] = total
    far = t[~near]
    out[~near] = jv(a, far) * np.exp(gammaln(a + 1.0) + a * np.log(2.0 / far))
    return out


def exp_mu_imag_on_grid(svals: np.ndarray, ctx: MuContext) -> np.ndarray:
    """Vectorized exp_mu(i s) over an array of real s: the Dunkl kernel.

    exp_mu(is) = j_{nu-1}(|s|) + i s/(2nu) j_nu(|s|) with nu = mu + 1/2, and
    j_{nu-1} = j_nu - t^2/(4nu(nu+1)) j_{nu+1}, so only the positive orders
    nu and nu+1 are evaluated.  Accurate to KERNEL_ABS2_FLOOR relative to
    max(1, |value|) for every mu > -1/2 up to KERNEL_MU_MAX.
    """
    if ctx.mu > KERNEL_MU_MAX:
        raise EvaluationError(
            f"the closed-form exp_mu kernel is evaluated for mu <= "
            f"{KERNEL_MU_MAX:g}, got {ctx.mu}")
    svals = np.asarray(svals, dtype=float)
    t = np.abs(svals)
    nu = ctx.mu + 0.5
    j_nu = _bessel_j_normalized(nu, t)
    j_next = _bessel_j_normalized(nu + 1.0, t)
    return (j_nu - t * t / (4.0 * nu * (nu + 1.0)) * j_next) \
        + 1j * (svals / (2.0 * nu)) * j_nu


def abs2_on_grid(svals: np.ndarray, ctx: MuContext) -> np.ndarray:
    """Vectorized |exp_mu(i s)|^2 over an array of real s."""
    vals = exp_mu_imag_on_grid(svals, ctx)
    return vals.real ** 2 + vals.imag ** 2


def abs2_grid_error_bound(peak: float) -> float:
    """Per-point absolute error of abs2_on_grid where every value is <= peak."""
    return KERNEL_ABS2_FLOOR * max(1.0, peak)
