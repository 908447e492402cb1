"""Numeric mu-deformed special functions.

Implements the deformed factorial and binomials, each one product loop, the
deformed exponential and the squared modulus of the deformed exponential on
the imaginary axis.  The hot path is one closed form: in rank one
exp_mu(is) is the Dunkl kernel j_{mu-1/2}(|s|) + i s/(2mu+1) j_{mu+1/2}(|s|),
with the normalized Bessel function j_a(t) = Gamma(a+1) (2/t)^a J_a(t), for
every mu > -1/2; _bessel_pair evaluates j_a and j_(a+1) together in numpy
alone (a 0F1 series, Miller's backward recurrence or Hankel's expansion, by
regime).  Every Gauss rule comes from one Golub-Welsch routine,
gauss_jacobi.  The independent routes stay as oracles, each its own
function: the power series (exp_mu_series), the rearranged even-power series
(even_series_result) and, for mu > 0, the integral representation against
the probability measure eta_mu on [-1,1] with Jacobi weight
(1-t)^(mu-1) (1+t)^mu (exp_mu_integral).  The oracles give |exp_mu(is)|^2
as the even series' value or as the squared modulus of their exp_mu(is).

Both series run on one engine, _sum_series, which sums
t_n = t_(n-1) ratio(n) in whatever arithmetic ratio returns.  It sums in
floats first; when that pass's rounding bound exceeds the kernel's error
floor, KERNEL_ABS2_FLOOR max(1, |value|), it sums again in mpmath, at four
times working precision or at twice the bits of the float pass's peak
partial sum plus 64, whichever is more.  Every result carries a truncation
bound and a rounding bound whose sum bounds its true error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np

from .errors import EvaluationError

MU_MIN = -0.5 + 1e-6
ESCALATED_PREC_BITS = 4 * 53   # "4x working precision"
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)


def _check_mu(mu: float) -> None:
    """Raise ValueError naming mu unless it is finite and above MU_MIN."""
    if not (math.isfinite(mu) and mu > MU_MIN):
        raise ValueError(f"need finite mu > -1/2 + 1e-6, got {mu}")


@dataclass(frozen=True)
class MuContext:
    """Deformation parameter mu and the normalization constant of m_mu.

    The measure density is norm_const * |x|^(2 mu) with
    norm_const = [2^(mu+1/2) Gamma(mu+1/2)]^(-1), an mpmath.mpf of 113 bits
    that neither underflows nor overflows at any mu: the one stored copy,
    read by measure._density_scale and the deformed Fourier transform.  The
    constructor computes it, so mpmath's one-time set-up for Gamma falls in
    building a context, not in its first evaluation.
    """

    mu: float
    norm_const: mpmath.mpf = field(init=False)

    def __post_init__(self):
        _check_mu(self.mu)
        with mpmath.workprec(113):
            object.__setattr__(self, "norm_const", norm_const_mp(self.mu))


def norm_const_mp(mu):
    """[2^(mu+1/2) Gamma(mu+1/2)]^(-1) at the current mpmath precision."""
    mu = mpmath.mpf(mu)
    return 1 / (mpmath.power(2, mu + 0.5) * mpmath.gamma(mu + 0.5))


@dataclass
class SeriesResult:
    """A truncated power-series value with its error diagnostics.

    trunc_error bounds the discarded tail and rounding_error the arithmetic
    error of the summed terms and of the final rounding to a float, so
    |value - exact| <= trunc_error + rounding_error.  cancellation is the
    largest intermediate partial-sum magnitude divided by the result
    magnitude (>= 1); values much above 1 mean the final digits were
    produced by cancellation of large terms.
    """

    value: complex
    terms_used: int
    trunc_error: float
    rounding_error: float
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


def _odd(n: int) -> int:
    return n & 1


def gamma_mu(n: int, ctx: MuContext) -> float:
    """Deformed factorial gamma_mu(n) = (n + 2 mu [n odd]) gamma_mu(n-1).

    Computed by that recursion; raises OverflowError when the value exceeds
    float range.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = 1.0
    for m in range(1, n + 1):
        acc *= m + 2.0 * ctx.mu * _odd(m)
    if math.isinf(acc):
        raise OverflowError(f"gamma_mu({n}) overflows float range")
    return acc


def deformed_binomial(k: int, j: int, ctx: MuContext) -> float:
    """gamma_mu(k) / (gamma_mu(k-j) gamma_mu(j)); strictly positive.

    One product of r = min(j, k-j) ratios
    (k-r+i + 2 mu [k-r+i odd]) / (i + 2 mu [i odd]), i = 1..r, so no
    deformed factorial is formed; raises OverflowError when the product
    exceeds float range.
    """
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got k={k}, j={j}")
    r = min(j, k - j)
    two_mu = 2.0 * ctx.mu
    acc = 1.0
    for i in range(1, r + 1):
        acc *= (k - r + i + two_mu * _odd(k - r + i)) / (i + two_mu * _odd(i))
    if math.isinf(acc):
        raise OverflowError(f"deformed_binomial({k}, {j}) overflows float range")
    return acc


def binomial_poly(k: int, x: complex, y: complex, ctx: MuContext) -> complex:
    """The k-th deformed binomial polynomial sum_j binom_mu(k,j) x^j y^(k-j)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    total = 0.0 + 0.0j
    for j in range(k + 1):
        total += deformed_binomial(k, j, ctx) * (x ** j) * (y ** (k - j))
    return total


# --- the series engine and the power series ----------------------------------

SERIES_REL_TOL = 1e-15  # stop once three terms in a row are this small
SERIES_MAX_TERMS = 4000


def _sum_series(ratio, n_min: float):
    """Sum t_0 = 1, t_n = t_(n-1) ratio(n) in whatever arithmetic ratio returns.

    Stops once three consecutive terms are below SERIES_REL_TOL relative to
    the partial sum and n > n_min.  Returns the sum, the number of terms,
    the largest partial-sum magnitude, sum |t_n| and the truncation bound
    |t_n| r / (1 - r), r the larger of the next two |ratio|: every later
    ratio is that small while |ratio| falls along each parity.  A partial
    sum that is not finite (float overflow) ends the sum at once, with an
    infinite peak.
    """
    total = term = peak = abs_sum = 1
    consecutive = 0
    for n in range(1, SERIES_MAX_TERMS + 1):
        term *= ratio(n)
        total += term
        if not abs(total) < math.inf:  # inf or nan
            return total, n + 1, math.inf, abs_sum, math.inf
        peak = max(peak, abs(total))
        abs_sum += abs(term)
        if abs(term) <= SERIES_REL_TOL * abs(total) and n > n_min:
            consecutive += 1
            if consecutive == 3:
                break
        else:
            consecutive = 0
    else:
        raise EvaluationError(f"series did not converge in {n} terms")
    r = max(abs(ratio(n + 1)), abs(ratio(n + 2)))
    if not term:  # a zero ratio ended the series exactly (even series, mu = 0)
        tail = 0
    else:
        tail = abs(term) * r / (1 - r) if r < 1 else math.inf
    return total, n + 1, peak, abs_sum, tail


def _escalated_prec_bits(peak: float) -> int:
    """Bits for the escalated pass: a sum whose partial sums reach peak
    rounds to about peak 2^-bits, so twice peak's bits plus 64 leave far
    more than double precision."""
    return max(ESCALATED_PREC_BITS, 2 * math.ceil(math.log2(peak)) + 64)


def _series_result(ratio_in, n_min: float) -> SeriesResult:
    """Run _sum_series on ratio_in(float arithmetic); where the float pass's
    rounding bound exceeds the kernel's error floor KERNEL_ABS2_FLOOR
    max(1, |value|), rerun it on ratio_in(mpmath.mpmathify) at the precision
    _escalated_prec_bits gives for the float pass's peak partial sum.

    The rounding bound is terms * 2^-bits * sum |t_n| with bits the pass's
    precision, plus 2 eps |value| for rounding an mpmath sum to a float.
    A sum whose rounding bound reaches its magnitude has no correct digit:
    that raises EvaluationError carrying it.
    """
    prec_bits, num = 53, (lambda x: x)  # a float's unit roundoff is 2^-53
    for escalated in (False, True):
        with mpmath.workprec(prec_bits):
            total, terms, peak, abs_sum, tail = _sum_series(ratio_in(num),
                                                            n_min)
            cancellation = float(peak / abs(total)) if total else math.inf
        if not math.isfinite(peak):
            raise EvaluationError("the partial sums leave float range")
        value = complex(total)
        rounding = (terms * 2.0 ** -prec_bits * float(abs_sum)
                    + 2 * _EPS * abs(value))
        if escalated or rounding <= KERNEL_ABS2_FLOOR * max(1.0, abs(value)):
            break
        prec_bits, num = _escalated_prec_bits(peak), mpmath.mpmathify
    if rounding >= abs(value):
        raise EvaluationError(
            f"cancellation {cancellation:.3g} leaves no correct digit at "
            f"{prec_bits} bits", best=value)
    return SeriesResult(value=value, terms_used=terms, trunc_error=float(tail),
                        rounding_error=rounding,
                        cancellation=max(1.0, cancellation), escalated=escalated)


def exp_mu_series(z: complex, ctx: MuContext) -> SeriesResult:
    """exp_mu(z) = sum_n z^n / gamma_mu(n), truncated by the stopping rule.

    Stops once three consecutive terms are below SERIES_REL_TOL relative to
    the partial sum and the index exceeds |z|; the discarded tail is bounded
    by geometric comparison.  Re-evaluates in extended precision when the
    float pass's rounding bound exceeds the kernel's error floor.
    """
    z = complex(z)

    def ratio_in(num):
        zz, two_mu = num(z), 2 * num(ctx.mu)
        return lambda n: zz / (n + two_mu * _odd(n))

    return _series_result(ratio_in, abs(z))


# --- eta_mu: Gauss-Jacobi rule ------------------------------------------------

@lru_cache(maxsize=256)
def gauss_jacobi(n: int, alpha: float, beta: float):
    """n-point Gauss rule for the weight (1-t)^alpha (1+t)^beta on [-1,1].

    Golub-Welsch: eigen-decompose the symmetric tridiagonal matrix built
    from the three-term recurrence of the (monic) Jacobi polynomials; the
    weights come from the first eigenvector components scaled by the total
    weight mass 2^(alpha+beta+1) B(alpha+1, beta+1).  alpha = beta = 0 is
    Gauss-Legendre.  The rule is cached, its arrays read-only.
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
    # eigh reads the lower triangle only
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    mass = math.exp((ab + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
                    + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0))
    weights = mass * vecs[0, :] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def eta_rule_exists(mu: float) -> bool:
    """True where the eta_mu rule can be built: its Jacobi parameter mu - 1
    must exceed -1 in floating point, which fails for mu <= 0 and for
    0 < mu below about 1e-16."""
    return mu - 1.0 > -1.0


def eta_rule(ctx: MuContext, n_nodes: int) -> JacobiRule:
    """Gauss rule for the probability measure eta_mu, mu > 0 only.

    d eta_mu(t) = B(1/2, mu)^(-1) (1-t)^(mu-1) (1+t)^mu dt on [-1, 1].
    The raw (unnormalized) mass is computed from the Jacobi-weight side as
    2^(2 mu) B(mu, mu+1); that it equals B(1/2, mu) is a checked identity,
    not an input.
    """
    if not eta_rule_exists(ctx.mu):
        raise ValueError(
            "the eta_mu rule requires mu > 0 with its Jacobi parameter "
            f"mu - 1 above -1 in floating point, got mu = {ctx.mu}")
    nodes, raw = gauss_jacobi(n_nodes, ctx.mu - 1.0, ctx.mu)
    mass = float(np.sum(raw))
    return JacobiRule(nodes=nodes, weights=raw / mass, raw_mass=mass)


ETA_NODES_CAP = 1200


def default_eta_nodes(s_max: float) -> int:
    """Node count comfortably resolving e^{ist} on [-1,1] for |s| <= s_max.

    Past ETA_NODES_CAP nodes the capped rule would be under-resolved, so this
    raises EvaluationError there, and the integral oracle with it.
    """
    n_nodes = int(2.2 * abs(s_max)) + 40
    if n_nodes > ETA_NODES_CAP:
        raise EvaluationError(
            f"the default eta_mu rule (at most {ETA_NODES_CAP} nodes) does not "
            f"resolve e^(ist) for |s| = {abs(s_max):.3g}")
    return max(48, n_nodes)


def exp_mu_integral(z: complex, ctx: MuContext) -> complex:
    """exp_mu(z) via the integral representation against eta_mu (mu > 0),
    on the rule of default_eta_nodes(|z|) nodes."""
    rule = eta_rule(ctx, default_eta_nodes(abs(z)))
    return complex(np.sum(rule.weights * np.exp(complex(z) * rule.nodes)))


# --- |exp_mu(i s)|^2: the even-series oracle, then the closed-form kernel --

def even_series_result(s: float, ctx: MuContext) -> SeriesResult:
    """|exp_mu(i s)|^2 as sum_j (-1)^j p_{2j,mu}(-1,1) s^{2j} / gamma_mu(2j),
    with diagnostics.

    The coefficients c_j = p_{2j,mu}(-1,1) / gamma_mu(2j) follow from the
    paper's product identities for p_{4n-2,mu}(-1,1) and p_{4n,mu}(-1,1),
    with gamma_mu(2j) = 4^j j! (mu+1/2)_j, as c_j / c_{j-1} =
    (mu+j-1) / (j (2mu+j) (mu+j-1/2)).  Both passes of the series engine
    run the term ratio -s^2 c_j / c_{j-1} in their own arithmetic, from
    the float mu; the tests hold the exact c_j as its oracle.  This sum
    cancels like e^(2|s|), twice as hard as the complex series, and past
    |s| of about 354 that cancellation leaves float range: it fails fast.
    """
    if 2.0 * abs(s) > _LOG_FLOAT_MAX:
        raise EvaluationError(
            f"even series cancellation e^(2|s|) exceeds float range at "
            f"|s| = {abs(s):.3g}; use the closed-form kernel")

    def ratio_in(num):
        mu, step = num(ctx.mu), -num(s) ** 2
        return lambda j: step * (mu + (j - 1)) / (
            j * (2 * mu + j) * (mu + (j - 0.5)))

    return _series_result(ratio_in, abs(s) / 2)


KERNEL_MU_MAX = 250.0  # beyond, Gamma(a+1) (2/t)^a overflows as J_a underflows
KERNEL_ABS2_FLOOR = 1e-12  # per-point error of |exp_mu(is)|^2 over max(1, value)
_J_SERIES_TERMS = 20  # the first omitted term is below 1/20! < 5e-19
_HANKEL_TERMS = 15  # at t >= 40 and order <= 2 the first omitted term is < 2e-18


def _pair_series(a: float, t: np.ndarray):
    # 0F1(; a+1; -t^2/4) and 0F1(; a+2; -t^2/4): while t^2/4 < a+1 the
    # terms alternate and shrink, the k-th below 1/k!
    x = -0.25 * t * t
    term0, term1 = np.ones_like(x), np.ones_like(x)
    j0, j1 = np.ones_like(x), np.ones_like(x)
    for k in range(1, _J_SERIES_TERMS):
        term0 *= x / (k * (a + k))
        term1 *= x / (k * (a + 1.0 + k))
        j0 += term0
        j1 += term1
    return j0, j1


def _pair_miller(a: float, t: np.ndarray):
    # f_k proportional to J_(v0+k): f = 1 at k = n, f_(n+1) = 0, then
    # f_(k-1) = (2(v0+k)/t) f_k - f_(k+1) down to k = 0, normalized by the
    # Neumann sum (t/2)^v0 = sum_i h_i J_(v0+2i), h_i = (v0+2i) Gamma(v0+i)/i!.
    # Then j_a = Gamma(a+1) (2/t)^m f_m / sum_i h_i f_(2i).  For a <= 251.5
    # and t in the Miller interval the state stays below 2^940, far from
    # float range, so it needs no scaling.
    m = math.ceil(a) - 1
    v0 = a - m
    t_max = float(t.max())
    n = math.ceil(max(t_max, a) + 30.0 + 6.0 * t_max ** (1.0 / 3.0) - v0)
    g = math.gamma(v0 + 1.0)  # Gamma(v0+i)/i! for i >= 1
    h = [g]
    for i in range(1, n // 2 + 1):
        if i > 1:
            g *= (v0 + i - 1) / i
        h.append((v0 + 2 * i) * g)
    inv_t = 2.0 / t
    f, f_next, step = np.ones_like(t), np.zeros_like(t), np.empty_like(t)
    total, term = np.zeros_like(t), np.empty_like(t)
    for k in range(n, -1, -1):
        if k % 2 == 0:
            np.multiply(f, h[k // 2], out=term)
            total += term
        if k == m + 1:
            f_a1 = f.copy()
        elif k == m:
            f_a = f.copy()
        if k == 0:
            break
        np.multiply(inv_t, v0 + k, out=step)
        step *= f
        step -= f_next
        f_next, f, step = f, step, f_next
    scale = np.exp(math.lgamma(a + 1.0) + m * np.log(inv_t))
    return scale * (f_a / total), scale * (a + 1.0) * inv_t * (f_a1 / total)


def _pair_hankel(a: float, t: np.ndarray):
    # Hankel's expansion J_v = sqrt(2/(pi t)) (P cos w - Q sin w),
    # w = t - (v/2 + 1/4) pi, at v0 and v0 + 1, with cos w and
    # sin w from cos t and sin t of the exact t; forward recurrence, stable
    # while the order stays below t, climbs to a and a + 1
    m = math.ceil(a) - 1
    v0 = a - m
    cos_t, sin_t = np.cos(t), np.sin(t)
    amp = np.sqrt(2.0 / (math.pi * t))
    pair = []
    for v in (v0, v0 + 1.0):
        term = np.ones_like(t)
        p, q = np.ones_like(t), np.zeros_like(t)
        for k in range(1, _HANKEL_TERMS):
            term = term * ((4.0 * v * v - (2 * k - 1) ** 2) / (8.0 * k)) / t
            signed = -term if (k // 2) % 2 else term
            if k % 2:
                q += signed
            else:
                p += signed
        phi = (0.5 * v + 0.25) * math.pi
        cos_w = cos_t * math.cos(phi) + sin_t * math.sin(phi)
        sin_w = sin_t * math.cos(phi) - cos_t * math.sin(phi)
        pair.append(amp * (p * cos_w - q * sin_w))
    j_a, j_a1 = pair
    for k in range(m):
        j_a, j_a1 = j_a1, 2.0 * (v0 + 1.0 + k) / t * j_a1 - j_a
    log_2t = np.log(2.0 / t)
    scale = np.exp(math.lgamma(a + 1.0) + a * log_2t)
    return scale * j_a, scale * ((a + 1.0) * 2.0 / t) * j_a1


def _bessel_pair(a: float, t: np.ndarray):
    """j_a(t) and j_(a+1)(t), j_a(t) = Gamma(a+1) (2/t)^a J_a(t) =
    0F1(; a+1; -t^2/4), for 0 < a <= 251.5 and t >= 0.

    Three regimes, each giving both orders in one sweep:
    - t^2 < 4(a+1): the 0F1 series, so t = 0 needs no case of its own;
    - t < max(40, a+2): Miller's backward recurrence from order
      max(t, a) + 30 + 6 t^(1/3) down to v0 = a - ceil(a) + 1 in (0, 1],
      normalized by a Neumann-type sum (Watson, A Treatise on the Theory
      of Bessel Functions);
    - beyond: Hankel's expansion (DLMF 10.17) at v0 and v0 + 1, then
      forward recurrence.
    The Gamma and power factors are applied in log space, so every a up
    to 251.5 stays in float range.
    """
    j0, j1 = np.empty_like(t), np.empty_like(t)
    small = t * t < 4.0 * (a + 1.0)
    large = t >= max(40.0, a + 2.0)
    for region, pair in ((small, _pair_series),
                         (~(small | large), _pair_miller),
                         (large, _pair_hankel)):
        if region.any():
            j0[region], j1[region] = pair(a, t[region])
    return j0, j1


def exp_mu_imag_on_grid(svals: np.ndarray, ctx: MuContext) -> np.ndarray:
    """Vectorized exp_mu(i s) over an array of real s: the Dunkl kernel.

    exp_mu(is) = j_{nu-1}(|s|) + i s/(2nu) j_nu(|s|) with nu = mu + 1/2, and
    j_{nu-1} = j_nu - t^2/(4nu(nu+1)) j_{nu+1}, so only the positive orders
    nu and nu+1 are evaluated, in one _bessel_pair sweep.  Accurate to
    KERNEL_ABS2_FLOOR relative to max(1, |value|) for every mu > -1/2 up
    to KERNEL_MU_MAX.
    """
    if ctx.mu > KERNEL_MU_MAX:
        raise EvaluationError(
            f"the closed-form exp_mu kernel is evaluated for mu <= "
            f"{KERNEL_MU_MAX:g}, got {ctx.mu}")
    svals = np.asarray(svals, dtype=float)
    t = np.abs(svals)
    nu = ctx.mu + 0.5
    j_nu, j_next = _bessel_pair(nu, t)
    return (j_nu - t * t / (4.0 * nu * (nu + 1.0)) * j_next) \
        + 1j * (svals / (2.0 * nu)) * j_nu
