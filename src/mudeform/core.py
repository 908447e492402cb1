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

Both series run on one pass in Python integers, _fixed_series.  With
mu = m/q exactly, each term ratio is z a_n / b_n in integers, and the sum
runs in Gaussian-integer fixed point at a working precision fixed before
the loop from a proved bound on sum |t_n|, so it never reruns.  Every
result carries a truncation bound and a rounding bound whose sum bounds
its true error, and the working precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count

import mpmath
import numpy as np

from .errors import EvaluationError

MU_MIN = -0.5 + 1e-6
_EPS = sys.float_info.epsilon


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
    """A summed series value with its error bars and working precision.

    trunc_error bounds the discarded tail and rounding_error the fixed-point
    arithmetic and the final rounding to a float, so
    |value - exact| <= trunc_error + rounding_error.  bits is the working
    precision of the fixed-point sum.
    """

    value: complex
    terms_used: int
    trunc_error: float
    rounding_error: float
    bits: int


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


# --- the series oracles: one summation in integers ---------------------------

_GUARD_BITS = 80   # bits of wp past twice the bound on sum |t_n|
_MAX_WP = 1 << 15  # a sum at this precision takes about a second


def _abs_sum_bits(r: float, mu: float) -> int:
    """An integer k with 2^k >= e^r and 2^k >= sum_n r^n / gamma_mu(n).

    For mu >= 0, gamma_mu(n) >= n! bounds the sum by e^r.  For mu < 0 the
    odd factors i + 2mu of gamma_mu(n) exceed i - 1 from i = 3 on, so
    gamma_mu(n) >= (1 + 2mu) (n-1)!, and the sum is at most
    1 + r e^r / (1 + 2mu) < 2 max(1, r e^r / (1 + 2mu)), itself >= e^r.
    The + 2 covers that 2 and the rounding of the logarithms.
    """
    if not r < math.inf:
        raise EvaluationError(f"the series needs a finite argument, got {r}")
    log_b = r / math.log(2)
    if mu < 0 and r > 0:
        log_b += max(0.0, math.log2(r) - math.log2(1 + 2 * mu))
    return math.ceil(log_b) + 2


def _fixed_series(x: Fraction, y: Fraction, ratio, settled,
                  log_bound: int) -> SeriesResult:
    """Sum t_0 = 1, t_n = t_(n-1) z a_n / b_n, z = x + iy, in Gaussian
    integers at wp = 2 log_bound + _GUARD_BITS bits, fixed before the loop.

    ratio(n) gives the integers (a_n, b_n), b_n > 0, and the dyadic z is
    (X + iY) / 2^k, so each step T_n = floor(T_(n-1) (X + iY) a_n / b_n /
    2^k), per part, is the one rounding: T_n is off t_n 2^wp by
    e_n <= e_(n-1) |z a_n / b_n| + sqrt 2 units, e_0 = 0, that is by
    sqrt 2 sum_(k=1..n) prod_(i=k+1..n) |z a_i / b_i|.  The caller proves
    that sum, and sum |t_n|, at most 2^log_bound, so n steps are off by
    less than 2n 2^log_bound units: a value down to 2^-log_bound keeps
    about _GUARD_BITS - log2(2n) bits.  settled(n) says, from a proved
    decreasing majorant, that |z a_i / b_i| <= 1/2 for all i > n.  The sum
    stops at the first such n whose term parts are below 2^log_bound, so
    |t_n| 2^wp < 2 sqrt 2 2^log_bound bounds the tail; a zero ratio ends
    it exactly.  Rounding the value to a float costs at most
    2 eps |value| + ulp(0), and the bars are exact unless they underflow,
    for which rounding_error takes one more ulp(0).  A value past float
    range raises EvaluationError, and so does a sum whose bars reach its
    size, carrying the value as its best estimate.
    """
    wp = 2 * log_bound + _GUARD_BITS
    if wp > _MAX_WP:
        raise EvaluationError(f"the series needs {wp:.3g} bits, past the "
                              f"{_MAX_WP}")
    den = max(x.denominator, y.denominator)  # powers of 2
    X, Y = (v.numerator * den // v.denominator for v in (x, y))
    re, im, small, k = 1 << wp, 0, 1 << log_bound, den.bit_length() - 1
    sum_re, sum_im, tail = re, im, 3
    for n in count(1):
        a, b = ratio(n)
        re, im = (((re * X - im * Y) * a // b) >> k,
                  ((re * Y + im * X) * a // b) >> k)
        sum_re += re
        sum_im += im
        if not a:
            tail = 0
            break
        if -small < re < small and -small < im < small and settled(n):
            break
    try:
        value = complex(sum_re / (1 << wp), sum_im / (1 << wp))
    except OverflowError:
        raise EvaluationError(f"the sum of {n + 1} terms would leave float "
                              f"range") from None
    if ((2 * n + tail) << log_bound) ** 2 >= sum_re ** 2 + sum_im ** 2:
        raise EvaluationError(f"the error bars reach the sum: no correct "
                              f"digit at {wp} bits", best=value)
    rounding = math.nextafter(math.ldexp(2 * n, log_bound - wp) + 2 * (
        _EPS * abs(value) + math.ulp(0.0)), math.inf)
    return SeriesResult(value=value, terms_used=n + 1, trunc_error=math.ldexp(
        tail, log_bound - wp), rounding_error=rounding, bits=wp)


def exp_mu_series(z: complex, ctx: MuContext) -> SeriesResult:
    """exp_mu(z) = sum_n z^n / gamma_mu(n), summed by _fixed_series.

    With mu = m/q exactly, the term ratio is z q / (nq + 2m [n odd]), below
    the decreasing |z| / (n-1) from n = 2 on.  For 1 <= k <= n the ratios'
    product is |z|^(n-k) gamma_mu(k) / gamma_mu(n), and gamma_mu(n) /
    gamma_mu(k) >= k (k+1) ... (n-1) >= (n-k)!: the rounding sums are at
    most e^|z|.
    """
    z = complex(z)
    log_bound, (m, q) = _abs_sum_bits(abs(z), ctx.mu), ctx.mu.as_integer_ratio()
    x, y = Fraction(z.real), Fraction(z.imag)
    z2 = 4 * (x * x + y * y)  # |z| / n <= 1/2 where z2 <= n^2
    return _fixed_series(x, y, lambda n: (q, n * q + 2 * m * _odd(n)),
                         lambda n: z2 <= n * n, log_bound)


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
    summed by _fixed_series at z = -s^2.

    The coefficients c_j = p_{2j,mu}(-1,1) / gamma_mu(2j) follow from the
    paper's product identities for p_{4n-2,mu}(-1,1) and p_{4n,mu}(-1,1),
    with gamma_mu(2j) = 4^j j! (mu+1/2)_j, as c_j / c_{j-1} =
    (mu+j-1) / (j (2mu+j) (mu+j-1/2)), exactly
    2q (m+(j-1)q) / (j (2m+jq) (2m+(2j-1)q)) in mu = m/q; the tests hold
    the exact c_j as its oracle.  From j = 2 on, 0 < mu+j-1 < mu+j-1/2,
    so the ratio is below the decreasing s^2 / (j (2mu+j)) and below
    s^2 / (j (j-1)): the rounding sums are at most
    sum_d s^(2d) / d!^2 <= e^(2|s|).  As the Cauchy square of the power
    series, sum_j |c_j| s^(2j) is at most (sum_n |s|^n / gamma_mu(n))^2.
    """
    log_bound = 2 * _abs_sum_bits(abs(s), ctx.mu)
    (m, q), s2 = ctx.mu.as_integer_ratio(), Fraction(s) ** 2
    return _fixed_series(
        -s2, Fraction(0),
        lambda j: (2 * q * (m + (j - 1) * q),
                   j * (2 * m + j * q) * (2 * m + (2 * j - 1) * q)),
        lambda j: 2 * q * s2 <= (j + 1) * (2 * m + (j + 1) * q), log_bound)


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
