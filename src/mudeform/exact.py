"""Exact algebra over the deformation parameter.

Polynomials and rational functions in mu with arbitrary-precision rational
coefficients.  This layer settles the deformed-binomial identities exactly
(coefficient-wise, after cross-multiplication) and serves as the exact
oracle behind every floating-point combinatorial quantity in the numeric
layer.

Key facts used throughout: the deformed factorial gamma_mu(n) obeys

    gamma_mu(0) = 1,   gamma_mu(n) = (n + 2*mu*[n odd]) * gamma_mu(n-1),

so each odd step contributes the monic linear factor 2*(mu + n/2) and each
even step a constant.  Every gamma_mu(n) is therefore a rational constant
times a product of distinct factors (mu + i + 1/2), i = 0, 1, ..., which is
what makes exact summation of deformed binomials cheap: common denominators
are short products of known linear factors, and the longest such prefix is
already the lowest denominator wherever the closed forms hold.

The layer runs on integers.  gamma_mu(n) is 2^n floor(n/2)! times the
factors i < ceil(n/2), so in a deformed binomial the 2^k cancels against
2^j 2^(k-j) and the scalar is an integer.  Since (mu + i + 1/2) =
(2 mu + 2 i + 1)/2, each summand is that integer over a power of two times
two contiguous ranges of the odd factors (2 mu + 2 i + 1), built once per
sum; terms with equal ranges are merged, and the sum runs over one power of
two.  The closed forms are products of integer factors, and the sampled
check evaluates at integer points.  A MuPolynomial is integer numerators
over one denominator; only its coeffs view builds Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce


class MuPolynomial:
    """Dense polynomial in mu (index = power) with the rational coefficients
    c_i = nums[i] / den: integers over one positive den, in lowest terms and
    with no trailing zero, so equal polynomials hold equal integers."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = math.lcm(1, *(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _of(cls, nums, den: int) -> "MuPolynomial":
        """The polynomial with coefficients nums[i] / den, for den > 0."""
        poly = cls.__new__(cls)
        poly._set(list(nums), den)
        return poly

    def _set(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        self.nums, self.den = tuple(n // g for n in nums), den // g

    @classmethod
    def const(cls, c) -> "MuPolynomial":
        return cls((Fraction(c),))

    @classmethod
    def mu_plus(cls, c) -> "MuPolynomial":
        """The monic linear factor mu + c."""
        return cls((Fraction(c), Fraction(1)))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __eq__(self, other):
        return (isinstance(other, MuPolynomial) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other: "MuPolynomial") -> "MuPolynomial":
        den = math.lcm(self.den, other.den)
        a, b = ([n * (den // p.den) for n in p.nums] for p in (self, other))
        if len(a) < len(b):
            a, b = b, a
        for i, n in enumerate(b):
            a[i] += n
        return MuPolynomial._of(a, den)

    def __sub__(self, other: "MuPolynomial") -> "MuPolynomial":
        return self + (-other)

    def __neg__(self) -> "MuPolynomial":
        return MuPolynomial._of([-n for n in self.nums], self.den)

    def __mul__(self, other: "MuPolynomial") -> "MuPolynomial":
        if self.is_zero or other.is_zero:
            return MuPolynomial()
        return MuPolynomial._of(_convolve(self.nums, other.nums),
                                self.den * other.den)

    def scale(self, q) -> "MuPolynomial":
        q = Fraction(q)
        return MuPolynomial._of([n * q.numerator for n in self.nums],
                                self.den * q.denominator)

    def times_mu(self) -> "MuPolynomial":
        """Multiply by the variable mu itself."""
        if self.is_zero:
            return self
        return MuPolynomial._of((0,) + self.nums, self.den)

    def evaluate(self, mu):
        """Horner evaluation; exact when mu is a Fraction, where it runs on
        the integers: P(p/q) = (sum_i n_i p^i q^(d-i)) / (den q^d)."""
        if not isinstance(mu, Fraction):
            acc = type(mu)(0)
            for c in reversed(self.coeffs):
                acc = acc * mu + c
            return acc
        if self.is_zero:
            return Fraction(0)
        p, q = mu.numerator, mu.denominator
        acc, q_pow = self.nums[-1], 1
        for n in reversed(self.nums[:-1]):
            q_pow *= q
            acc = acc * p + n * q_pow
        return Fraction(acc, self.den * q_pow)

    def coeff_strings(self) -> list[str]:
        """Each coefficient as str of its Fraction: "n/d" in lowest terms,
        or "n" where d = 1."""
        out = []
        for n in self.nums:
            g = math.gcd(n, self.den)
            d = self.den // g
            out.append(f"{n // g}/{d}" if d > 1 else str(n // g))
        return out

    def __repr__(self):
        if self.is_zero:
            return "MuPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*mu")
            else:
                terms.append(f"{c}*mu^{i}")
        return "MuPolynomial(" + " + ".join(terms) + ")"


ONE = MuPolynomial.const(1)
MU = MuPolynomial((0, 1))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _horner(nums, t: int) -> int:
    """The integer polynomial with coefficients nums at the integer t."""
    acc = 0
    for n in reversed(nums):
        acc = acc * t + n
    return acc


class MuRationalFunction:
    """Quotient of MuPolynomials, normalized to a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: MuPolynomial, den: MuPolynomial = ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if den.nums[-1] != den.den:  # not monic already
            lead = den.lead
            num = num.scale(Fraction(1) / lead)
            den = den.scale(Fraction(1) / lead)
        self.num = num
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def cross_equal(self, other: "MuRationalFunction") -> bool:
        """Exact equality decided by cross-multiplication of numerators."""
        return self.num * other.den == other.num * self.den

    def __eq__(self, other):
        return isinstance(other, MuRationalFunction) and self.cross_equal(other)

    def __add__(self, other: "MuRationalFunction") -> "MuRationalFunction":
        return MuRationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def evaluate(self, mu):
        den = self.den.evaluate(mu)
        if den == 0:
            raise ZeroDivisionError(f"pole of rational function at mu={mu}")
        return self.num.evaluate(mu) / den

    def to_dict(self) -> dict:
        return {"num": self.num.coeff_strings(), "den": self.den.coeff_strings()}

    def __repr__(self):
        return f"MuRationalFunction({self.num!r} / {self.den!r})"


_GAMMA_POLYS: list[MuPolynomial] = [ONE]


def gamma_mu_exact(n: int) -> MuPolynomial:
    """gamma_mu(n) as an exact polynomial in mu, via the defining recursion."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_GAMMA_POLYS) <= n:
        m = len(_GAMMA_POLYS)
        prev = _GAMMA_POLYS[m - 1]
        if m % 2:
            step = MuPolynomial((Fraction(m), Fraction(2)))  # m + 2*mu
            _GAMMA_POLYS.append(prev * step)
        else:
            _GAMMA_POLYS.append(prev.scale(m))
    return _GAMMA_POLYS[n]


def _binom_factored(k: int, j: int):
    """Deformed binomial gamma(k)/(gamma(j)gamma(k-j)) in factored form.

    Returns (scalar, num_range, den_range) where the ranges are half-open
    index ranges of (mu + i + 1/2) factors.  As gamma_mu(n) = 2^n
    floor(n/2)! times the factors [0, ceil(n/2)), the 2^k cancels: the
    scalar is the integer floor(k/2)! / (floor(j/2)! floor((k-j)/2)!), that
    is C(floor(k/2), floor(j/2)), or (k/2) C(k/2 - 1, floor(j/2)) for even k
    and odd j.  The prefix structure makes numerator and denominator ranges
    disjoint, so the result is automatically in lowest terms.
    """
    half, lo, hi = k // 2, (j + 1) // 2, (k - j + 1) // 2
    if k % 2 or not j % 2:
        scalar = math.comb(half, j // 2)
    else:
        scalar = half * math.comb(half - 1, j // 2)
    return scalar, (max(lo, hi), (k + 1) // 2), (0, min(lo, hi))


def _factored_sum(terms) -> MuRationalFunction:
    """Exact sum of (scalar, num_range, den_range) triples, integer scalars.

    The common denominator is the longest factor prefix among the terms,
    [0, d_max).  With (mu + i + 1/2) = (2 mu + 2 i + 1)/2, each term is
    scalar / 2^m times an integer polynomial R(n_lo, n_hi) R(d_hi, d_max),
    where R(a, b) = prod_{i=a}^{b-1} (2 mu + 2 i + 1) is built from
    R(a+1, b) by one linear step and kept for the call.  Terms with the same
    ranges are merged before expanding.  The only denominators are those
    powers of two, so the integer sum runs over the largest, 2^top, with
    each merged weight w / 2^m as the integer w << (top - m).  The prefix
    [0, d_max) stays the denominator (1 for a zero sum): exact, and in
    lowest terms wherever the closed forms hold, as their d_max denominator
    roots are half-integers, their numerator roots integers.
    """
    d_max = max((t[2][1] for t in terms), default=0)
    merged: dict[tuple[int, int, int], int] = {}
    for scalar, (n_lo, n_hi), (_, d_hi) in terms:
        key = (n_lo, n_hi, d_hi)
        merged[key] = merged.get(key, 0) + scalar
    top = max((n_hi - n_lo + d_max - d_hi for n_lo, n_hi, d_hi in merged),
              default=0)
    products: dict[tuple[int, int], list[int]] = {}

    def range_product(a: int, b: int) -> list[int]:
        start = a
        while start < b and (start, b) not in products:
            start += 1
        poly = products.get((start, b), [1])
        for i in range(start - 1, a - 1, -1):
            poly = products[i, b] = _convolve(poly, [2 * i + 1, 2])
        return poly

    acc: list[int] = []
    for (n_lo, n_hi, d_hi), w in merged.items():
        if not w:
            continue
        term = _convolve(range_product(n_lo, n_hi), range_product(d_hi, d_max))
        scale = w << (top - (n_hi - n_lo + d_max - d_hi))
        acc += [0] * (len(term) - len(acc))
        for i, c in enumerate(term):
            acc[i] += scale * c
    total = MuPolynomial._of(acc, 1 << top)
    if total.is_zero:
        return MuRationalFunction(total)
    return MuRationalFunction(
        total, MuPolynomial._of(range_product(0, d_max), 2 ** d_max))


@lru_cache(maxsize=None)
def p_at_exact(k: int) -> MuRationalFunction:
    """The k-th deformed binomial polynomial at (-1, 1), exactly.

    This is the alternating sum over deformed binomial coefficients; it is
    identically zero for odd k and, for even k, a rational function of mu
    over the prefix prod_{i<ceil(k/4)} (mu + i + 1/2) (see _factored_sum).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    terms = []
    for j in range(k + 1):
        scalar, num_range, den_range = _binom_factored(k, j)
        if j % 2:
            scalar = -scalar
        terms.append((scalar, num_range, den_range))
    return _factored_sum(terms)


# --- the closed-form families stated for p_{k,mu}(-1,1) ---------------------

def _product_form(n: int, shift: int, power: int) -> MuRationalFunction:
    """mu 2^power prod_{k=n+1}^{2n-1} (mu+k+shift) / prod_{k=1}^{n} (mu+k-1/2)
    on integer factors, the denominator as prod (2k - 1 + 2 mu) over 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = reduce(_convolve, ([k + shift, 1] for k in range(n + 1, 2 * n)), [1])
    den = reduce(_convolve, ([2 * k - 1, 2] for k in range(1, n + 1)), [1])
    return MuRationalFunction(MuPolynomial._of([0] + [c << power for c in num], 1),
                              MuPolynomial._of(den, 1 << n))


def p_4n_minus_2_closed(n: int) -> MuRationalFunction:
    """mu * 2^(2n-1) * prod_{k=n+1}^{2n-1}(mu+k-1) / prod_{k=1}^{n}(mu+k-1/2)."""
    return _product_form(n, -1, 2 * n - 1)


def p_4n_closed(n: int) -> MuRationalFunction:
    """mu * 2^(2n) * prod_{k=n+1}^{2n-1}(mu+k) / prod_{k=1}^{n}(mu+k-1/2)."""
    return _product_form(n, 0, 2 * n)


def p_2n_sum_closed(n: int) -> MuRationalFunction:
    """(2 mu / n) * sum_{k=0}^{n-1} of the deformed binomial (2n over 2k+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = [_binom_factored(2 * n, 2 * k + 1) for k in range(n)]
    s = _factored_sum(terms)
    return MuRationalFunction(
        MuPolynomial._of([0] + [2 * c for c in s.num.nums], n * s.num.den), s.den)


# --- identity checks ---------------------------------------------------------

@dataclass
class IdentityCheck:
    """One exactly-decided identity: a single index k, labelled per family."""

    family: str
    index: int
    passed: bool
    n: int | None = None
    lhs: dict | None = None
    rhs: dict | None = None
    sampled_equal: bool | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


def verify_odd_vanishing(k_max: int) -> list[IdentityCheck]:
    """Check p_{k,mu}(-1,1) == 0 exactly for every odd k <= k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    checks = []
    for k in range(1, k_max + 1, 2):
        p = p_at_exact(k)
        checks.append(IdentityCheck(family="odd_vanishing", index=k,
                                    passed=p.is_zero, lhs=p.to_dict()))
    return checks


def _closed_form_check(family: str, n: int, index: int, lhs: MuRationalFunction,
                       rhs: MuRationalFunction) -> IdentityCheck:
    """lhs == rhs by cross-multiplication and, apart from it, at the integer
    points 1..deg+1, where each polynomial is an integer (Horner) over its
    integer den: lhs.num rhs.den == rhs.num lhs.den with those cleared.  No
    point is a pole, as all denominators vanish at negative half-integers."""
    symbolic = lhs.cross_equal(rhs)
    deg = max(lhs.num.degree, lhs.den.degree, rhs.num.degree, rhs.den.degree)
    left, right = rhs.num.den * lhs.den.den, lhs.num.den * rhs.den.den
    sampled = all(
        _horner(lhs.num.nums, t) * _horner(rhs.den.nums, t) * left
        == _horner(rhs.num.nums, t) * _horner(lhs.den.nums, t) * right
        for t in range(1, deg + 2))
    return IdentityCheck(
        family=family,
        index=index,
        n=n,
        passed=symbolic and sampled,
        lhs=lhs.to_dict(),
        rhs=rhs.to_dict(),
        sampled_equal=sampled,
    )


def verify_closed_forms(n_max: int = 12) -> list[IdentityCheck]:
    """Compare direct expansion of p_{k,mu}(-1,1) against the three stated
    closed-form families, per n, by exact cross-multiplication.

    Each check is per-n evidence only; a pass here does not prove the
    families for all n.  Point sampling at degree+1 rational points is kept
    as an independent secondary check on the symbolic comparison.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    checks = []
    for n in range(1, n_max + 1):
        checks.append(_closed_form_check(
            "p_4n_minus_2", n, 4 * n - 2, p_at_exact(4 * n - 2), p_4n_minus_2_closed(n)))
        checks.append(_closed_form_check(
            "p_4n", n, 4 * n, p_at_exact(4 * n), p_4n_closed(n)))
        checks.append(_closed_form_check(
            "p_2n_sum", n, 2 * n, p_at_exact(2 * n), p_2n_sum_closed(n)))
    return checks
