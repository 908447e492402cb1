"""Exact-algebra layer: polynomials, rational functions, identity proofs."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudeform import exact
from mudeform.core import MuContext, deformed_binomial
from mudeform.exact import (MuPolynomial, MuRationalFunction, gamma_mu_exact,
                            p_2n_sum_closed, p_4n_closed, p_4n_minus_2_closed,
                            p_at_exact, verify_closed_forms,
                            verify_odd_vanishing)

from helpers import binom_mu_exact, eval_rational

Q = Fraction


def rational(num, den=(1,)):
    return MuRationalFunction(MuPolynomial(num), MuPolynomial(den))


def fraction_product(a, b):
    """Reference product: Fraction convolution, one term at a time."""
    if not a or not b:
        return ()
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return MuPolynomial(out).coeffs


def horner(coeffs, mu):
    """Reference evaluation: plain Horner in the arithmetic of mu."""
    acc = type(mu)(0)
    for c in reversed(coeffs):
        acc = acc * mu + c
    return acc


def poly_divmod(a, b):
    """Long division of Fraction coefficient tuples (index = power)."""
    rem, quot = list(a), [Q(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        q = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = q
        for i, c in enumerate(b):
            rem[i + shift] -= q * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(quot), tuple(rem)


def reduced(f):
    """f in lowest terms by a Euclidean gcd, denominator monic."""
    a, b = f.num.coeffs, f.den.coeffs
    while b:
        a, b = b, poly_divmod(a, b)[1]
    num = poly_divmod(f.num.coeffs, a)[0]
    den = poly_divmod(f.den.coeffs, a)[0]
    return MuRationalFunction(MuPolynomial(num), MuPolynomial(den))


def naive_p_at(k):
    """Alternating sum of deformed binomials by general rational addition."""
    total = rational(())
    for j in range(k + 1):
        b = binom_mu_exact(k, j)
        total = total + (b if j % 2 == 0 else MuRationalFunction(-b.num, b.den))
    return total


# rationals with numerators and denominators far beyond a machine word
big_fractions = st.builds(Q, st.integers(-10**40, 10**40),
                          st.integers(1, 10**40))
coefficients = st.lists(st.one_of(big_fractions, st.fractions(max_denominator=50),
                                  st.just(Q(0))), max_size=9)


class TestMuPolynomial:
    def test_trim_and_zero(self):
        assert MuPolynomial((1, 2, 0, 0)).degree == 1
        assert MuPolynomial((0,)).is_zero
        assert MuPolynomial().degree == -1

    def test_arithmetic(self):
        p = MuPolynomial((1, 2))       # 1 + 2 mu
        q = MuPolynomial((3, 0, 1))    # 3 + mu^2
        assert (p + q).coeffs == (Q(4), Q(2), Q(1))
        assert (p * q).coeffs == (Q(3), Q(6), Q(1), Q(2))
        assert (p - p).is_zero
        assert p.scale(Q(1, 2)).coeffs == (Q(1, 2), Q(1))
        assert p.times_mu().coeffs == (Q(0), Q(1), Q(2))

    def test_evaluate(self):
        p = MuPolynomial((1, 0, 3))
        assert p.evaluate(Q(2)) == 13
        assert p.evaluate(0.5) == pytest.approx(1.75)

    @settings(max_examples=100, deadline=None)
    @given(coefficients, coefficients, big_fractions)
    def test_integer_kernels_match_fraction_reference(self, a, b, mu):
        p, q = MuPolynomial(a), MuPolynomial(b)
        assert (p * q).coeffs == fraction_product(p.coeffs, q.coeffs)
        assert (q * p).coeffs == fraction_product(p.coeffs, q.coeffs)
        for point in (mu, -mu, Q(0), Q(1, 3)):
            value = p.evaluate(point)
            assert isinstance(value, Fraction)
            assert value == horner(p.coeffs, point)
        # the float path is the plain Horner loop, to the last bit (repr
        # also matches the inf and nan that huge draws can overflow to)
        x = float(mu)
        assert repr(p.evaluate(x)) == repr(horner(p.coeffs, x))

    def test_denominators_cleared_once(self, monkeypatch):
        # the constructor clears them; a product then builds no Fraction,
        # and an exact value builds one, its result
        p = MuPolynomial((Q(1, 3), Q(-2, 5), Q(7, 6), Q(1, 4)))
        points = [Q(i, 7) for i in range(p.degree + 1)]
        expected = [horner(p.coeffs, x) for x in points]
        square = fraction_product(p.coeffs, p.coeffs)
        built = []
        real_new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        values = [p.evaluate(x) for x in points]
        assert len(built) == len(points)
        product = p * p
        assert len(built) == len(points)
        monkeypatch.undo()
        assert values == expected
        assert product.coeffs == square

    @settings(max_examples=100, deadline=None)
    @given(coefficients)
    def test_canonical_integers(self, a):
        # lowest terms over a positive denominator, no trailing zero, so
        # equal polynomials hold equal integers
        p = MuPolynomial(a)
        assert p.den > 0 and (not p.nums or p.nums[-1] != 0)
        assert math.gcd(p.den, *p.nums) == 1
        assert p.coeffs + (Q(0),) * (len(a) - len(p.nums)) == tuple(a)
        twice = p.scale(3).scale(Q(1, 3))
        assert (twice.nums, twice.den) == (p.nums, p.den)
        assert hash(twice) == hash(p)


class TestMuRationalFunction:
    def test_monic_denominator(self):
        f = rational((4, 0), (1, 2))  # 4 mu? no: (4)/(1+2mu) -> 2/(mu+1/2)
        assert f.den.lead == 1
        assert f.den.coeffs == (Q(1, 2), Q(1))
        assert f.num.coeffs == (Q(2),)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rational((1,), (0,))

    def test_cross_equal(self):
        # 4 mu / (1 + 2 mu) == 2 mu / (mu + 1/2)
        a = rational((0, 4), (1, 2))
        b = rational((0, 2), (Q(1, 2), 1))
        assert a.cross_equal(b)
        assert not a.cross_equal(rational((0, 4), (1, 1)))

    def test_unhashable_because_equality_cross_multiplies(self):
        # (mu+1)/(mu+1) equals 1, so no hash of the stored num and den
        # could agree with ==
        one = MuRationalFunction(exact.ONE)
        assert MuRationalFunction(exact.MU + exact.ONE,
                                  exact.MU + exact.ONE) == one
        with pytest.raises(TypeError):
            hash(one)

    def test_pole_evaluation(self):
        f = rational((1,), (Q(1, 2), 1))
        with pytest.raises(ZeroDivisionError):
            f.evaluate(Q(-1, 2))


class TestGammaExact:
    def test_base_case(self):
        assert gamma_mu_exact(0) == MuPolynomial((1,))

    def test_n1_forced_by_recursion(self):
        assert gamma_mu_exact(1) == MuPolynomial((1, 2))

    def test_n4_hand_recursion(self):
        # gamma(3) = (3+2mu) 2 (1+2mu);  gamma(4) = 4 gamma(3) = 8(1+2mu)(3+2mu)
        assert gamma_mu_exact(4) == MuPolynomial((24, 64, 32))

    def test_degree(self):
        for n in range(20):
            assert gamma_mu_exact(n).degree == (n + 1) // 2

    def test_pochhammer_closed_form(self):
        # Independent oracle: gamma(2m) = 2^(2m) m! (mu+1/2)_m and
        # gamma(2m+1) = 2^(2m+1) m! (mu+1/2)_(m+1), built directly.
        def poch(m):
            acc = MuPolynomial((1,))
            for i in range(m):
                acc = acc * MuPolynomial.mu_plus(Q(2 * i + 1, 2))
            return acc

        import math
        for m in range(12):
            even = poch(m).scale(Q(4) ** m * math.factorial(m))
            assert gamma_mu_exact(2 * m) == even
            odd = poch(m + 1).scale(2 * Q(4) ** m * math.factorial(m))
            assert gamma_mu_exact(2 * m + 1) == odd


class TestBinomExact:
    def test_j_zero_is_one(self):
        one = rational((1,))
        for k in (0, 1, 5, 12):
            assert binom_mu_exact(k, 0) == one
            assert binom_mu_exact(k, k) == one

    def test_2_choose_1(self):
        assert binom_mu_exact(2, 1) == rational((2,), (1, 2))

    def test_symmetry(self):
        for k in range(8):
            for j in range(k + 1):
                assert binom_mu_exact(k, j) == binom_mu_exact(k, k - j)

    def test_against_definitional_ratio(self):
        # binom must equal gamma(k)/(gamma(j) gamma(k-j)) built from the
        # plain recursion polynomials, by cross-multiplication; the powers
        # of two cancel, so every factored scalar is an int
        for k in range(41):
            for j in range(k + 1):
                assert type(exact._binom_factored(k, j)[0]) is int, (k, j)
                b = binom_mu_exact(k, j)
                lhs = b.num * (gamma_mu_exact(j) * gamma_mu_exact(k - j))
                rhs = b.den * gamma_mu_exact(k)
                assert lhs == rhs

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binom_mu_exact(2, 3)
        with pytest.raises(ValueError):
            binom_mu_exact(2, -1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=Q(-49, 100), max_value=Q(5)),
        st.integers(min_value=0, max_value=30),
        st.data(),
    )
    def test_float_binomial_matches_exact(self, mu, k, data):
        j = data.draw(st.integers(min_value=0, max_value=k))
        ctx = MuContext(float(mu))
        approx = deformed_binomial(k, j, ctx)
        # evaluate the exact value at the *float-rounded* mu the context saw
        exact_val = binom_mu_exact(k, j).evaluate(Q(ctx.mu))
        assert approx == pytest.approx(float(exact_val), rel=1e-11)


class TestPAtExact:
    def test_odd_vanishes(self):
        for k in range(1, 42, 2):
            assert p_at_exact(k).is_zero

    def test_k0_is_one(self):
        assert p_at_exact(0) == rational((1,))

    def test_k2(self):
        assert p_at_exact(2) == rational((0, 4), (1, 2))

    def test_k4(self):
        assert p_at_exact(4) == rational((0, 8), (1, 2))

    def test_expansion_matches_general_rational_sum(self):
        # independent oracle: the plain alternating sum with MuRationalFunction
        # addition, reduced by a Euclidean gcd: the expansion's prefix
        # denominator is already in lowest terms
        for k in range(25):
            naive = naive_p_at(k)
            assert naive.cross_equal(p_at_exact(k)), k
            assert reduced(naive).to_dict() == p_at_exact(k).to_dict(), k

    def test_expansion_multiplies_no_fraction_polynomials(self, monkeypatch):
        expected = p_at_exact(48).to_dict()
        p_at_exact.cache_clear()

        def refuse(self, other):
            raise AssertionError("Fraction polynomial product in the expansion")

        monkeypatch.setattr(exact.MuPolynomial, "__mul__", refuse)
        assert p_at_exact(48).to_dict() == expected

    def test_even_k_at_mu_zero(self):
        # the classical alternating binomial sum vanishes for even k >= 2
        assert eval_rational(p_at_exact(0), Q(0)) == 1
        for k in range(2, 41, 2):
            assert eval_rational(p_at_exact(k), Q(0)) == 0

    def test_eval_rational_examples(self):
        assert eval_rational(p_at_exact(2), Q(1)) == Q(4, 3)
        g3 = MuRationalFunction(gamma_mu_exact(3))
        assert eval_rational(g3, Q(0)) == 6


class TestClosedForms:
    def test_families_at_n1_hand_values(self):
        # 2 mu/(mu+1/2) == 4 mu/(1+2 mu) and 4 mu/(mu+1/2) == 8 mu/(1+2 mu)
        assert p_4n_minus_2_closed(1) == rational((0, 4), (1, 2))
        assert p_4n_closed(1) == rational((0, 8), (1, 2))

    def test_index2_family_overlap(self):
        # index 2 is 4n-2 at n=1 and 2n at n=1: the formulas must agree
        # with each other, not only with the expansion
        assert p_4n_minus_2_closed(1) == p_2n_sum_closed(1)

    def test_verify_odd_vanishing_report(self):
        checks = verify_odd_vanishing(5)
        assert all(c.passed for c in checks)
        assert [c.index for c in checks] == [1, 3, 5]
        checks41 = verify_odd_vanishing(41)
        assert all(c.passed for c in checks41) and len(checks41) == 21

    def test_verify_closed_forms_n12(self):
        checks = verify_closed_forms(12)
        assert all(c.passed for c in checks)
        assert len(checks) == 36
        # results are labelled per n (per-n evidence, not a general proof)
        assert all(c.n is not None for c in checks)
        assert all(c.sampled_equal for c in checks)

    @pytest.mark.parametrize("mutate", [
        lambda f, n: MuRationalFunction(f.num.scale(Q(n + 1, n)), f.den),
        lambda f, n: MuRationalFunction(f.num + exact.ONE, f.den),
    ], ids=["scaled", "constant_term"])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_sampled_check_fails_on_a_wrong_closed_form(self, monkeypatch,
                                                        mutate, n):
        lhs, wrong = p_at_exact(4 * n), mutate(p_4n_closed(n), n)
        check = exact._closed_form_check("p_4n", n, 4 * n, lhs, wrong)
        assert check.sampled_equal is False and check.passed is False
        # the sampled check fails on its own, with the symbolic one forced
        monkeypatch.setattr(MuRationalFunction, "cross_equal",
                            lambda self, other: True)
        check = exact._closed_form_check("p_4n", n, 4 * n, lhs, wrong)
        assert check.sampled_equal is False and check.passed is False
        right = exact._closed_form_check("p_4n", n, 4 * n, lhs, p_4n_closed(n))
        assert right.sampled_equal is True and right.passed is True

    def test_proof_path_builds_no_fraction(self, monkeypatch):
        # expansion, closed forms and both comparisons run on integers;
        # only the report's strings (to_dict, stubbed here) build Fractions
        expected = [c.to_dict() for c in verify_closed_forms(6)]
        p_at_exact.cache_clear()
        built = []
        real_new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        monkeypatch.setattr(MuRationalFunction, "to_dict", lambda self: {})
        assert all(c.passed for c in verify_closed_forms(6))
        assert all(c.passed for c in verify_odd_vanishing(13))
        assert built == []
        monkeypatch.undo()
        assert [c.to_dict() for c in verify_closed_forms(6)] == expected

    def test_larger_budgets(self):
        assert all(c.passed for c in verify_closed_forms(20))
        checks = verify_odd_vanishing(81)
        assert all(c.passed for c in checks) and len(checks) == 41

    def test_report_json_schema(self):
        entry = verify_closed_forms(1)[0].to_dict()
        assert {"family", "index", "n", "passed", "lhs", "rhs"} <= set(entry)
        assert "sampled_equal" in entry
        assert isinstance(entry["lhs"]["num"], list)
