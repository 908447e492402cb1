"""Numeric special functions: deformed factorial/exponential, eta_mu rule."""

import cmath
import inspect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import roots_jacobi

from mudeform.core import (MU_MIN, MuContext, even_series_result,
                           binomial_poly, deformed_binomial, eta_rule,
                           eta_rule_exists,
                           exp_mu_imag_on_grid, exp_mu_integral,
                           exp_mu_series, gamma_mu, gauss_jacobi)
from mudeform.errors import EvaluationError
from mudeform.exact import gamma_mu_exact, p_at_exact

from helpers import abs2_grid_error_bound, abs2_on_grid, even_coeff

MU_GRID = (0.25, 0.5, 1.0, 2.0)


def abs2_product(s: float, ctx: MuContext) -> float:
    """|exp_mu(is)|^2 by squaring the power series."""
    return abs(exp_mu_series(1j * s, ctx).value) ** 2


def abs2_even(s: float, ctx: MuContext) -> float:
    """|exp_mu(is)|^2 by the rearranged even-power series."""
    return even_series_result(s, ctx).value.real


def abs2_integral(s: float, ctx: MuContext) -> float:
    """|exp_mu(is)|^2 by the integral representation against eta_mu."""
    v = exp_mu_integral(1j * s, ctx)
    return v.real ** 2 + v.imag ** 2


def exact_binomial(k: int, j: int, mu: Fraction) -> Fraction:
    return gamma_mu_exact(k).evaluate(mu) / (
        gamma_mu_exact(j).evaluate(mu) * gamma_mu_exact(k - j).evaluate(mu))


class TestMuContext:
    def test_boundary_guard(self):
        with pytest.raises(ValueError):
            MuContext(-0.5)
        with pytest.raises(ValueError):
            MuContext(-0.5 + 1e-6)  # not strictly above the guard
        MuContext(-0.5 + 1.01e-6)
        for bad in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match=str(bad)):
                MuContext(bad)

    def test_norm_const_closed_form(self):
        # an mpf of 113 bits: exact where the closed form is a dyadic
        # rational, within 2^-110 of a 40-digit reference elsewhere
        for mu, want in ((0.5, 1 / 2), (1.5, 1 / 4), (2.5, 1 / 16)):
            assert MuContext(mu).norm_const == want
        with mpmath.workdps(40):
            # Gamma(7/2) = (15/8) sqrt(pi)
            for mu, ref in ((3.0, 8 / (15 * mpmath.power(2, 3.5)
                                       * mpmath.sqrt(mpmath.pi))),
                            (-0.25, 1 / (mpmath.root(2, 4)
                                         * mpmath.gamma(mpmath.mpf(1) / 4)))):
                got = MuContext(mu).norm_const
                assert isinstance(got, mpmath.mpf) and got > 0
                assert abs(got / ref - 1) <= 2 ** -110, mu

    def test_mu0_is_inverse_root_two_pi(self):
        with mpmath.workdps(40):
            ref = 1 / mpmath.sqrt(2 * mpmath.pi)
            assert abs(MuContext(0.0).norm_const / ref - 1) <= 2 ** -110

    def test_norm_const_within_one_ulp(self):
        # the log form exp(-(mu+1/2) ln 2 - lgamma(mu+1/2)) was 1.9e-15
        # off at mu = 10 and 6.2e-14 at mu = 100.  The 113-bit constant is
        # within 2^-110 of a 40-digit reference at every mu, and rounds to
        # within 1 ulp of it up to 141.7, near the last mu whose constant is
        # a normal float; at 200 and 250 it is far below float range
        for mu in (-0.499, -0.3, 0.0, 0.37, 1.0, 2.5, 10.0, 60.0, 100.0,
                   141.7, 200.0, 250.0):
            got = MuContext(mu).norm_const
            with mpmath.workdps(40):
                nu = mpmath.mpf(mu) + 0.5
                ref = 1 / (mpmath.power(2, nu) * mpmath.gamma(nu))
                assert abs(got / ref - 1) <= 2 ** -110, mu
                if mu <= 141.7:
                    assert abs(float(got) - ref) <= math.ulp(float(ref)), mu


class TestGammaMu:
    def test_base_case(self):
        assert gamma_mu(0, MuContext(0.7)) == 1.0

    def test_mu_zero_is_factorial(self):
        ctx = MuContext(0.0)
        for n in range(13):
            assert gamma_mu(n, ctx) == float(math.factorial(n))

    def test_hand_recursion_value(self):
        # gamma(1) = 1 + 2*0.5 = 2, gamma(2) = 2*2 = 4
        assert gamma_mu(2, MuContext(0.5)) == 4.0

    def test_strictly_positive(self):
        ctx = MuContext(-0.49)
        for n in range(60):
            assert gamma_mu(n, ctx) > 0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-0.45, max_value=4.0), st.integers(1, 60))
    def test_recursion_identity(self, mu, n):
        ctx = MuContext(mu)
        step = n + 2.0 * mu * (n % 2)
        assert gamma_mu(n, ctx) == pytest.approx(
            step * gamma_mu(n - 1, ctx), rel=1e-14)

    def test_closed_form_product_oracle(self):
        # gamma(2m) = 4^m m! prod_{i<m}(mu + i + 1/2), independent route
        for mu in (0.3, 1.7):
            ctx = MuContext(mu)
            for m in range(10):
                prod = 4.0 ** m * math.factorial(m)
                for i in range(m):
                    prod *= mu + i + 0.5
                assert gamma_mu(2 * m, ctx) == pytest.approx(prod, rel=1e-13)

    def test_recursion_accurate_past_150(self):
        ctx = MuContext(0.25)
        for n in range(149, 171):
            exact = float(gamma_mu_exact(n).evaluate(Fraction(1, 4)))
            assert gamma_mu(n, ctx) == pytest.approx(exact, rel=1e-14), n

    def test_overflow_range_error(self):
        with pytest.raises(OverflowError):
            gamma_mu(400, MuContext(1.0))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gamma_mu(-1, MuContext(0.0))


class TestDeformedBinomial:
    def test_j_zero(self):
        for mu in MU_GRID:
            assert deformed_binomial(7, 0, MuContext(mu)) == 1.0

    def test_2_choose_1(self):
        for mu in MU_GRID:
            assert deformed_binomial(2, 1, MuContext(mu)) == pytest.approx(
                2.0 / (1.0 + 2.0 * mu), rel=1e-14)

    def test_classical_at_mu0(self):
        assert deformed_binomial(4, 2, MuContext(0.0)) == pytest.approx(6.0)

    def test_large_mu_no_factorial_overflow(self):
        # gamma_mu(150) overflows at mu = 100, the binomials do not
        mu = Fraction(100)
        for j in (75, 1):
            exact = float(exact_binomial(150, j, mu))
            assert deformed_binomial(150, j, MuContext(100.0)) == \
                pytest.approx(exact, rel=1e-13), j
        assert deformed_binomial(150, 1, MuContext(100.0)) == \
            pytest.approx(150 / 201, rel=1e-15)

    def test_overflow_range_error(self):
        with pytest.raises(OverflowError):
            deformed_binomial(2000, 1000, MuContext(0.0))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-0.45, max_value=5.0), st.integers(0, 300),
           st.floats(min_value=0.0, max_value=1.0))
    def test_matches_exact_binomial(self, mu, k, frac):
        j = round(frac * k)
        exact = float(exact_binomial(k, j, Fraction(mu)))
        assert deformed_binomial(k, j, MuContext(mu)) == pytest.approx(
            exact, rel=1e-13)

    def test_large_k_log_space(self):
        ctx = MuContext(0.5)
        v = deformed_binomial(200, 100, ctx)
        exact = float(
            p_at := None or
            (gamma_mu_exact(200).evaluate(Fraction(1, 2))
             / (gamma_mu_exact(100).evaluate(Fraction(1, 2)) ** 2)))
        assert v == pytest.approx(exact, rel=1e-10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            deformed_binomial(3, 4, MuContext(1.0))


class TestBinomialPoly:
    def test_odd_k_vanishes_at_minus_one_one(self):
        for mu in MU_GRID:
            ctx = MuContext(mu)
            for k in (1, 3, 5, 9):
                assert abs(binomial_poly(k, -1, 1, ctx)) < 1e-12

    def test_k0(self):
        assert binomial_poly(0, -1, 1, MuContext(0.8)) == 1

    def test_k2_at_mu1(self):
        # 1 - 2/(1+2mu) + 1 = 4mu/(1+2mu) = 4/3 at mu=1
        assert binomial_poly(2, -1, 1, MuContext(1.0)) == pytest.approx(
            4.0 / 3.0, rel=1e-14)


class TestExpMuSeries:
    def test_zero_argument(self):
        for mu in (-0.3, 0.0, 2.0):
            r = exp_mu_series(0.0, MuContext(mu))
            assert r.value == 1.0 + 0.0j
            assert r.terms_used >= 1
            assert r.trunc_error >= 0.0
            assert r.trunc_error + r.rounding_error < 1e-15

    def test_classical_exponential(self):
        ctx = MuContext(0.0)
        rng = np.random.default_rng(20250810)
        for _ in range(20):
            z = complex(*(rng.uniform(-1, 1, 2))) * 5.0 / math.sqrt(2)
            r = exp_mu_series(z, ctx)
            expected = cmath.exp(z)
            assert abs(r.value - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_imaginary_argument_contraction(self):
        # |exp_mu(2i)| < 1 for mu=1, and the two evaluators agree
        ctx = MuContext(1.0)
        r = exp_mu_series(2j, ctx)
        assert abs(r.value) < 1.0
        v = exp_mu_integral(2j, ctx)
        assert abs(r.value - v) < 1e-11

    def test_diagnostics_monotone_sane(self):
        # e^|z| < 2^3 here, so the sum runs at 2 (3 + 2) + 80 bits
        r = exp_mu_series(1 + 1j, MuContext(0.5))
        assert r.trunc_error < 1e-14
        assert r.rounding_error < 4 * 2.3e-16 * abs(r.value)
        assert r.bits == 90

    def test_ratio_is_exact(self):
        # 1 / (n + 2mu [n odd]) = gamma_mu(n-1) / gamma_mu(n), in integers
        for mu in TestEvenCoeff.ORACLE_MUS:
            ratio, muf = oracle_ratio(exp_mu_series, mu), Fraction(mu)
            for n in range(1, 31):
                assert Fraction(*ratio(n)) == (
                    gamma_mu_exact(n - 1).evaluate(muf)
                    / gamma_mu_exact(n).evaluate(muf)), (mu, n)

    @pytest.mark.parametrize("mu", (-0.45, -0.3, 0.0, 0.413, 2.0))
    def test_abs_sum_bound(self, mu):
        # the proved bound that sizes the working precision, against the
        # sum itself at 30 digits
        import mudeform.core as core_module
        with mpmath.workdps(30):
            for r in (0.0, 0.5, 10.0, 100.0, 1000.0):
                total = term = mpmath.mpf(1)
                n = 0
                while n <= r or term > total * mpmath.mpf(10) ** -35:
                    n += 1
                    term *= r / (n + 2 * mpmath.mpf(mu) * (n % 2))
                    total += term
                bound = mpmath.mpf(2) ** core_module._abs_sum_bits(r, mu)
                assert total <= bound and mpmath.exp(r) <= bound, (mu, r)

    def test_precision_past_the_cap_fails_fast(self):
        # e^|z| at |z| = 12000 and e^(2|s|) at s = 6000 need about
        # 2 * 17317 + 80 bits
        with pytest.raises(EvaluationError, match="bits, past the 32768"):
            exp_mu_series(12000j, MuContext(0.5))
        with pytest.raises(EvaluationError, match="bits, past the 32768"):
            even_series_result(6000.0, MuContext(0.5))

    def test_float_overflow_fails_fast(self):
        # the partial sums of exp(710) pass the largest float while the
        # terms still meet the stopping rule: an error, not inf
        with pytest.raises(EvaluationError, match="leave float range"):
            exp_mu_series(710.0, MuContext(0.0))

    def test_series_oracles_take_no_settings(self):
        # the precision and the stopping rule are the module's
        assert list(inspect.signature(exp_mu_series).parameters) == [
            "z", "ctx"]
        assert list(inspect.signature(even_series_result).parameters) == [
            "s", "ctx"]

    def test_vectorized_matches_scalar(self):
        # the grid kernel on the imaginary axis, shaped input included
        for mu in (0.7, -0.3):
            ctx = MuContext(mu)
            svals = np.array([[0.0, 2.0], [-3.0, 2.5]])
            vec = exp_mu_imag_on_grid(svals, ctx)
            assert vec.shape == svals.shape
            for s, v in zip(svals.ravel(), vec.ravel()):
                assert v == pytest.approx(exp_mu_series(1j * s, ctx).value,
                                          rel=1e-13, abs=1e-13)


class TestEtaRule:
    def test_probability_normalization(self):
        for mu in (0.25, 1.0, 3.0):
            rule = eta_rule(MuContext(mu), 8)
            assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_nodes_inside_and_increasing(self):
        rule = eta_rule(MuContext(0.5), 24)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
        assert np.all(rule.weights > 0)

    def test_first_moment_against_adaptive_quadrature(self):
        # oracle: scipy adaptive quadrature of t against the raw weight
        mu = 0.5
        rule = eta_rule(MuContext(mu), 16)
        raw, _ = quad(lambda t: t, -1, 1, weight="alg", wvar=(mu, mu - 1.0))
        mass, _ = quad(lambda t: 1.0, -1, 1, weight="alg", wvar=(mu, mu - 1.0))
        oracle = raw / mass
        assert np.sum(rule.nodes * rule.weights) == pytest.approx(
            oracle, abs=1e-10)

    def test_raw_mass_is_beta_half_mu(self):
        for mu in (0.25, 1.0, 3.0):
            rule = eta_rule(MuContext(mu), 12)
            assert rule.raw_mass == pytest.approx(beta_fn(0.5, mu), abs=1e-10)

    def test_domain_error_for_nonpositive_mu(self):
        with pytest.raises(ValueError):
            eta_rule(MuContext(0.0), 8)
        with pytest.raises(ValueError):
            eta_rule(MuContext(-0.2), 8)

    def test_mu_below_float_resolution_is_named(self):
        # mu - 1.0 rounds to -1 here although MuContext accepts mu
        assert not eta_rule_exists(1e-17) and eta_rule_exists(1.2e-16)
        with pytest.raises(ValueError, match="mu = 1e-17"):
            eta_rule(MuContext(1e-17), 8)

    def test_golub_welsch_against_scipy(self):
        # independent implementation of the same rule; (-0.5,-0.5) is the
        # alpha+beta=-1 case where the generic recurrence formula is 0/0
        for n, a, b in ((8, 0.0, 1.0), (16, -0.5, 0.25), (32, 2.0, 3.0),
                        (12, -0.5, -0.5), (1, 0.3, 0.7)):
            x1, w1 = gauss_jacobi(n, a, b)
            x2, w2 = roots_jacobi(n, a, b)
            assert np.max(np.abs(x1 - x2)) < 1e-12
            assert np.max(np.abs(w1 - w2)) < 1e-12

    def test_exactness_degree(self):
        # n-point rule integrates polynomials of degree <= 2n-1 exactly
        mu = 0.75
        rule = eta_rule(MuContext(mu), 6)
        for deg in range(12):
            val = float(np.sum(rule.weights * rule.nodes ** deg))
            raw, _ = quad(lambda t, d=deg: t ** d, -1, 1, weight="alg",
                          wvar=(mu, mu - 1.0))
            assert val == pytest.approx(raw / rule.raw_mass, abs=1e-12)


class TestExpMuIntegral:
    def test_at_zero(self):
        ctx = MuContext(1.0)
        assert exp_mu_integral(0.0, ctx) == pytest.approx(1.0, abs=1e-14)

    def test_jensen_contraction(self):
        ctx = MuContext(1.0)
        assert abs(exp_mu_integral(2j, ctx)) < 1.0

    def test_agreement_with_series(self):
        ctx = MuContext(0.5)
        z = 0.3 + 0.7j
        a = exp_mu_integral(z, ctx)
        b = exp_mu_series(z, ctx).value
        assert abs(a - b) < 1e-11

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_mu_integral(1.0, MuContext(-0.1))

    @pytest.mark.parametrize("mu", (1e-3, 0.5, 30.0))
    def test_agrees_with_kernel_near_node_cap(self, mu):
        # at s = 527 the default rule has 1199 of its 1200 nodes, where
        # the Gauss-Jacobi end weights are smallest: the oracle keeps the
        # bar it has at |s| <= 60 against the kernel
        ctx = MuContext(mu)
        for s in (300.0, 527.0):
            got = exp_mu_integral(1j * s, ctx)
            want = complex(exp_mu_imag_on_grid(np.array(s), ctx))
            assert abs(got - want) <= 1e-14 * (1.0 + s) + 1e-12, s

    def test_default_rule_refuses_past_node_cap(self):
        # 2.2 |s| + 40 > ETA_NODES_CAP: the capped rule would alias e^(ist)
        with pytest.raises(EvaluationError, match="resolve"):
            exp_mu_integral(3000j, MuContext(1.0))
        with pytest.raises(EvaluationError, match="resolve"):
            abs2_integral(3000.0, MuContext(1.0))


class TestAbs2:
    def test_at_zero_all_methods(self):
        for mu, methods in ((0.6, (abs2_product, abs2_even, abs2_integral)),
                            (-0.3, (abs2_product, abs2_even))):
            ctx = MuContext(mu)
            for m in methods:
                assert m(0.0, ctx) == pytest.approx(
                    1.0, abs=1e-14)

    def test_mu0_product_is_unit(self):
        ctx = MuContext(0.0)
        for s in (0.1, 1.0, 3.0, 7.0):
            assert abs2_product(s, ctx) == pytest.approx(
                1.0, abs=1e-11)

    def test_three_methods_agree(self):
        ctx = MuContext(0.75)
        vals = [oracle(1.5, ctx)
                for oracle in (abs2_product, abs2_even, abs2_integral)]
        assert max(vals) - min(vals) < 1e-9

    def test_strict_contraction_positive_mu(self):
        for mu in (0.25, 1.0, 2.0):
            ctx = MuContext(mu)
            for s in (0.05, 0.5, 2.0, 10.0, 20.0):
                v = abs2_integral(s, ctx)
                assert 0.0 <= v < 1.0
        assert abs2_integral(0.0, MuContext(1.0)) == \
            pytest.approx(1.0, abs=1e-15)

    def test_method_agreement_grid(self):
        # pairwise agreement within ten times each method's error: the
        # series' bars, on |exp_mu(is)|^2 for the product, and the rule's
        for mu in MU_GRID:
            ctx = MuContext(mu)
            for s in np.linspace(-10, 10, 11):
                series = exp_mu_series(1j * s, ctx)
                prod = abs(series.value) ** 2
                even_res = even_series_result(s, ctx)
                even = even_res.value.real
                integ = abs2_integral(s, ctx)
                d = series.trunc_error + series.rounding_error
                err_prod = (2 * abs(series.value) + d) * d
                err_even = even_res.trunc_error + even_res.rounding_error
                err_rule = 1e-14 * (1.0 + abs(s))
                assert abs(prod - integ) <= 10.0 * max(err_prod, err_rule)
                assert abs(even - integ) <= 10.0 * max(err_even, err_rule)
                assert abs(even - prod) <= 10.0 * max(err_even, err_prod)

    def test_integral_requires_positive_mu(self):
        with pytest.raises(ValueError):
            abs2_integral(1.0, MuContext(-0.2))

    def test_taylor_coefficients_match_cauchy_product(self):
        # even-series coefficients (exact route) against the convolution of
        # two power-series coefficient lists, through order s^20
        for mu in MU_GRID:
            muf = Fraction(mu)
            ctx = MuContext(mu)
            inv_gamma = [1.0 / gamma_mu(m, ctx) for m in range(21)]
            for j in range(11):
                conv = sum((-1.0) ** m * inv_gamma[m] * inv_gamma[2 * j - m]
                           for m in range(2 * j + 1))
                exact_cj = float(p_at_exact(2 * j).evaluate(muf)
                                 / gamma_mu_exact(2 * j).evaluate(muf))
                assert conv == pytest.approx(exact_cj, rel=1e-10)

    def test_taylor_coefficients_mu0_absolute(self):
        ctx = MuContext(0.0)
        inv_gamma = [1.0 / gamma_mu(m, ctx) for m in range(21)]
        for j in range(1, 11):
            conv = sum((-1.0) ** m * inv_gamma[m] * inv_gamma[2 * j - m]
                       for m in range(2 * j + 1))
            scale = max(inv_gamma[m] * inv_gamma[2 * j - m]
                        for m in range(2 * j + 1))
            assert abs(conv) <= 1e-13 * max(scale, 1e-300) * (2 * j + 1)

    def test_grid_evaluator_matches_scalar(self):
        for mu, oracles in ((0.8, (abs2_product, abs2_integral)),
                            (-0.2, (abs2_product,))):
            ctx = MuContext(mu)
            svals = np.linspace(-4, 4, 9)
            grid = abs2_on_grid(svals, ctx)
            for s, v in zip(svals, grid):
                for oracle in oracles:
                    ref = oracle(float(s), ctx)
                    assert v == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_far_argument_against_bessel_reference(self):
        # s = 3000 at mu = 1: exp_mu(is) = sin(s)/s + i s/3 j_{3/2}(s), whose
        # squared modulus is about 1.11e-7; the capped eta rule gave 1.32e-3
        s, ctx = 3000.0, MuContext(1.0)
        with mpmath.workdps(40):
            t = mpmath.mpf(s)
            j32 = mpmath.gamma(2.5) * (2 / t) ** 1.5 * mpmath.besselj(1.5, t)
            ref = float((mpmath.sin(t) / t) ** 2 + (t / 3 * j32) ** 2)
        assert ref == pytest.approx(1.11e-7, rel=1e-2)
        got = float(abs2_on_grid(s, ctx))
        assert abs(got - ref) <= abs2_grid_error_bound(ref)
        assert got == pytest.approx(ref, rel=1e-9)


def series_reference_mp(s: float, mu: float) -> mpmath.mpc:
    """exp_mu(is) by its power series at the current mpmath precision; at
    400 bits the partial sums peak near e^|s| < 2^87 for |s| <= 60, far
    inside the precision."""
    z, mu_mp = mpmath.mpc(0, s), mpmath.mpf(mu)
    total = term = mpmath.mpc(1)
    tiny = mpmath.mpf(2) ** (10 - mpmath.mp.prec)
    n = 0
    while n <= abs(s) or abs(term) > tiny:
        n += 1
        term *= z / (n + 2 * mu_mp * (n % 2))
        total += term
    return total


def series_reference(s: float, mu: float, prec_bits: int = 400) -> complex:
    with mpmath.workprec(prec_bits):
        return complex(series_reference_mp(s, mu))


def exp_mu_reference(z: complex, mu: float) -> mpmath.mpc:
    """exp_mu(z) = 0F1(; nu; z^2/4) + z/(2nu) 0F1(; nu+1; z^2/4),
    nu = mu + 1/2, the Dunkl kernel at z by mpmath, to 50 digits: at 60,
    or at more where the two terms cancel, as they do like e^(2|z|) at
    mu = 0 on the negative real axis."""
    dps = 60
    while True:
        with mpmath.workdps(dps):
            w, nu = mpmath.mpc(z), mpmath.mpf(mu) + 0.5
            even = mpmath.hyp0f1(nu, w * w / 4)
            odd = w / (2 * nu) * mpmath.hyp0f1(nu + 1, w * w / 4)
            total = even + odd
            lost = (mpmath.log10(max(abs(even), abs(odd)) / abs(total))
                    if total else dps)
            if lost <= dps - 50:
                return total
        dps += int(lost) + 10


def oracle_ratio(oracle, mu: float):
    """The ratio(n) that oracle(1, MuContext(mu)) hands to its one pass of
    core._fixed_series."""
    import mudeform.core as core_module
    ratios, real = [], core_module._fixed_series
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_module, "_fixed_series",
                      lambda x, y, ratio, *rest: ratios.append(ratio)
                      or real(x, y, ratio, *rest))
        oracle(1.0, MuContext(mu))
    ratio, = ratios
    return ratio


# far from the origin along any direction but the positive real axis
FAR_Z = st.complex_numbers(max_magnitude=1000.0).filter(
    lambda z: abs(z.real) <= 700.0)


class TestSeriesEngine:
    """Both series run on one integer pass whose error bars bound the true
    error."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=MU_MIN, max_value=250.0, exclude_min=True),
           st.floats(min_value=-1000.0, max_value=1000.0), FAR_Z)
    @example(-0.45, 9.0, 9j)    # even series once: 1.5e-16 reported, 2.0e-8
    @example(-0.45, 12.0, 12j)  # even series: 1.0e-15 reported, true 4.3e-6
    @example(-0.3, 9.0, 9j)     # even series: true error 2.8e-10
    @example(-0.25, 20.0, 20j)  # power series: 4e-17 reported, true 6.7e-9
    def test_reported_error_bounds_true_error(self, mu, s, z):
        ctx = MuContext(mu)
        series = exp_mu_series(z, ctx)
        even = even_series_result(s, ctx)
        ref, ref_even = exp_mu_reference(z, mu), exp_mu_reference(1j * s, mu)
        with mpmath.workdps(60):
            assert abs(series.value - ref) <= (series.trunc_error
                                               + series.rounding_error)
            assert abs(even.value.real - abs(ref_even) ** 2) <= (
                even.trunc_error + even.rounding_error)

    @pytest.mark.parametrize("mu", (-0.45, -0.3, 0.413, 2.0))
    def test_far_argument(self, mu):
        # at |s| = 1000 the terms reach e^|s| and e^(2|s|), past float
        # range, and both bars stay below the kernel floor
        ctx = MuContext(mu)
        series = exp_mu_series(1000j, ctx)
        even = even_series_result(1000.0, ctx)
        ref = exp_mu_reference(1000j, mu)
        with mpmath.workdps(60):
            assert abs(series.value - ref) <= (series.trunc_error
                                               + series.rounding_error)
            assert abs(even.value.real - abs(ref) ** 2) <= (
                even.trunc_error + even.rounding_error)
        assert series.trunc_error + series.rounding_error <= 1e-12 * max(
            1.0, abs(series.value))
        assert even.trunc_error + even.rounding_error <= 1e-12 * max(
            1.0, even.value.real)

    @pytest.mark.parametrize("mu", (-0.45, 0.0, 0.5, 3.0, 20.0))
    def test_derived_precision_far_out(self, mu):
        # the precision is fixed from the proved bound e^|s| on the power
        # series' sum |t_n|, e^|s| < 2^505 here, so both bars hold out to
        # s = 350
        ctx = MuContext(mu)
        for s in (150.0, 200.0, 300.0, 350.0):
            series = exp_mu_series(1j * s, ctx)
            even = even_series_result(s, ctx)
            with mpmath.workprec(1200):
                ref = series_reference_mp(s, mu)
                assert abs(series.value - ref) <= (series.trunc_error
                                                   + series.rounding_error)
                assert abs(even.value.real - abs(ref) ** 2) <= (
                    even.trunc_error + even.rounding_error)

    def test_precision_left_is_reported_or_fails_fast(self, monkeypatch):
        # the fixed precision leaves digits at s = 100 and 200, reported by
        # the bars; with no guard bits past e^|s| < 2^291 the bars reach the
        # value at s = 200, and the check raises with the best estimate
        import mudeform.core as core_module
        ctx = MuContext(0.5)
        for s in (100.0, 200.0):
            r = exp_mu_series(1j * s, ctx)
            got = complex(exp_mu_imag_on_grid(np.array(s), ctx))
            assert abs(r.value - got) <= (r.trunc_error + r.rounding_error
                                          + 1e-12)
        monkeypatch.setattr(core_module, "_GUARD_BITS", -291)
        with pytest.raises(EvaluationError, match="no correct digit at 291 "
                           "bits") as err:
            exp_mu_series(200j, ctx)
        assert err.value.best is not None

    def test_zero_term_ends_even_series_exactly(self):
        # at mu = 0 every c_j past j = 0 vanishes: no tail, whatever the
        # next ratios are (above 1 at s = 10 where the loop stops)
        for s in (0.5, 10.0, 60.0):
            r = even_series_result(s, MuContext(0.0))
            assert r.value == 1.0 and r.trunc_error == 0.0

class TestKernelAgainstOracles:
    """The closed-form kernel against every independent route."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-0.45, max_value=3.0),
           st.floats(min_value=-60.0, max_value=60.0))
    def test_every_route_agrees(self, mu, s):
        ctx = MuContext(mu)
        ref = series_reference(s, mu)
        got = complex(exp_mu_imag_on_grid(np.array(s), ctx))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        ref2 = abs(ref) ** 2
        got2 = float(abs2_on_grid(np.array(s), ctx))
        assert abs(got2 - ref2) <= abs2_grid_error_bound(ref2)

        # each series within its bars of the exact value, which the kernel
        # is within its floor of
        series = exp_mu_series(1j * s, ctx)
        assert abs(series.value - got) <= (
            series.trunc_error + series.rounding_error
            + 1e-12 * max(1.0, abs(ref)))
        even = even_series_result(s, ctx)
        assert abs(even.value.real - got2) <= (
            even.trunc_error + even.rounding_error
            + abs2_grid_error_bound(ref2))
        if mu >= 1e-6:  # eta_rule needs the float mu - 1 to stay above -1
            integral = exp_mu_integral(1j * s, ctx)
            assert abs(integral - got) <= 1e-14 * (1.0 + abs(s)) + 1e-12

    def test_near_zero_needs_no_special_case(self):
        # t = 0 and subnormal t go through the series branch: no 0 * inf
        for mu in (-0.45, 0.0, 3.0):
            vals = exp_mu_imag_on_grid(np.array([0.0, 5e-324, -1e-300]),
                                       MuContext(mu))
            assert np.all(np.isfinite(vals))
            assert np.allclose(vals, 1.0, rtol=0, atol=1e-15)

    def test_mu0_is_classical(self):
        svals = np.linspace(-50.0, 50.0, 101)
        vals = exp_mu_imag_on_grid(svals, MuContext(0.0))
        assert np.max(np.abs(vals - np.exp(1j * svals))) < 1e-13

    def test_large_mu_fails_fast(self):
        with pytest.raises(EvaluationError, match="mu <= 250"):
            exp_mu_imag_on_grid(np.array([1.0]), MuContext(300.0))


def regime_edges(a: float) -> np.ndarray:
    """Points at both sides of each _bessel_pair regime boundary: the series
    hands over to Miller at 2 sqrt(a+1) and Miller to Hankel at
    max(40, a+2)."""
    edge = 2.0 * math.sqrt(a + 1.0)
    return np.array(sorted({
        0.0, 1e-3, 0.5 * edge, math.nextafter(edge, 0.0), edge,
        1.01 * edge, math.nextafter(40.0, 0.0), 40.0, 40.5,
        math.nextafter(a + 2.0, 0.0), a + 2.0, a + 2.5, 2.0 * a + 50.0,
        1e3, 12345.6, 1e5, 1e6}))


class TestBesselPair:
    """_bessel_pair in all three regimes against 40-digit 0F1."""

    @pytest.mark.parametrize(
        "a", (1e-6, 1e-3, 0.5, 1.0, 3.0, 20.5, 120.0, 250.5, 251.5))
    def test_against_hyp0f1(self, a):
        # integer a has v0 = 1
        import mudeform.core as core_module
        t = regime_edges(a)
        j0, j1 = core_module._bessel_pair(a, t)
        with mpmath.workdps(40):
            for ti, got0, got1 in zip(t, j0, j1):
                x = -mpmath.mpf(ti) ** 2 / 4
                for got, b in ((got0, mpmath.mpf(a) + 1),
                               (got1, mpmath.mpf(a) + 2)):
                    assert abs(got - mpmath.hyp0f1(b, x)) <= 1e-13, (b, ti)

    @pytest.mark.parametrize("a", (40.5, 120.0, 250.5, 251.5))
    def test_miller_relative_accuracy(self, a):
        # down to j_a of about 1.5e-34, below the absolute bar above: one
        # sweep over the whole Miller range, whose points peak at different
        # orders; t < a+2 stays below the first zero of J_a
        import mudeform.core as core_module
        edge = 2.0 * math.sqrt(a + 1.0)
        t = edge + (a + 2.0 - edge) * (np.arange(64) + 0.5) / 64
        j0, j1 = core_module._pair_miller(a, t)
        with mpmath.workdps(40):
            for ti, got0, got1 in zip(t, j0, j1):
                x = -mpmath.mpf(ti) ** 2 / 4
                for got, b in ((got0, mpmath.mpf(a) + 1),
                               (got1, mpmath.mpf(a) + 2)):
                    ref = mpmath.hyp0f1(b, x)
                    assert abs(got - ref) <= 1e-12 * abs(ref), (b, ti)

    @pytest.mark.parametrize(
        "a", (1e-6, 0.5, 1.443, 20.5, 120.0, 250.5, 251.5))
    def test_sweep_stays_in_float_range(self, a):
        # the whole Miller interval in one call: the sweep's state peaks
        # near 2^940 at a = 251.5, 83 bits short of float overflow
        import mudeform.core as core_module
        lo, hi = 2.0 * math.sqrt(a + 1.0), max(40.0, a + 2.0)
        t = np.linspace(lo, hi, 258)[:-1]
        with np.errstate(over="raise", invalid="raise"):
            j0, j1 = core_module._pair_miller(a, t)
        assert t[0] == lo and t[-1] < hi
        assert np.all(np.isfinite(j0)) and np.all(np.isfinite(j1))

    def test_one_sweep_per_kernel_call(self, monkeypatch):
        import mudeform.core as core_module
        calls = []
        real = core_module._bessel_pair
        monkeypatch.setattr(core_module, "_bessel_pair",
                            lambda a, t: calls.append(a) or real(a, t))
        exp_mu_imag_on_grid(np.linspace(0.0, 300.0, 50), MuContext(0.3))
        assert calls == [0.8]


class TestEvenCoeff:
    ORACLE_MUS = (0.0, 0.25, 0.5, 1.0, 2.0, -0.449, -0.3, 0.123, 1.777)

    def test_matches_exact_oracle(self):
        # the product-identity recurrence against the symbolic alternating
        # sum, exactly, for every index the hot path uses in tests
        for mu in self.ORACLE_MUS:
            muf = Fraction(mu)
            for j in range(31):
                ref = (p_at_exact(2 * j).evaluate(muf)
                       / gamma_mu_exact(2 * j).evaluate(muf))
                assert even_coeff(j, muf) == ref, (mu, j)

    def test_series_ratio_is_exact(self):
        # the even series' integer ratio is c_j / c_(j-1), as a Fraction
        # (cross-multiplied: at mu = 0 every c_j past j = 0 vanishes)
        for mu in self.ORACLE_MUS:
            ratio, muf = oracle_ratio(even_series_result, mu), Fraction(mu)
            for j in range(1, 31):
                assert Fraction(*ratio(j)) * even_coeff(j - 1, muf) \
                    == even_coeff(j, muf), (mu, j)

    def test_mu0_is_classical(self):
        assert even_coeff(0, Fraction(0)) == 1
        assert all(even_coeff(j, Fraction(0)) == 0 for j in range(1, 31))

    def test_hot_path_never_reaches_symbolic_layer(self, monkeypatch):
        import mudeform.exact
        from mudeform.intervals import IntervalSet
        from mudeform.trace import evaluate_pair

        def forbidden(*args):
            raise AssertionError("symbolic layer reached from the hot path")

        monkeypatch.setattr(mudeform.exact, "p_at_exact", forbidden)
        monkeypatch.setattr(mudeform.exact, "gamma_mu_exact", forbidden)
        row = evaluate_pair(IntervalSet.of((1.0, 2.0)),
                            IntervalSet.of((0.5, 1.5)), MuContext(0.377))
        assert row.method != "failed" and row.sign_resolved
        res = even_series_result(14.0, MuContext(-0.3))
        assert math.isfinite(res.value.real)
