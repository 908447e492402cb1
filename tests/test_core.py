"""Numeric special functions: deformed factorial/exponential, eta_mu rule."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import roots_jacobi

from mudeform.core import (MuContext, abs2_exp_mu_imag,
                           abs2_grid_error_bound, abs2_on_grid,
                           even_coeff, even_series_result,
                           binomial_poly, deformed_binomial, eta_rule,
                           exp_mu_imag_on_grid, exp_mu_integral,
                           exp_mu_series, gamma_mu, gauss_jacobi,
                           log_gamma_mu)
from mudeform.errors import EvaluationError
from mudeform.exact import gamma_mu_exact, p_at_exact

MU_GRID = (0.25, 0.5, 1.0, 2.0)


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
        from scipy.special import gamma as gamma_fn
        for mu in (-0.4, 0.0, 0.5, 3.0):
            ctx = MuContext(mu)
            direct = 1.0 / (2 ** (mu + 0.5) * gamma_fn(mu + 0.5))
            assert ctx.norm_const == pytest.approx(direct, rel=1e-15)
            assert ctx.norm_const > 0

    def test_mu0_is_inverse_root_two_pi(self):
        assert MuContext(0.0).norm_const == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-15)


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

    def test_log_space_consistency(self):
        ctx = MuContext(1.3)
        for n in (10, 149, 151, 160):
            assert log_gamma_mu(n, ctx) == pytest.approx(
                math.log(gamma_mu(n, ctx)), rel=1e-12)

    def test_overflow_range_error(self):
        with pytest.raises(OverflowError):
            gamma_mu(400, MuContext(1.0))
        # log-space value is still available
        assert log_gamma_mu(400, MuContext(1.0)) > 700

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
            assert r.cancellation >= 1.0

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
        r = exp_mu_series(1 + 1j, MuContext(0.5))
        assert r.trunc_error < 1e-14
        assert r.cancellation < 10.0
        assert not r.escalated

    def test_escalation_triggers(self):
        r = exp_mu_series(40j, MuContext(-0.25))
        assert r.escalated
        assert r.cancellation > 1e8

    def test_term_budget_error(self):
        with pytest.raises(EvaluationError):
            exp_mu_series(30.0, MuContext(0.5), max_terms=10)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            exp_mu_series(1.0, MuContext(0.5), tol=0.0)

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

    def test_default_rule_refuses_past_node_cap(self):
        # 2.2 |s| + 40 > ETA_NODES_CAP: the capped rule would alias e^(ist)
        with pytest.raises(EvaluationError, match="resolve"):
            exp_mu_integral(3000j, MuContext(1.0))
        with pytest.raises(EvaluationError, match="resolve"):
            abs2_exp_mu_imag(3000.0, MuContext(1.0), "integral")
        # an explicit rule is the caller's choice and still runs
        rule = eta_rule(MuContext(1.0), 48)
        assert math.isfinite(abs2_exp_mu_imag(3000.0, MuContext(1.0),
                                              "integral", rule=rule))


class TestAbs2:
    def test_at_zero_all_methods(self):
        for mu, methods in ((0.6, ("product", "even_series", "integral")),
                            (-0.3, ("product", "even_series"))):
            ctx = MuContext(mu)
            for m in methods:
                assert abs2_exp_mu_imag(0.0, ctx, m) == pytest.approx(
                    1.0, abs=1e-14)

    def test_mu0_product_is_unit(self):
        ctx = MuContext(0.0)
        for s in (0.1, 1.0, 3.0, 7.0):
            assert abs2_exp_mu_imag(s, ctx, "product") == pytest.approx(
                1.0, abs=1e-11)

    def test_three_methods_agree(self):
        ctx = MuContext(0.75)
        vals = [abs2_exp_mu_imag(1.5, ctx, m)
                for m in ("product", "even_series", "integral")]
        assert max(vals) - min(vals) < 1e-9

    def test_strict_contraction_positive_mu(self):
        for mu in (0.25, 1.0, 2.0):
            ctx = MuContext(mu)
            for s in (0.05, 0.5, 2.0, 10.0, 20.0):
                v = abs2_exp_mu_imag(s, ctx, "integral")
                assert 0.0 <= v < 1.0
        assert abs2_exp_mu_imag(0.0, MuContext(1.0), "integral") == \
            pytest.approx(1.0, abs=1e-15)

    def test_method_agreement_grid(self):
        # pairwise agreement within ten times each method's modelled error
        # (truncation plus cancellation-driven rounding / rule error)
        eps = 2.3e-16
        for mu in MU_GRID:
            ctx = MuContext(mu)
            for s in np.linspace(-10, 10, 11):
                series = exp_mu_series(1j * s, ctx)
                prod = abs(series.value) ** 2
                even_res = even_series_result(s, ctx)
                even = even_res.value.real
                integ = abs2_exp_mu_imag(s, ctx, "integral")
                err_prod = (series.trunc_error
                            + series.cancellation * eps * max(prod, 1.0))
                err_even = (even_res.trunc_error
                            + even_res.cancellation * eps * max(abs(even), 1.0))
                err_rule = 1e-14 * (1.0 + abs(s))
                assert abs(prod - integ) <= 10.0 * max(err_prod, err_rule)
                assert abs(even - integ) <= 10.0 * max(err_even, err_rule)
                assert abs(even - prod) <= 10.0 * max(err_even, err_prod)

    def test_integral_requires_positive_mu(self):
        with pytest.raises(ValueError):
            abs2_exp_mu_imag(1.0, MuContext(-0.2), "integral")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            abs2_exp_mu_imag(1.0, MuContext(0.5), "bogus")

    def test_default_method_dispatch(self):
        assert abs2_exp_mu_imag(1.2, MuContext(0.5)) == pytest.approx(
            abs2_exp_mu_imag(1.2, MuContext(0.5), "integral"), rel=1e-12)
        assert abs2_exp_mu_imag(1.2, MuContext(-0.2)) == pytest.approx(
            abs2_exp_mu_imag(1.2, MuContext(-0.2), "product"), rel=1e-12)

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
        for mu, oracles in ((0.8, ("product", "integral")),
                            (-0.2, ("product",))):
            ctx = MuContext(mu)
            svals = np.linspace(-4, 4, 9)
            grid = abs2_on_grid(svals, ctx)
            for s, v in zip(svals, grid):
                for method in oracles:
                    ref = abs2_exp_mu_imag(float(s), ctx, method)
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
        got = abs2_exp_mu_imag(s, ctx)
        assert abs(got - ref) <= abs2_grid_error_bound(ref)
        assert got == pytest.approx(ref, rel=1e-9)


def series_reference(s: float, mu: float, prec_bits: int = 400) -> complex:
    """exp_mu(is) by its power series in 400-bit arithmetic: the partial
    sums peak near e^|s| < 2^87 for |s| <= 60, far inside the precision."""
    with mpmath.workprec(prec_bits):
        z, mu_mp = mpmath.mpc(0, s), mpmath.mpf(mu)
        total = term = mpmath.mpc(1)
        tiny = mpmath.mpf(2) ** (10 - prec_bits)
        n = 0
        while n <= abs(s) or abs(term) > tiny:
            n += 1
            term *= z / (n + 2 * mu_mp * (n % 2))
            total += term
        return complex(total)


class TestKernelAgainstOracles:
    """The closed-form kernel against every independent route."""

    EPS = 2.3e-16

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

        # the float power series, escalated where it cancels
        series = exp_mu_series(1j * s, ctx)
        err_prod = (series.trunc_error + series.cancellation * self.EPS
                    * max(abs(series.value), 1.0))
        assert abs(series.value - got) <= 10.0 * err_prod + 1e-12 * max(
            1.0, abs(got))
        # the even series cancels like e^(2|s|): give it a 512-bit budget;
        # its float pass overflows s^(2j) past |s| of about 36
        if abs(s) <= 30.0:
            even = even_series_result(s, ctx, prec_bits=512)
            err_even = (even.trunc_error + even.cancellation * self.EPS
                        * max(abs(even.value), 1.0))
            assert abs(even.value.real - got2) <= 10.0 * err_even + \
                abs2_grid_error_bound(got2)
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
        assert res.escalated
        assert math.isfinite(res.value.real)
