"""Exact operator algebra on Gaussian polynomials and the numeric transform."""

import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mudeform.operators as operators_module
from mudeform.cli import main
from mudeform.core import MuContext, exp_mu_imag_on_grid, norm_const_mp
from mudeform.errors import EvaluationError
from mudeform.exact import MU, MuPolynomial
from mudeform.intervals import IntervalSet
from mudeform.measure import weighted_panel_rule
from mudeform.operators import (CPoly, GaussPoly, apply_H, apply_J, apply_P,
                                apply_Q, ccr_residual, eom_residuals,
                                fourier_mu_numeric, intertwining_check,
                                parse_gauss_poly)

from helpers import fourier_uncached, set_quadrature

G = GaussPoly.basis(0)
XG = GaussPoly.basis(1)


def basis(n):
    return GaussPoly.basis(n)


def times_mu_poly(psi):
    return GaussPoly([CPoly(c.re * MU, c.im * MU) for c in psi.coeffs])


@pytest.fixture(autouse=True)
def cold_fourier_levels():
    """Every test starts with no Fourier level cached, so its work counts
    start cold."""
    operators_module._fourier_level.cache_clear()


class TestBasicOperators:
    def test_Q_on_gaussian(self):
        assert apply_Q(G) == XG

    def test_Q_degree_shift(self):
        for n in range(6):
            assert apply_Q(basis(n)).degree == n + 1

    def test_Q_squared_is_x2(self):
        assert apply_Q(apply_Q(G)) == basis(2)

    def test_J_involution(self):
        psi = parse_gauss_poly("(1+2i)x^2 + 3x + 1 * gauss")
        assert apply_J(apply_J(psi)) == psi

    def test_J_on_even_is_identity(self):
        psi = parse_gauss_poly("1 + 2x^2 * gauss")
        assert apply_J(psi) == psi

    def test_J_on_odd_flips(self):
        assert apply_J(XG) == GaussPoly([CPoly.ZERO, CPoly(-1)])

    def test_P_on_gaussian(self):
        # even function kills the reflection term: P g = i x g
        assert apply_P(G) == GaussPoly([CPoly.ZERO, CPoly(0, 1)])

    def test_P_degree_shift(self):
        for n in range(6):
            assert apply_P(basis(n)).degree == n + 1

    def test_P_at_mu0_is_derivative_over_i(self):
        # (1/i) d/dx on p e^{-x^2/2}: check coefficients specialized at mu=0
        for n in range(13):
            got = apply_P(basis(n))
            # (1/i)(n x^(n-1) - x^(n+1)) e^{-x^2/2}
            for m, c in enumerate(got.coeffs):
                expect = 0j
                if m == n - 1:
                    expect = n / 1j
                elif m == n + 1:
                    expect = -1 / 1j
                assert c.evaluate(0.0) == pytest.approx(expect, abs=1e-15)

    def test_closure_on_basis(self):
        for n in range(13):
            for op in (apply_Q, apply_J, apply_P, apply_H):
                out = op(basis(n))
                assert isinstance(out, GaussPoly)
                assert out.degree <= n + 2


class TestParityRelations:
    def test_JQ_anticommutes(self):
        for n in range(9):
            psi = basis(n)
            assert apply_J(apply_Q(psi)) == apply_Q(
                apply_J(psi)).scale_complex(-1, 0)

    def test_JP_anticommutes(self):
        for n in range(9):
            psi = basis(n)
            lhs = apply_J(apply_P(psi))
            rhs = apply_P(apply_J(psi))
            assert lhs == rhs.scale_complex(-1, 0)

    def test_JH_commutes(self):
        for n in range(9):
            psi = basis(n)
            assert apply_J(apply_H(psi)) == apply_H(apply_J(psi))


class TestCCR:
    def test_exact_zero_kappa_one(self):
        for n in range(11):
            assert ccr_residual(basis(n), 1).is_zero

    def test_exact_zero_on_mixed_function(self):
        psi = parse_gauss_poly("(1+2i)x^3 - 1/2 x + 2 * gauss")
        assert ccr_residual(psi, Fraction(1)).is_zero

    def test_kappa_two_residual_value(self):
        # residual for general kappa is 2(kappa-1) mu J psi; own derivation,
        # confirmed by the symbolic engine here
        for n in range(6):
            psi = basis(n)
            residual = ccr_residual(psi, 2)
            expected = times_mu_poly(apply_J(psi)).scale_complex(2, 0)
            assert residual == expected
            assert not residual.is_zero

    def test_kappa_two_breaks_on_odd_basis(self):
        assert not ccr_residual(XG, 2).is_zero

    def test_any_kappa_vanishes_at_mu0(self):
        for kappa in (2, Fraction(3, 2), 0):
            residual = ccr_residual(XG, kappa)
            for c in residual.coeffs:
                assert c.evaluate(0.0) == 0


class TestCCRThroughBasis80:
    def test_flags_and_kappa_two_residual(self):
        for n in range(81):
            psi = basis(n)
            assert ccr_residual(psi, 1).is_zero, n
            residual = ccr_residual(psi, 2)
            assert not residual.is_zero, n
            assert residual == times_mu_poly(apply_J(psi)).scale_complex(2, 0)


FRACS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def poly_at(coeffs, y):
    return sum(c * y ** n for n, c in enumerate(coeffs))


def derivative(coeffs):
    return [n * c for n, c in enumerate(coeffs)][1:]


def L_at(p, y, km):
    """p'(y) - y p(y) + km (p(y) - p(-y))/y: P = -i L on real p, km = kappa mu."""
    return (poly_at(derivative(p), y) - y * poly_at(p, y)
            + km * (poly_at(p, y) - poly_at(p, -y)) / y)


def L_squared_at(p, x, km):
    """L(L p) at x, from (Lp)'(y) = p''(y) - p(y) - y p'(y)
    + km ((p'(y) + p'(-y))/y - (p(y) - p(-y))/y^2)."""
    d1, d2 = derivative(p), derivative(derivative(p))

    def Lp_prime(y):
        return (poly_at(d2, y) - poly_at(p, y) - y * poly_at(d1, y)
                + km * ((poly_at(d1, y) + poly_at(d1, -y)) / y
                        - (poly_at(p, y) - poly_at(p, -y)) / (y * y)))

    return (Lp_prime(x) - x * L_at(p, x, km)
            + km * (L_at(p, x, km) - L_at(p, -x, km)) / x)


def factor_at(phi, x, mu):
    """The polynomial factor of phi at (x, mu), exactly, as (re, im)."""
    cs = phi.coeffs
    return (poly_at([c.re.evaluate(mu) for c in cs], x),
            poly_at([c.im.evaluate(mu) for c in cs], x))


class TestOperatorOracle:
    """apply_Q/J/P/H against the defining formulas at a rational point.

    With psi = (u + i v) e^(-x^2/2) for real u, v, P = -i L, where
    L p = p' - x p + kappa mu (p(x) - p(-x))/x is real, so P psi has the
    factor (L v, -L u) and H = (x^2 - L^2)/2 acts on u and v alike."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(FRACS, FRACS), min_size=1, max_size=9),
           st.fractions(min_value=-3, max_value=3,
                        max_denominator=5).filter(lambda q: q != 0),
           st.fractions(min_value=Fraction(-5, 12), max_value=3,
                        max_denominator=12),
           st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)]))
    def test_matches_defining_formulas(self, pairs, x, mu, kappa):
        psi = GaussPoly([CPoly(a, b) for a, b in pairs])
        u, v = [a for a, _ in pairs], [b for _, b in pairs]
        km = kappa * mu
        assert factor_at(apply_Q(psi), x, mu) == (x * poly_at(u, x),
                                                   x * poly_at(v, x))
        assert factor_at(apply_J(psi), x, mu) == (poly_at(u, -x),
                                                   poly_at(v, -x))
        assert factor_at(apply_P(psi, kappa), x, mu) == (L_at(v, x, km),
                                                          -L_at(u, x, km))
        assert factor_at(apply_H(psi, kappa), x, mu) == tuple(
            (x * x * poly_at(p, x) - L_squared_at(p, x, km)) / 2
            for p in (u, v))


class TestCheckOperatorsExactFields:
    """ccr and equations_of_motion of check-operators, as recorded from the
    Fraction-based implementation this integer layer replaced."""

    DEG6 = "(1/3x^6 - 3x^5 - 1/3x^4 - x^2 - 2) * gauss"
    FITTED = {"fitted_c1": "0.0-1.0j", "fitted_c2": "0.0+1.0j",
              "printed_form_residual_zero": False}

    @pytest.mark.parametrize("argv, ccr_zero, psis", [
        ((), True, ("gauss", "x * gauss")),
        (("--kappa", "2"), False, ("gauss", "x * gauss")),
        (("--psi", DEG6), True, (DEG6,)),
    ], ids=["defaults", "kappa2", "degree6"])
    def test_recorded_output(self, tmp_path, argv, ccr_zero, psis):
        out = tmp_path / "operators.json"
        assert main(["check-operators", *argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ccr"] == [{"basis": n, "residual_zero": ccr_zero}
                                  for n in range(11)]
        assert payload["ccr_all_zero"] is ccr_zero
        assert payload["equations_of_motion"] == [dict(self.FITTED, psi=p)
                                                  for p in psis]


class TestFitConstant:
    fit = staticmethod(operators_module._fit_constant)

    def test_proportional_pairs(self):
        ref = apply_H(parse_gauss_poly("(1+2i)x^3 - 1/2 x + 2 * gauss"))
        c = (Fraction(-3, 7), Fraction(5, 2))
        assert self.fit(ref.scale_complex(*c), ref) == c
        assert self.fit(GaussPoly([]), ref) == (0, 0)

    def test_non_proportional_pairs(self):
        assert self.fit(basis(1) + basis(3), basis(1)) is None
        assert self.fit(basis(1).scale_complex(0, 1) + basis(3),
                        basis(1) + basis(3)) is None
        assert self.fit(times_mu_poly(basis(2)), basis(2)) is None
        assert self.fit(basis(2), GaussPoly([])) is None


class TestHamiltonian:
    def test_ground_state_symbolic(self):
        # H g = (mu + 1/2) g, exactly in the polynomial ring
        hg = apply_H(G)
        expected = GaussPoly([CPoly(MuPolynomial((Fraction(1, 2), 1)))])
        assert hg == expected

    def test_ground_state_mu0(self):
        hg = apply_H(G)
        assert hg.coeff(0).evaluate(0.0) == pytest.approx(0.5)

    def test_linearity(self):
        a, b = (Fraction(2), Fraction(1, 3)), (Fraction(0), Fraction(-1))
        psi, phi = basis(2), basis(5)
        combo = psi.scale_complex(*a) + phi.scale_complex(*b)
        lhs = apply_H(combo)
        rhs = apply_H(psi).scale_complex(*a) + apply_H(phi).scale_complex(*b)
        assert lhs == rhs


class TestEquationsOfMotion:
    def test_fitted_constants(self):
        rep = eom_residuals(XG)
        assert rep.fitted_as_complex() == (-1j, 1j)

    def test_printed_form_residuals_nonzero(self):
        # the printed claim [H,Q]=P, [H,P]=-Q misses the factors of i
        rep = eom_residuals(XG)
        assert not rep.residuals_vanish

    def test_fitted_constants_zero_residual_on_basis(self):
        # a fitted constant is returned only where the commutator equals
        # it times the target on every coefficient: [H,Q] = -iP, [H,P] = iQ
        for n in range(9):
            rep = eom_residuals(basis(n))
            assert not basis(n).is_zero
            assert rep.fitted_c1 == (Fraction(0), Fraction(-1))
            assert rep.fitted_c2 == (Fraction(0), Fraction(1))
            assert not rep.residuals_vanish

    def test_classical_case_same_algebra(self):
        # on the Gaussian the fitted constants are the classical oscillator
        # ones, and [H,Q] G = -iP G holds exactly for every mu
        rep = eom_residuals(G)
        assert rep.fitted_as_complex() == (-1j, 1j)
        hq = apply_H(apply_Q(G)) - apply_Q(apply_H(G))
        residual = hq - apply_P(G).scale_complex(0, -1)
        assert residual.is_zero


class TestFourier:
    def test_gaussian_self_reciprocal_mu0(self):
        ks = np.linspace(-3, 3, 13)
        vals = fourier_mu_numeric([G], ks, MuContext(0.0))[0]
        assert np.max(np.abs(vals - np.exp(-ks ** 2 / 2))) < 1e-8

    def test_linearity(self):
        ctx = MuContext(0.5)
        ks = np.array([-1.0, 0.3, 2.0])
        psi, phi = basis(2), XG
        combo = psi.scale_complex(Fraction(2), 0) + phi.scale_complex(
            0, Fraction(1))
        lhs = fourier_mu_numeric([combo], ks, ctx)[0]
        rhs = (2.0 * fourier_mu_numeric([psi], ks, ctx)[0]
               + 1j * fourier_mu_numeric([phi], ks, ctx)[0])
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_plancherel_spot_check(self):
        # both sides by independent quadratures, mu = 0.5
        ctx = MuContext(0.5)
        psi = XG
        x, w = weighted_panel_rule(IntervalSet.of((-9, 9)), ctx, 24, 12)
        direct = float(np.sum(w * np.abs(psi.evaluate(x, ctx.mu)) ** 2))
        k, wk = weighted_panel_rule(IntervalSet.of((-9, 9)), ctx, 12, 8)
        transformed = fourier_mu_numeric([psi], k, ctx)[0]
        via_transform = float(np.sum(wk * np.abs(transformed) ** 2))
        assert via_transform == pytest.approx(direct, abs=1e-6)

    def test_zero_function(self):
        vals = fourier_mu_numeric([GaussPoly([])], np.array([1.0]),
                                  MuContext(0.5))
        assert vals.shape == (1, 1) and vals[0, 0] == 0


def dense_fourier(psis, k, ctx):
    """The full-grid sum over the (-R, R) rule, level by level, with the
    shared radius, the per-function stopping rule and the transform's
    quadrature settings."""
    om = operators_module
    log_norm = float(mpmath.log(norm_const_mp(ctx.mu)))
    R = max(om._support_radius(p.values_at(ctx.mu), ctx.mu, log_norm,
                               om.QUAD_ABS_TOL) for p in psis)
    prev = None
    for level in range(om.QUAD_LEVELS + 1):
        x, w = weighted_panel_rule(IntervalSet.of((-R, R)), ctx, 2 ** level,
                                   om.QUAD_NODES)
        kernel = exp_mu_imag_on_grid(-np.outer(k, x), ctx)
        vals = np.array([kernel @ (w * p.evaluate(x, ctx.mu)) for p in psis])
        if prev is not None and all(
                np.max(np.abs(v - q)) <= max(om.QUAD_ABS_TOL, om.QUAD_REL_TOL
                                             * np.max(np.abs(v)))
                for v, q in zip(vals, prev)):
            return vals
        prev = vals
    raise AssertionError("dense oracle did not converge")


class TestFourierHalfGrid:
    MUS = (-0.449, -0.16, 0.0, 0.5, 1.969)
    K = np.array([-2.5, 0.0, 0.3, 1.7, 1.7])  # asymmetric, repeated, 0
    MIXED = "(1+2i)x^3 - 1/2 x^2 + 3x + 1 * gauss"

    def test_gaussian_self_reciprocal(self):
        ks = np.linspace(-3, 3, 25)
        for mu in self.MUS:
            vals = fourier_mu_numeric([G], ks, MuContext(mu))[0]
            assert vals.shape == ks.shape
            assert np.max(np.abs(vals - np.exp(-ks ** 2 / 2))) < 1e-12, mu

    def test_odd_eigenfunction(self):
        # P g = i x g and F P = k F give F(x g) = -i k e^(-k^2/2)
        ks = np.linspace(-3, 3, 25)
        for mu in self.MUS:
            vals = fourier_mu_numeric([XG], ks, MuContext(mu))[0]
            expect = -1j * ks * np.exp(-ks ** 2 / 2)
            assert np.max(np.abs(vals - expect)) < 1e-12, mu

    def test_matches_dense_full_grid_sum(self):
        psi = parse_gauss_poly(self.MIXED)
        for mu in self.MUS:
            ctx = MuContext(mu)
            for psis in ([psi], [apply_P(psi), psi]):
                ref = dense_fourier(psis, self.K, ctx)
                got = fourier_mu_numeric(psis, self.K, ctx)
                assert got.shape == (len(psis), self.K.size)
                for g, r in zip(got, ref):
                    assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
                    assert g[3] == g[4]

    def test_sequence_with_zero_function(self):
        ctx = MuContext(0.5)
        vals = fourier_mu_numeric([GaussPoly([]), G], self.K, ctx)
        assert np.all(vals[0] == 0)
        assert np.max(np.abs(vals[1] - np.exp(-self.K ** 2 / 2))) < 1e-12
        assert fourier_mu_numeric([GaussPoly([])], self.K, ctx).shape == (
            1, self.K.size)


class TestFourierWork:
    DEG6 = parse_gauss_poly("(1/3x^6 - 3x^5 - 1/3x^4 - x^2 - 2) * gauss")

    def test_one_kernel_call_per_level_on_half_grid(self, monkeypatch):
        rules, kernel_args, entries = [], [], []
        real_rule = operators_module.weighted_panel_rule
        real_kernel = operators_module.exp_mu_imag_on_grid
        real_fourier = operators_module.fourier_mu_numeric

        def rule(*args):
            out = real_rule(*args)
            rules.append(out[0])
            return out

        def kernel(svals, ctx):
            kernel_args.append(np.array(svals))
            return real_kernel(svals, ctx)

        def fourier(psis, *args, **kwargs):
            entries.append(psis)
            return real_fourier(psis, *args, **kwargs)

        monkeypatch.setattr(operators_module, "weighted_panel_rule", rule)
        monkeypatch.setattr(operators_module, "exp_mu_imag_on_grid", kernel)
        monkeypatch.setattr(operators_module, "fourier_mu_numeric", fourier)
        ks = np.linspace(-3, 3, 25)
        assert intertwining_check(self.DEG6, ks, MuContext(-0.16)) < 1e-9
        assert len(entries) == 1 and len(entries[0]) == 2
        assert len(kernel_args) == len(rules) >= 2
        for x, svals in zip(rules, kernel_args):
            assert np.all(x > 0)
            assert svals.shape == (13, x.size)
            assert np.array_equal(svals, np.outer(np.unique(np.abs(ks)), x))

    def test_coefficients_evaluated_once_per_call(self, monkeypatch):
        # values_at rounds every coefficient of one function at mu
        calls, levels, counts = [], [], []
        real_values = GaussPoly.values_at
        real_rule = operators_module.weighted_panel_rule

        def values(psi, mu):
            out = real_values(psi, mu)
            calls.extend(out.tolist())
            return out

        def rule(*args):
            levels.append(args)
            return real_rule(*args)

        monkeypatch.setattr(GaussPoly, "values_at", values)
        monkeypatch.setattr(operators_module, "weighted_panel_rule", rule)
        psis = [apply_P(self.DEG6), self.DEG6]
        ks = np.linspace(-3, 3, 25)
        for nodes in (operators_module.QUAD_NODES, 6):
            set_quadrature(monkeypatch, operators_module, QUAD_NODES=nodes)
            calls.clear()
            levels.clear()
            fourier_mu_numeric(psis, ks, MuContext(-0.16))
            assert len(calls) == 8 + 7  # degrees 7 and 6
            counts.append(len(levels))
        assert counts[0] < counts[1]

    def test_failure_best_has_result_shape(self, monkeypatch):
        set_quadrature(monkeypatch, operators_module, QUAD_LEVELS=3,
                       QUAD_REL_TOL=1e-15, QUAD_ABS_TOL=1e-15)
        ks = np.linspace(-3, 3, 25)
        ctx = MuContext(0.5)
        with pytest.raises(EvaluationError) as single:
            fourier_mu_numeric([self.DEG6], ks, ctx)
        assert single.value.best.shape == (1, ks.size)
        with pytest.raises(EvaluationError) as pair:
            fourier_mu_numeric([apply_P(self.DEG6), self.DEG6], ks, ctx)
        assert pair.value.best.shape == (2, ks.size)

    def test_check_operators_builds_each_level_once(self, tmp_path,
                                                    monkeypatch):
        # the default psis share their (mu, R) levels, and a repeated
        # command rebuilds none; at mu = 2 the two psis have different R
        calls = []
        real_kernel = operators_module.exp_mu_imag_on_grid

        def kernel(svals, ctx):
            calls.append(ctx.mu)
            return real_kernel(svals, ctx)

        monkeypatch.setattr(operators_module, "exp_mu_imag_on_grid", kernel)
        out = str(tmp_path / "operators.json")
        counts = []
        for mu in ("0.5", "0.5", "2"):
            calls.clear()
            assert main(["check-operators", "--mu", mu, "--out", out]) == 0
            counts.append(len(calls))
        assert counts == [2, 0, 4]

    def test_values_past_float_range_fail_before_any_level(self, tmp_path,
                                                           monkeypatch):
        levels = []
        monkeypatch.setattr(operators_module, "_fourier_level",
                            lambda *args: levels.append(args))
        out = tmp_path / "operators.json"
        assert main(["check-operators", "--n-max", "0", "--psi",
                     "(1e300x^6)*gauss", "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())["intertwining"]
        assert entry["error"].startswith("psi leaves float range on [-R, R]")
        assert not levels

    @pytest.mark.parametrize("mu", (0.5, 87.0, 131.0, 200.0, 250.0))
    @pytest.mark.parametrize("literal", ("gauss", "x * gauss",
                                         "(1 + 2x^3) * gauss"))
    def test_support_radius_is_the_first_grid_point_past_the_peak(
            self, literal, mu):
        # the envelope norm_const max|c| (1+R)^(deg+1) e^(-R^2/2) R^(2 mu)
        # at 40 digits, as norm_const leaves a float's range at large mu,
        # tried on the 2 * 1.25^k grid from past its peak on
        values = parse_gauss_poly(literal).values_at(mu)
        tol = operators_module.QUAD_ABS_TOL
        with mpmath.workdps(40):
            scale = norm_const_mp(mu) * max(abs(v) for v in values.tolist())
            R = 2.0
            while not (R * R >= 2 * mu + len(values) and scale
                       * (1 + mpmath.mpf(R)) ** len(values)
                       * mpmath.exp(-mpmath.mpf(R) ** 2 / 2)
                       * mpmath.mpf(R) ** (2 * mu) < 0.1 * tol):
                R *= 1.25
        assert R < 40.0
        log_norm = float(mpmath.log(norm_const_mp(mu)))
        assert operators_module._support_radius(values, mu, log_norm, tol) == R


COEFFS = [Fraction(sign * n, d) for sign in (1, -1) for n, d in
          ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3))]


class TestFourierLadder:
    """The ladder from level 2 against the uncached one from level 0, on
    check-operators' k and the pairs (P psi, psi) it transforms."""

    K = np.linspace(-3.0, 3.0, 25)

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(-0.499, 250.0, exclude_min=True),
           coeffs=st.lists(st.sampled_from(COEFFS), min_size=1, max_size=7))
    @example(mu=0.5, coeffs=[Fraction(1, 10 ** 300)])
    def test_matches_the_uncached_ladder(self, mu, coeffs):
        ctx = MuContext(mu)
        psi = GaussPoly([CPoly(c) for c in coeffs])
        psis = [apply_P(psi), psi]
        ref, level = fourier_uncached(psis, self.K, ctx)
        got = fourier_mu_numeric(psis, self.K, ctx)
        if level >= 3:
            assert got.tobytes() == ref.tobytes()
        else:
            for g, r in zip(got, ref):
                assert np.max(np.abs(g - r)) <= max(
                    operators_module.QUAD_ABS_TOL,
                    operators_module.QUAD_REL_TOL * np.max(np.abs(r)))


class TestIntertwining:
    def test_mu0_gaussian(self):
        gap = intertwining_check(G, np.linspace(-3, 3, 25), MuContext(0.0))
        assert gap < 1e-8

    def test_mu_half_xg(self):
        gap = intertwining_check(XG, np.linspace(-3, 3, 25), MuContext(0.5))
        assert gap < 1e-6

    def test_discrepancy_tracks_quadrature_resolution(self, monkeypatch):
        # crude rules must not beat refined ones (sanity of error model)
        ctx = MuContext(0.5)
        ks = np.linspace(-2, 2, 9)
        gaps = []
        set_quadrature(monkeypatch, operators_module, QUAD_LEVELS=3,
                       QUAD_REL_TOL=1e-3, QUAD_ABS_TOL=1e-6)
        for nodes in (2, 4, 12):
            set_quadrature(monkeypatch, operators_module, QUAD_NODES=nodes)
            try:
                gaps.append(intertwining_check(basis(2), ks, ctx))
            except Exception:
                gaps.append(math.inf)
        assert gaps[0] >= gaps[2] or gaps[0] == math.inf
        assert gaps[2] < 1e-4


def _spaced(draw, tokens) -> str:
    """tokens joined by drawn whitespace, none to two characters."""
    gaps = draw(st.lists(st.sampled_from(("", " ", "  ")),
                         min_size=len(tokens), max_size=len(tokens)))
    return "".join(gap + token for gap, token in zip(gaps, tokens))


@st.composite
def gauss_literals(draw):
    """A literal drawn from the gauss-poly grammar and the GaussPoly it
    names, built directly from the drawn numbers."""
    def real():
        num = draw(st.integers(0, 40))
        form = draw(st.sampled_from(("int", "frac", "dec", "exp")))
        if form == "frac":
            den = draw(st.integers(1, 12))
            return [str(num), "/", str(den)], Fraction(num, den)
        if form == "dec":
            digits = draw(st.text("0123456789", max_size=3))
            return ([f"{num}.{digits}"],
                    num + Fraction(int(digits or 0), 10 ** len(digits)))
        if form == "exp":
            exp = draw(st.integers(-3, 3))
            plus = "+" if exp >= 0 and draw(st.booleans()) else ""
            e = draw(st.sampled_from("eE"))
            return [f"{num}{e}{plus}{exp}"], num * Fraction(10) ** exp
        return [str(num)], Fraction(num)

    def atom(sign):
        imaginary = draw(st.booleans())
        if imaginary and draw(st.booleans()):
            tokens, value = ["i"], Fraction(1)
        else:
            tokens, value = real()
            tokens += ["i"] if imaginary else []
        signed = sign * value
        return tokens, ((0, signed) if imaginary else (signed, 0))

    def signs(count):
        """count signs between terms or atoms; the first may be blank."""
        return [draw(st.sampled_from(("", "+", "-")))] + [
            draw(st.sampled_from("+-")) for _ in range(count - 1)]

    literal, coeffs = ["("] if draw(st.booleans()) else [], {}
    outer = bool(literal)
    for sign in signs(draw(st.integers(1, 5))):
        literal.append(sign)
        term_sign = -1 if sign == "-" else 1
        power = draw(st.none() | st.integers(0, 9))
        if power is None or draw(st.booleans()):
            if draw(st.booleans()):
                tokens, parts = ["("], []
                for s in signs(draw(st.integers(1, 3))):
                    tokens.append(s)
                    more, part = atom(term_sign * (-1 if s == "-" else 1))
                    tokens += more
                    parts.append(part)
                tokens.append(")")
            else:
                tokens, part = atom(term_sign)
                parts = [part]
            literal += tokens
            if power is not None and draw(st.booleans()):
                literal.append("*")
        else:
            parts = [(term_sign, 0)]
        if power is not None:
            literal += ["x"] + (["^", str(power)]
                                if power != 1 or draw(st.booleans()) else [])
        re_part, im_part = coeffs.get(power or 0, (0, 0))
        coeffs[power or 0] = (re_part + sum(p[0] for p in parts),
                              im_part + sum(p[1] for p in parts))
    literal += [")"] if outer else []
    literal += ["*"] if draw(st.booleans()) else []
    literal.append(draw(st.sampled_from(("gauss", "Gauss", "GAUSS"))))
    expected = GaussPoly([CPoly(*coeffs.get(n, (0, 0)))
                          for n in range(max(coeffs) + 1)])
    return _spaced(draw, literal), expected


class TestParser:
    def test_spec_literal(self):
        psi = parse_gauss_poly("(1 + 2x^3) * gauss")
        assert psi.coeff(0) == CPoly(1)
        assert psi.coeff(3) == CPoly(2)
        assert psi.degree == 3

    def test_complex_coefficient(self):
        psi = parse_gauss_poly("(1+2i)x^2 + 3x + 1 * gauss")
        assert psi.coeff(2) == CPoly(1, 2)
        assert psi.coeff(1) == CPoly(3)
        assert psi.coeff(0) == CPoly(1)
        # a parenthesized coefficient may follow any sign
        psi = parse_gauss_poly("1 + (1+2i)x^2 * gauss")
        assert psi == GaussPoly([CPoly(1), CPoly(0), CPoly(1, 2)])

    def test_rational_and_decimal(self):
        psi = parse_gauss_poly("1/2 x - 0.25 * gauss")
        assert psi.coeff(1) == CPoly(Fraction(1, 2))
        assert psi.coeff(0) == CPoly(Fraction(-1, 4))
        # an exponent of either sign
        for text, value in (("1e3 * gauss", 1000),
                            ("1e-3 * gauss", Fraction(1, 1000))):
            assert parse_gauss_poly(text) == GaussPoly([CPoly(value)])

    def test_imaginary_shorthand(self):
        assert parse_gauss_poly("-i x^2 * gauss").coeff(2) == CPoly(0, -1)
        assert parse_gauss_poly("i * gauss").coeff(0) == CPoly(0, 1)

    def test_bare_gaussian(self):
        assert parse_gauss_poly("gauss") == G
        assert parse_gauss_poly("x*gauss") == XG

    def test_repeated_powers_accumulate(self):
        psi = parse_gauss_poly("x + x * gauss")
        assert psi.coeff(1) == CPoly(2)

    def test_atoms_add_over_one_denominator_in_lowest_terms(self):
        # x^2 takes 1/6 + 1/2 = 2/3 and 1/3 i, x cancels, 3/9 is 1/3: the
        # terms over den = 3, the form GaussPoly gives its coefficients
        psi = parse_gauss_poly("(1/6 + 1/3i)x^2 + 1/2 x^2 - 0.25x + 1/4 x"
                               " + 3/9 * gauss")
        assert (psi.num, psi.den) == ({(2, 0): (2, 1), (0, 0): (1, 0)}, 3)
        lowest = GaussPoly(psi.coeffs)
        assert (psi.num, psi.den) == (lowest.num, lowest.den)

    def test_rejections(self):
        # numbers need a sign between them and every sign needs a term; each
        # error, a zero denominator's included, names the literal
        for bad in ("x^2", "(1+2x) * gauss trailing", "y * gauss",
                    "2x^-1 * gauss", "() * gauss", "gauss * gauss",
                    "2 3 * gauss", "3+ * gauss", "7- gauss",
                    "(1+2i)x^2 + 3x - * gauss", "1/0 * gauss",
                    "x^1000 * gauss", "1e10000 * gauss"):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                parse_gauss_poly(bad)

    def test_digit_bounds(self):
        # a power of x takes at most 3 digits and an exponent at most 4, so
        # no literal asks for a huge array or integer; both limits parse
        assert parse_gauss_poly("x^999 * gauss") == GaussPoly.basis(999)
        assert parse_gauss_poly("1e-9999 * gauss") == GaussPoly(
            [CPoly(Fraction(1, 10 ** 9999))])

    @settings(max_examples=300, deadline=None)
    @given(gauss_literals())
    def test_grammar_draws(self, drawn):
        text, expected = drawn
        assert parse_gauss_poly(text) == expected, text


class TestEvaluate:
    def test_matches_naive(self):
        psi = parse_gauss_poly("(1+2i)x^2 - 1/2 x + 3 * gauss")
        xs = np.linspace(-2, 2, 7)
        mu = 0.8
        naive = ((1 + 2j) * xs ** 2 - 0.5 * xs + 3) * np.exp(-xs ** 2 / 2)
        assert np.max(np.abs(psi.evaluate(xs, mu) - naive)) < 1e-14

    @settings(max_examples=150, deadline=None)
    @given(gauss_literals(), st.integers(-330, 330),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(("x * gauss", None), 0, 1e300)
    @example(("(1 + 2x^3) * gauss", None), -330, 5e-324)
    def test_values_at_is_each_coefficient_evaluated(self, drawn, exp10, mu):
        # CPoly.evaluate of each coefficient, exact at Fraction(mu) and
        # rounded once, to the last bit; P and H put mu into them
        scale = Fraction(10) ** exp10
        psi = parse_gauss_poly(drawn[0]).scale_complex(scale, 0)
        for phi in (psi, apply_P(psi), apply_H(psi)):
            try:
                expected = [c.evaluate(mu) for c in phi.coeffs]
            except OverflowError:
                with pytest.raises(EvaluationError, match="float range"):
                    phi.values_at(mu)
                continue
            assert [(v.real.hex(), v.imag.hex())
                    for v in phi.values_at(mu).tolist()] == [
                (v.real.hex(), v.imag.hex()) for v in expected]

    def test_mu_dependent_coefficients(self):
        hg = apply_H(G)  # (mu + 1/2) g
        xs = np.array([0.0, 1.0])
        vals = hg.evaluate(xs, 0.25)
        assert vals[0] == pytest.approx(0.75)
        assert vals[1] == pytest.approx(0.75 * math.exp(-0.5))
