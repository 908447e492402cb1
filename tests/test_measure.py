"""Interval sets, the closed-form moments of m_mu and its panel rules."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mudeform.core import MuContext
from mudeform.intervals import (IntervalSet, format_interval_set,
                                parse_interval_set)
from mudeform.measure import weighted_panel_rule

from helpers import (moment_mp, panel_rule_by_panel, reflected, sup_abs,
                     total_length)


@st.composite
def interval_sets(draw):
    """Disjoint closed intervals from strictly increasing endpoint lists."""
    pts = draw(st.lists(
        st.floats(min_value=-20, max_value=20, allow_nan=False,
                  allow_infinity=False, width=32),
        min_size=2, max_size=8, unique=True))
    pts = sorted(float(p) for p in pts)
    pairs = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
    return IntervalSet(tuple(pairs))


def moment30(A: IntervalSet, mu: float, n: int = 0) -> float:
    """The n-th moment of m_mu over A: helpers.moment_mp at 30 digits,
    rounded to a float."""
    with mpmath.workdps(30):
        return float(moment_mp(A, mu, n))


class TestIntervalSet:
    def test_ordering_and_validation(self):
        s = IntervalSet.of((3, 4), (1, 2))
        assert s.intervals == ((1.0, 2.0), (3.0, 4.0))
        with pytest.raises(ValueError):
            IntervalSet.of((2, 1))
        with pytest.raises(ValueError):
            IntervalSet.of((1, 1))
        with pytest.raises(ValueError):
            IntervalSet.of((0, 2), (1, 3))  # overlap
        with pytest.raises(ValueError):
            IntervalSet.of((0, 2), (2, 3))  # shared endpoint
        with pytest.raises(ValueError):
            IntervalSet.of((0, math.inf))

    def test_contains_zero_includes_endpoints(self):
        assert IntervalSet.of((0, 1)).contains_zero
        assert IntervalSet.of((-1, 0)).contains_zero
        assert IntervalSet.of((-1, 1)).contains_zero
        assert not IntervalSet.of((0.5, 1)).contains_zero
        assert not IntervalSet.empty().contains_zero

    def test_sup_abs_and_length(self):
        s = IntervalSet.of((-3, -2), (1, 1.5))
        assert sup_abs(s) == 3.0
        assert total_length(s) == pytest.approx(1.5)
        assert sup_abs(IntervalSet.empty()) == 0.0

    def test_reflected(self):
        s = IntervalSet.of((1, 2), (3, 4))
        assert reflected(s).intervals == ((-4.0, -3.0), (-2.0, -1.0))


class TestParsing:
    def test_union_glyph_and_ascii(self):
        for text in ("[1,2]∪[3,4.5]", "[1,2]+[3,4.5]", " [1, 2] + [3, 4.5] "):
            s = parse_interval_set(text)
            assert s.intervals == ((1.0, 2.0), (3.0, 4.5))

    def test_negative_and_scientific(self):
        s = parse_interval_set("[-2,-1]")
        assert s.intervals == ((-2.0, -1.0),)
        s = parse_interval_set("[1e-1, 2.5e0]")
        assert s.intervals == ((0.1, 2.5),)

    def test_empty(self):
        assert parse_interval_set("{}").is_empty

    def test_errors(self):
        for bad in ("[2,1]", "[1,2][3,4]", "[1;2]", "1,2", "[a,b]", "[1,2]-[3,4]"):
            with pytest.raises(ValueError):
                parse_interval_set(bad)

    def test_format_roundtrip(self):
        s = IntervalSet.of((-1.5, 0.25), (1, 2))
        assert parse_interval_set(format_interval_set(s)) == s
        assert format_interval_set(s) == "[-1.5,0.25]+[1,2]"
        assert parse_interval_set("[-1.5,0.25]∪[1,2]") == s

    def test_format_roundtrip_of_large_integral_endpoints(self):
        # integral floats print as integers only below 2^53
        for s, text in (
                (IntervalSet.of((0, 1e300)), "[0,1e+300]"),
                (IntervalSet.of((-1e20, 1)), "[-1e+20,1]"),
                (IntervalSet.of((0, 2 ** 53 + 2)), "[0,9007199254740994.0]"),
                (IntervalSet.of((0, 2 ** 53 - 1)), "[0,9007199254740991]")):
            assert format_interval_set(s) == text
            assert parse_interval_set(format_interval_set(s)) == s

    @settings(max_examples=80, deadline=None)
    @given(interval_sets())
    def test_format_roundtrip_property(self, s):
        assert parse_interval_set(format_interval_set(s)) == s


class TestMeasure:
    def test_lebesgue_case(self):
        # m_0 is Lebesgue scaled by (2 pi)^(-1/2)
        assert moment30(IntervalSet.of((1, 2)), 0.0) == pytest.approx(
            0.3989422804014327, rel=1e-12)

    def test_even_symmetry(self):
        for mu in (-0.3, 0.0, 0.7):
            b = 1.7
            sym = moment30(IntervalSet.of((-b, b)), mu)
            half = moment30(IntervalSet.of((0, b)), mu)
            assert sym == pytest.approx(2.0 * half, rel=1e-13)

    def test_closed_form_mu_half(self):
        # b^(2mu+1) / ((2mu+1) 2^(mu+1/2) Gamma(mu+1/2)) at b=1, mu=1/2
        assert moment30(IntervalSet.of((0, 1)), 0.5) == \
            pytest.approx(0.25, rel=1e-14)

    def test_additivity(self):
        whole = moment30(IntervalSet.of((0.5, 3)), 0.8)
        split = moment30(IntervalSet.of((0.5, 1.2)), 0.8) + moment30(
            IntervalSet.of((1.2, 3)), 0.8)
        assert whole == pytest.approx(split, rel=1e-13)

    def test_empty_set(self):
        assert moment30(IntervalSet.empty(), 1.0) == 0.0

    def test_nonnegative(self):
        for mu in (-0.45, -0.1, 0.0, 2.0):
            assert moment30(IntervalSet.of((-2, -1), (0.5, 3)), mu) > 0

    @settings(max_examples=60, deadline=None)
    @given(interval_sets(), st.floats(min_value=-0.45, max_value=3.0))
    def test_countable_additivity_property(self, s, mu):
        total = moment30(s, mu)
        split = sum(moment30(IntervalSet.of(iv), mu) for iv in s.intervals)
        assert total == pytest.approx(split, rel=1e-12, abs=1e-15)
        assert total >= 0.0


class TestMoment:
    def test_odd_moment_symmetric_set(self):
        for mu in (-0.2, 0.0, 1.5):
            assert moment30(IntervalSet.of((-1, 1)), mu, 1) == \
                pytest.approx(0.0, abs=1e-16)

    def test_second_moment_mu0(self):
        got = moment30(IntervalSet.of((0, 1)), 0.0, 2)
        assert got == pytest.approx((1 / 3) / math.sqrt(2 * math.pi), rel=1e-13)

    def test_against_adaptive_quadrature(self):
        # oracle: scipy adaptive quadrature of x^n |x|^(2 mu), incl. a set
        # reaching the singular origin at negative mu
        cases = [
            (0.6, IntervalSet.of((0.5, 2.0)), 3),
            (-0.3, IntervalSet.of((0.0, 1.5)), 2),
            (1.2, IntervalSet.of((-2.0, -1.0)), 5),
            (-0.45, IntervalSet.of((-1.0, 1.0)), 4),
        ]
        for mu, A, n in cases:
            total = 0.0
            for lo, hi in A.intervals:
                if lo >= 0:
                    val, _ = quad(lambda x: x ** (n + 2 * mu), max(lo, 1e-300),
                                  hi, points=None)
                elif hi <= 0:
                    val, _ = quad(
                        lambda x: ((-1) ** n) * x ** (n + 2 * mu), -hi, -lo)
                else:
                    v1, _ = quad(lambda x: ((-1) ** n) * x ** (n + 2 * mu),
                                 1e-300, -lo)
                    v2, _ = quad(lambda x: x ** (n + 2 * mu), 1e-300, hi)
                    val = v1 + v2
                total += val
            assert moment30(A, mu, n) == pytest.approx(
                float(MuContext(mu).norm_const) * total, rel=1e-9)


class TestPanelRules:
    def test_integrates_moments_exactly(self):
        S = IntervalSet.of((-1.5, 0.75), (1, 2))
        for mu in (-0.4, -0.1, 0.0, 0.5, 2.0):
            ctx = MuContext(mu)
            x, w = weighted_panel_rule(S, ctx, 4, 12)
            for n in (0, 1, 2, 7):
                got = float(np.sum(w * x ** n))
                want = moment30(S, mu, n)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_origin_panel_handles_singular_weight(self):
        # plain Gauss-Legendre would need many panels for x^(-0.9) near 0;
        # the weight-aware rule nails the mass with one panel
        ctx = MuContext(-0.45)
        x, w = weighted_panel_rule(IntervalSet.of((0, 1)), ctx, 1, 8)
        assert float(np.sum(w)) == pytest.approx(
            moment30(IntervalSet.of((0, 1)), -0.45), rel=1e-13)

    def test_panel_nearer_zero_than_its_width(self):
        # [1e-4, 1] is ruled as [0,1] minus [0,1e-4], both exact against
        # x^(2mu); plain Legendre on the one panel misses x^(-0.9)
        ctx = MuContext(-0.45)
        S = IntervalSet.of((1e-4, 1))
        x, w = weighted_panel_rule(S, ctx, 1, 12)
        assert np.all((x > 0) & (x < 1)) and np.sum(w < 0) == 12
        for n in (0, 1, 2, 7):
            assert float(np.sum(w * x ** n)) == pytest.approx(
                moment30(S, -0.45, n), rel=1e-13)

    def test_one_count_per_half_line_panel(self):
        # [-5,-3], then [-2,0] and [0,1.5] from the interval across 0
        S = IntervalSet.of((-5, -3), (-2, 1.5))
        ctx = MuContext(-0.3)
        x, w = weighted_panel_rule(S, ctx, [3, 1, 5], 12)
        parts = [weighted_panel_rule(part, ctx, n, 12) for part, n in (
            (IntervalSet.of((-5, -3)), 3), (IntervalSet.of((-2, 0)), 1),
            (IntervalSet.of((0, 1.5)), 5))]
        assert np.array_equal(x, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(w, np.concatenate([p[1] for p in parts]))
        want_x, want_w = panel_rule_by_panel(S, ctx, [3, 1, 5], 12)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)

    def test_empty(self):
        x, w = weighted_panel_rule(IntervalSet.empty(), MuContext(0.5), 2, 8)
        assert x.size == 0 and w.size == 0

    def test_weights_positive_nodes_inside(self):
        S = IntervalSet.of((-2, 3))
        ctx = MuContext(0.25)
        x, w = weighted_panel_rule(S, ctx, 3, 10)
        assert np.all(w > 0)
        assert np.all((x > -2) & (x < 3))

    @pytest.mark.parametrize("mu", (93.0, 150.0, 250.0))
    def test_weights_past_the_float_range_of_the_density(self, mu):
        # 45.5^(2 mu) leaves float range from mu of about 93 on, and
        # norm_const underflows to 0 at mu = 250; the weights, ratios to
        # 45.5 times the density there, do neither.  Near 0 the ratio power
        # underflows, and the nodes whose weight is 0 are kept; the moments
        # show that they carried no mass at float precision
        S = IntervalSet.of((0, 45.5))
        x, w = weighted_panel_rule(S, MuContext(mu), 256, 12)
        assert np.all(np.isfinite(w)) and np.all(np.diff(x) > 0)
        assert x.size == 256 * 12 and np.all(w >= 0) and w[0] == 0
        with mpmath.workdps(40):
            for n in range(4):
                got = mpmath.fsum(mpmath.mpf(wi) * mpmath.mpf(xi) ** n
                                  for wi, xi in zip(w.tolist(), x.tolist()))
                assert float(abs(got / moment_mp(S, mu, n) - 1)) < 1e-13

    @pytest.mark.parametrize("panels", (1, 2, 4, 16, 256))
    @pytest.mark.parametrize("mu", (-0.45, -0.2, 0.0, 0.37, 2.0, 30.0))
    def test_array_pass_matches_panel_loop(self, panels, mu):
        # from 0, across 0, wholly below 0, just short of 0, and a union of
        # two intervals
        ctx = MuContext(mu)
        for S in (IntervalSet.of((0, 3.5)), IntervalSet.of((-1.5, 2.25)),
                  IntervalSet.of((-5, -0.5)), IntervalSet.of((1e-4, 1)),
                  IntervalSet.of((-3, -1), (0.5, 4))):
            x, w = weighted_panel_rule(S, ctx, panels, 12)
            want_x, want_w = panel_rule_by_panel(S, ctx, panels, 12)
            assert np.array_equal(x, want_x) and np.array_equal(w, want_w), S
