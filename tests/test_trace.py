"""Trace evaluators, their cross-validation, and the deviation scan."""

import csv
import hashlib
import io
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

import mudeform.trace as trace_module
from mudeform.core import MU_MIN, MuContext, norm_const_mp
from mudeform.errors import EvaluationError
from mudeform.intervals import IntervalSet, parse_interval_set
from mudeform.measure import _positive_panels
from mudeform.trace import (DEFAULT_MU_GRID, DEFAULT_PAIRS, TraceEstimate,
                            deviation_scan, evaluate_pair, rows_to_csv,
                            rows_to_json, trace_moment_series,
                            trace_quadrature)

from helpers import (corner_sum_uncached, dense_trace, even_coeff,
                     moment_mp, reflected, set_quadrature, sup_abs)

HARD_PAIRS = json.loads((Path(__file__).parent / "data" / "hard_pairs.json")
                        .read_text())["pairs"]
A12 = IntervalSet.of((1, 2))
B0515 = IntervalSet.of((0.5, 1.5))


def both(A, B, mu):
    ctx = MuContext(mu)
    return trace_quadrature(A, B, ctx), trace_moment_series(A, B, ctx)


class TestClassicalEquality:
    def test_mu0_reduces_to_product_of_measures(self):
        q, m = both(A12, B0515, 0.0)
        expected = 1.0 / (2.0 * math.pi)
        for est in (q, m):
            assert est.value == pytest.approx(expected, abs=1e-9)
            assert abs(est.deviation) < 1e-9
            assert est.product_measures == pytest.approx(expected, rel=1e-13)

    def test_mu0_arbitrary_pairs(self):
        pairs = [
            (IntervalSet.of((-1, 0.5)), IntervalSet.of((0.25, 3))),
            (IntervalSet.of((-2, -1), (1, 1.5)), IntervalSet.of((0.1, 0.7))),
        ]
        for A, B in pairs:
            q, m = both(A, B, 0.0)
            assert abs(q.deviation) < 1e-9
            assert abs(m.deviation) < 1e-9

    def test_mu0_rounding_is_not_a_resolved_sign(self):
        # far from the origin at mu = 0 the deviation is a rounding artefact
        # of about one ulp; the reported error must cover it
        row = evaluate_pair(IntervalSet.of((5, 8)), IntervalSet.of((4, 6)),
                            MuContext(0.0))
        assert row.method != "failed"
        assert abs(row.deviation) <= row.error
        assert not row.sign_resolved


class TestTraceQuadrature:
    def test_empty_set_gives_zero(self):
        est = trace_quadrature(IntervalSet.empty(), B0515, MuContext(1.0))
        assert est.value == 0.0
        assert est.deviation == 0.0

    def test_value_frozen_by_moment_series_oracle(self):
        # independent-evaluator oracle for A=B=[1,2], mu=1
        q, m = both(A12, A12, 1.0)
        assert q.value == pytest.approx(
            m.value, abs=q.error_estimate + m.error_estimate)
        with mpmath.workdps(30):
            assert q.value < moment_mp(A12, 1.0, 0) ** 2
        # frozen from the moment-series route
        assert m.value == pytest.approx(0.2166489646423226, abs=1e-10)

    def test_strictness_positive_mu(self):
        q, m = both(A12, B0515, 0.25)
        for est in (q, m):
            assert est.deviation < 0
            assert est.sign_resolved

    def test_sets_touching_zero(self):
        A = IntervalSet.of((0, 1))
        q, m = both(A, A, 0.5)
        assert q.value == pytest.approx(m.value, rel=1e-8)

    def test_bar_covers_two_levels_that_agree_by_chance(self):
        # pairs on which the former 2-D tensor quadrature stopped too early
        # or failed: the first left its last change twelve times below its
        # true error, the second stopped at its first refinement, and the
        # third, where |xk| reaches 2.7e5, never converged.  Each bar must
        # cover the 60-digit corner sum
        pairs = (
            (-0.18028962887023325,
             IntervalSet.of((0.016099531033035023, 0.030923670892617557),
                            (399.6404598332162, 402.4014120495584)),
             IntervalSet.of((6.672059965769718, 6.672158638978764),
                            (71.22099964439803, 90.38220152439894))),
            (19.302693942349478,
             IntervalSet.of((-0.010813273241377763, -0.01078285611054235),
                            (0.008387716982970741, 0.016355679574028094)),
             IntervalSet.of((-0.0015490492291622322, 4.123262743810204))),
            (-0.228144717981487,
             IntervalSet.of((-488.29307340667805, -488.28795469628136),
                            (-169.6790325343288, -169.67901767513197)),
             IntervalSet.of((0.539786436891121, 0.539800531582869),
                            (553.0038172199709, 560.2387632946082))),
        )
        for mu, A, B in pairs:
            est = trace_quadrature(A, B, MuContext(mu))
            ref = corner_sum_uncached(A, B, mu, 60)[1]
            assert abs(est.value - ref) <= est.error_estimate, mu

    def test_matches_the_dense_tensor_sum(self):
        # the 2-D sum of the kernel itself checks the Lommel integral
        # behind the diagonal of E^P(B), independently of the corner sum
        pairs = DEFAULT_PAIRS + ((IntervalSet.of((-1, 0.5)),
                                  IntervalSet.of((0.25, 3))),)
        for mu in (-0.45, -0.3, 0.0, 0.5, 2.0, 10.0):
            for A, B in pairs:
                ctx = MuContext(mu)
                assert trace_quadrature(A, B, ctx).value == pytest.approx(
                    dense_trace(A, B, ctx), rel=1e-13), (mu, A, B)

    def test_density_past_float_range_fails_fast(self):
        # norm 90.3^(2 mu + 1) overflows a float, and so would the panel
        # weights on A or the diagonal of E^P(A); the series evaluates the
        # pair, whose m(A) m(B) underflows to 0
        mu = 207.74245959834164
        A = IntervalSet.of((87.65185171756208, 90.32701003320939))
        B = IntervalSet.of((-0.05056059048423454, -0.03040458994043091))
        m = trace_moment_series(A, B, MuContext(mu))
        assert m.value == m.product_measures == 0.0
        with pytest.raises(EvaluationError, match="density of m_mu"):
            trace_quadrature(A, B, MuContext(mu))

    def test_nonconvergence_carries_best(self, monkeypatch):
        set_quadrature(monkeypatch, trace_module, QUAD_NODES=1,
                       QUAD_LEVELS=2, QUAD_REL_TOL=1e-12)
        with pytest.raises(EvaluationError) as err:
            trace_quadrature(A12, B0515, MuContext(0.5))
        best = err.value.best
        assert best is not None
        assert best.value == pytest.approx(0.19387043407447682, rel=1e-2)

    def test_tiny_trace_needs_the_relative_tolerance(self):
        # B ends 1.6e-238 short of 0: an absolute tolerance of 1e-12 would
        # pass this trace of 3.9e-100 at its first change.  The stop test
        # and the floor are both relative, so the bar covers the true error
        A = IntervalSet.of((0.0, 1.0))
        B = IntervalSet.of((1.616166607119054e-238, 3.2437534183229165e-198))
        ctx = MuContext(-0.25)
        # K(xk) - 1 is below 1e-390 here, so Tr is m(A) m(B) at 60 digits
        with mpmath.workdps(60):
            ref = moment_mp(A, ctx.mu, 0) * moment_mp(B, ctx.mu, 0)
        for est in (trace_quadrature(A, B, ctx),
                    trace_moment_series(A, B, ctx)):
            assert abs(est.value - ref) <= est.error_estimate, est.method
            assert est.error_estimate < 1e-10 * est.value

    def test_set_ending_short_of_zero_resolves(self, monkeypatch):
        # B ends 2.1e-6 short of 0; the 2-D tensor quadrature ruled its
        # first panel with plain Legendre nodes on |k|^(2mu) and never
        # converged.  The 1-D route integrates over A = [0,1] and stops at
        # its second refinement, one kernel call per nonzero corner of B
        # and level
        A = IntervalSet.of((0.0, 1.0))
        B = IntervalSet.of((-18.0, -2.1457672128e-06))
        calls = []
        real = trace_module.exp_mu_imag_on_grid

        def counted(s, ctx):
            calls.append(s.shape)
            return real(s, ctx)

        monkeypatch.setattr(trace_module, "exp_mu_imag_on_grid", counted)
        for mu in (0.449, -0.45, -0.2):
            calls.clear()
            est = trace_quadrature(A, B, MuContext(mu))
            assert len(calls) == 2 * 3, mu
            ref = corner_sum_uncached(A, B, mu, 60)[1]
            assert abs(est.value - ref) <= est.error_estimate, mu

    def test_far_and_near_origin_pairs_resolve_by_both_routes(self):
        # pairs on which the former 2-D tensor quadrature failed
        cases = (
            (-0.45, IntervalSet.of((1000, 1001)), IntervalSet.of((1000, 1001))),
            (-0.3, IntervalSet.of((100, 130)), IntervalSet.of((-60, -20))),
            (7.77, IntervalSet.of((3, 50)), IntervalSet.of((2, 40))),
            (-0.2, IntervalSet.of((1e4, 1e4 + 1)), IntervalSet.of((0.5, 1.5))),
            (-0.45, IntervalSet.of((1e-4, 1)), IntervalSet.of((1e-5, 3))),
        )
        for mu, A, B in cases:
            q, m = both(A, B, mu)
            assert abs(q.value - m.value) <= (
                q.error_estimate + m.error_estimate), (mu, A, B)

    def test_far_pair_bar_is_the_rounding_of_the_product(self):
        # the floor follows the kernel, not m(A) m(B): at mu = 2 on
        # [100,101]^2 what is left of both bars is the float rounding of
        # m(A) m(B) = 1.8e14
        far = IntervalSet.of((100, 101))
        q, m = both(far, far, 2.0)
        assert q.error_estimate <= 2 * m.error_estimate

    def test_random_pairs_agree_within_both_bars(self):
        # mu in three bands; one or two intervals a set, starting at
        # +-10^U(-3,3), of widths 10^U(-6,2).  Wherever the corner sum
        # converges, the quadrature converges too, within 1 s a pair
        rng = random.Random(5)

        def interval_set():
            while True:
                ivs = []
                for _ in range(rng.choice((1, 2))):
                    lo = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 3)
                    ivs.append((lo, lo + 10 ** rng.uniform(-6, 2)))
                try:
                    return IntervalSet(tuple(ivs))
                except ValueError:  # overlapping intervals: draw again
                    continue

        for _ in range(100):
            lo, hi = rng.choice(((-0.499, 0.5), (0.0, 5.0), (5.0, 40.0)))
            mu, A, B = rng.uniform(lo, hi), interval_set(), interval_set()
            ctx = MuContext(mu)
            try:
                m = trace_moment_series(A, B, ctx)
            except EvaluationError:
                continue
            start = time.perf_counter()
            q = trace_quadrature(A, B, ctx)
            assert time.perf_counter() - start < 1.0, (mu, A, B)
            assert abs(q.value - m.value) <= (
                q.error_estimate + m.error_estimate), (mu, A, B)


class TestTraceMomentSeries:
    def test_far_pairs_resolve_by_both_routes(self):
        # sup|A| sup|B| up to 10201: the closed form has no term cap
        for lo in (30.0, 40.0, 100.0):
            far = IntervalSet.of((lo, lo + 1.0))
            for mu in (-0.449, -0.2, 0.0, 0.5, 2.0):
                q, m = both(far, far, mu)
                assert abs(q.value - m.value) <= (
                    q.error_estimate + m.error_estimate), (lo, mu)

    def test_empty_set(self):
        est = trace_moment_series(IntervalSet.empty(), A12, MuContext(0.5))
        assert est.value == 0.0

    def test_far_field_agrees_with_quadrature_and_semiclassics(self):
        # sup|A| sup|B| = 48: far from the origin Tr -> |A||B|/2pi
        A, B = IntervalSet.of((5, 8)), IntervalSet.of((4, 6))
        for mu in (0.5, 1.0, -0.3, -0.45):
            q, m = both(A, B, mu)
            assert abs(q.value - m.value) <= q.error_estimate + m.error_estimate
            for est in (q, m):
                assert abs(est.value - 6.0 / (2.0 * math.pi)) < 2e-3


def per_term_reference(A, B, ctx):
    """The series term by term, with a moment_mp call per moment, at a
    precision that covers its e^(2 sup|A| sup|B|) cancellation with 75
    digits to spare, summed until the terms are below 1e-30."""
    s_max = sup_abs(A) * sup_abs(B)
    with mpmath.workdps(25 + int(0.87 * 2.0 * s_max) + 10 + 40):
        total, small, j = mpmath.mpf(0), 0, 0
        while small < 3:
            c = even_coeff(j, Fraction(ctx.mu))
            term = ((-1) ** j * mpmath.mpf(c.numerator) / c.denominator
                    * moment_mp(A, ctx.mu, 2 * j) * moment_mp(B, ctx.mu, 2 * j))
            total += term
            small = small + 1 if (2 * j > s_max and abs(term)
                                  <= mpmath.mpf("1e-30") * abs(total)) else 0
            j += 1
        return total


@st.composite
def bounded_pairs(draw, s_max=18.0):
    """(A, B) of one or two intervals each with sup|A| sup|B| <= s_max."""
    def interval_set(radius):
        pts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=4,
                            unique=True).filter(lambda p: len(p) % 2 == 0))
        pts = sorted(radius * p for p in pts)
        assume(len(set(pts)) == len(pts))  # scaling may merge neighbours
        return IntervalSet(tuple(zip(pts[::2], pts[1::2])))
    ra = draw(st.floats(0.2, s_max / 0.2))
    return interval_set(ra), interval_set(s_max / ra)


def mirrored(s: IntervalSet) -> IntervalSet:
    """The first half-line panel [a, b] of s and its reflection: a set
    whose corners each occur twice."""
    a, b, _ = next(_positive_panels(s))
    return (IntervalSet.of((-b, -a), (a, b)) if a > 0.0
            else IntervalSet.of((-b, b)))


def assert_bars_cover(A, B, mu, dps, refs):
    """_corner_sum's bars at dps digits cover the references (m(A) m(B),
    Tr)."""
    sums = [mpmath.mp.make_mpf(x)
            for x in trace_module._corner_sum(A, B, mu, dps)]
    with mpmath.workdps(60):
        for got, bar, ref in zip(sums[:2], sums[2:], refs):
            assert abs(got - ref) <= bar, (mu, dps)


def ulp(x: tuple, bits: int):
    """2^(e - bits) for the libmp x, 2^e > |x|: an ulp at bits bits."""
    return mpmath.ldexp(1, x[2] + x[3] - bits)


class TestMomentSeriesWork:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(MU_MIN, 250.0, exclude_min=True), bounded_pairs())
    @example(-0.499, (IntervalSet.of((1.0, 1.1)), IntervalSet.of((1.0, 1.1))))
    @example(249.9, (IntervalSet.of((-2.0, 4.5)), IntervalSet.of((1.0, 4.0))))
    @example(1e-200, (A12, IntervalSet.of((-9.0, -0.5))))
    def test_error_estimate_bounds_per_term_reference(self, mu, pair):
        # the row's bar covers its trace and m(A) m(B), and the first
        # round's bars their corner sums, against the 60-digit corner sum;
        # up to mu = 2, the row's bar also covers the series term by term
        A, B = pair
        ctx = MuContext(mu)
        est = trace_moment_series(A, B, ctx)
        refs = corner_sum_uncached(A, B, mu, 60)
        assert abs(est.product_measures - refs[0]) <= est.error_estimate
        assert abs(est.value - refs[1]) <= est.error_estimate
        assert_bars_cover(A, B, mu, trace_module.SERIES_DPS, refs)
        if mu <= 2.0:
            ref = per_term_reference(A, B, ctx)
            assert abs(est.value - ref) <= est.error_estimate

    @pytest.mark.parametrize("case", HARD_PAIRS, ids=lambda c: c["id"])
    def test_hard_pairs_refuse_or_are_covered(self, case):
        # pairs on which a route once failed or misreported: each refuses
        # as it did then, or its row's bar and its first round's bars
        # (a single corner sum's, where the case names its digits) cover
        # the 60-digit corner sum
        mu, A, B = (case["mu"], parse_interval_set(case["A"]),
                    parse_interval_set(case["B"]))
        if "refuses" in case:
            with pytest.raises(EvaluationError) as err:
                trace_moment_series(A, B, MuContext(mu))
            assert str(err.value) == case["refuses"]
            assert err.value.best is None
            return
        refs = corner_sum_uncached(A, B, mu, 60)
        if "digits" in case:
            assert_bars_cover(A, B, mu, case["digits"], refs)
            return
        est = trace_moment_series(A, B, MuContext(mu))
        assert abs(est.product_measures - refs[0]) <= est.error_estimate
        assert abs(est.value - refs[1]) <= est.error_estimate
        assert_bars_cover(A, B, mu, trace_module.SERIES_DPS, refs)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(MU_MIN, 250.0, exclude_min=True), st.floats(0.0, 1.0),
           st.sampled_from([30, 60, 120]))
    @example(0.413, 0.0, 30)    # |p log t| of 1300: exp(p log t)
    @example(249.9, 0.0, 30)    # |p log t| of 3.5e5
    @example(1.0, 0.5, 60)      # p = 3: mpf_pow
    @example(-0.25, 1.0, 120)   # p = 1/2
    @example(1e-300, 0.3, 30)   # norm_const's mu + 1/2 rounds
    def test_mpmath_values_within_their_allowance(self, mu, frac, digits):
        # the bars' one assumption: an mpmath call misses by at most
        # _MPMATH_ULPS ulps.  Each call of t^p (log t at prec + 10 bits,
        # then exp, or mpf_pow) keeps to it against references 30 digits
        # higher, t^p to its bar 2^a, and scale = (norm / p)^2 to
        # _SCALE_ULPS ulps
        prec = libmp.dps_to_prec(digits)
        with mpmath.workdps(digits):  # t from 1e-300 up to prec bits
            t = (mpmath.mpf(1e-300) ** (1 - frac)
                 * mpmath.mp.prec ** frac)._mpf_
        p = trace_module._series_params(mu, digits)[2]._mpf_
        power, _, a, _ = trace_module._corner.__wrapped__(mu, t, digits)
        scale = trace_module._series_params(mu, digits)[-1]._mpf_
        log = trace_module._log(t, prec)
        with mpmath.workdps(digits + 30):
            m, T = mpmath.mpf(mu), mpmath.mp.make_mpf(t)
            x = libmp.mpf_mul(p, log)
            ref = T ** (2 * m + 1)
            calls = [(log, mpmath.log(T), prec + 10),
                     (libmp.mpf_exp(x, prec, "n"),
                      mpmath.exp(mpmath.mp.make_mpf(x)), prec)]
            if p[2] >= -1:  # p an integer or a half-integer: mpf_pow's own
                calls.append((power, ref, prec))
            for got, want, bits in calls:
                assert abs(mpmath.mp.make_mpf(got) - want) <= (
                    trace_module._MPMATH_ULPS * ulp(got, bits))
            assert abs(mpmath.mp.make_mpf(power) - ref) <= mpmath.ldexp(1, a)
            want = (norm_const_mp(m) / (2 * m + 1)) ** 2
            assert abs(mpmath.mp.make_mpf(scale) - want) <= (
                trace_module._SCALE_ULPS * ulp(scale, prec))

    def test_error_estimate_covers_an_underflowed_trace(self):
        # at mu = 0 the trace over [0,a] x [0,b] is ab/(2 pi), here 9.5e-392
        A, B = IntervalSet.of((0.0, 1.8e-196)), IntervalSet.of((0.0, 3.3e-195))
        est = trace_moment_series(A, B, MuContext(0.0))
        with mpmath.workdps(30):
            ref = mpmath.mpf(1.8e-196) * mpmath.mpf(3.3e-195) / (2 * mpmath.pi)
        assert est.value == 0.0
        assert 0 < abs(est.value - ref) <= est.error_estimate

    def test_no_per_term_transcendentals(self, monkeypatch):
        """No term loop outside the 2F3: one fixed-point sum per distinct
        corner product up to t = prec bits, two mpmath.hyp2f3 (its value
        and the estimate of its bar) beyond, one Gamma per (mu, digits),
        and none when the row repeats."""
        cases = [
            # four nonzero corners of A times two of B (the corners at 0
            # drop) give eight products, seven distinct since 3 x 1 =
            # 1.5 x 2, in one round
            (0.413, IntervalSet.of((-3.0, -2.0), (0.5, 1.5)),
             IntervalSet.of((-1.0, 2.0)), (7, 0), 1),
            # a panel 1e-9 wide cancels its corners past 30 digits, so a
            # second round runs; its four corners have three products
            (0.413, IntervalSet.of((1.0, 1.0 + 1e-9)),
             IntervalSet.of((1.0, 1.0 + 1e-9)), (3, 0), 2),
            # t of about 5e5 is past prec: mpmath sums the four corners,
            # by its asymptotics, in one round
            (-0.45, IntervalSet.of((1000.0, 1001.0)),
             IntervalSet.of((500.0, 501.0)), (0, 4), 1),
        ]
        quads = [trace_quadrature(A, B, MuContext(mu))
                 for mu, A, B, _, _ in cases]
        calls = dict.fromkeys(("gamma", "fixed", "hyp2f3"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("gamma", "hyp2f3"):
            monkeypatch.setattr(mpmath, name, counted(name, getattr(mpmath, name)))
        monkeypatch.setattr(trace_module, "_fixed_2f3",
                            counted("fixed", trace_module._fixed_2f3))
        for (mu, A, B, (fixed, hyp), rounds), quad in zip(cases, quads):
            ctx = MuContext(mu)  # its norm_const takes a Gamma of its own
            trace_module._corner.cache_clear()
            trace_module._series_params.cache_clear()
            calls.update(gamma=0, fixed=0, hyp2f3=0)
            est = trace_moment_series(A, B, ctx)
            assert est.value == pytest.approx(
                quad.value, abs=est.error_estimate + quad.error_estimate)
            assert calls == {"gamma": rounds, "fixed": fixed * rounds,
                             "hyp2f3": 2 * hyp * rounds}
            calls.update(gamma=0, fixed=0, hyp2f3=0)
            assert trace_moment_series(A, B, ctx) == est
            assert calls == {"gamma": 0, "fixed": 0, "hyp2f3": 0}

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-0.449, 3.0), bounded_pairs(),
           st.sampled_from(["as drawn", "swapped", "A = B", "mirrored"]))
    @example(0.413, (IntervalSet.of((-3.0, -2.0), (0.5, 1.5)),
                     IntervalSet.of((-1.0, 2.0))), "as drawn")
    @example(-0.45, (IntervalSet.of((-2.0, -1.0), (1.0, 2.0)),
                     IntervalSet.of((-1.5, 1.5))), "as drawn")
    # corners past t = prec, where mpmath.hyp2f3 sums
    @example(-0.45, (IntervalSet.of((1000.0, 1001.0)),
                     IntervalSet.of((500.0, 501.0))), "as drawn")
    # corner products of about 1e-400, below float range
    @example(0.413, (IntervalSet.of((1e-200, 2e-200)),
                     IntervalSet.of((1e-200, 3e-200))), "as drawn")
    @example(0.0, (A12, B0515), "as drawn")
    @example(5e-324, (A12, B0515), "as drawn")
    # an endpoint at 0, whose corners drop
    @example(0.7, (IntervalSet.of((0.0, 2.0)), IntervalSet.of((-1.0, 1.5))),
             "as drawn")
    def test_cached_corners_match_the_uncached_sum_bit_for_bit(
            self, mu, pair, kind):
        A, B = pair
        if kind == "swapped":
            A, B = B, A
        elif kind == "A = B":
            B = A
        elif kind == "mirrored":
            A, B = mirrored(A), mirrored(B)
        for dps in (20, 30, 40, 50):
            trace_module._corner_sum(A, B, mu, dps)  # warm the caches
            assert trace_module._corner_sum(A, B, mu, dps)[:2] == tuple(
                x._mpf_ for x in corner_sum_uncached(A, B, mu, dps)), dps

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.5, 250.0, exclude_min=True), st.floats(0.0, 1.0),
           st.integers(20, 60))
    @example(0.0, 0.5, 20)      # p = 1, 2 and 3: mpf_pow's integer branch
    @example(0.5, 1.0, 30)
    @example(1.0, 0.2, 60)
    @example(-0.25, 0.5, 20)    # p = 1/2, 3/2 and 5/2: its square roots
    @example(0.25, 0.9, 40)
    @example(0.75, 0.0, 50)
    @example(0.413, 0.5, 20)    # its general branch, exp(p log t)
    @example(0.413, 1.0, 60)
    def test_corner_power_is_mpf_pow_bit_for_bit(self, mu, frac, digits):
        # t from 1e-300 to 2 prec bits, past the fixed-point range; the
        # corner's t^p, with its cached log t, is mpf_pow's to the last bit
        with mpmath.workdps(digits):
            t = (mpmath.mpf(1e-300) ** (1 - frac)
                 * (2 * mpmath.mp.prec) ** frac)._mpf_
        p = trace_module._series_params(mu, digits)[2]._mpf_
        power = trace_module._corner.__wrapped__(mu, t, digits)[0]
        assert power == libmp.mpf_pow(t, p, libmp.dps_to_prec(digits), "n")

    def test_cold_corner_sum_enters_workdps_only_for_the_parameters(
            self, monkeypatch):
        # every corner has t <= prec, so the corners are libmp values summed
        # by _fixed_2f3 at an explicit precision, with no mpmath context
        entered, real = [], mpmath.workdps

        def workdps(dps):
            entered.append(dps)
            return real(dps)

        monkeypatch.setattr(mpmath, "workdps", workdps)
        clear_series_caches()
        A = IntervalSet.of((-3.0, -2.0), (0.5, 1.5))
        B = IntervalSet.of((-1.0, 2.0))
        for dps in (20, 30, 20):
            trace_module._corner_sum(A, B, 0.413, dps)
        assert entered == [20, 30]
        assert trace_module._series_params.cache_info().misses == 2
        assert trace_module._corner.cache_info().misses == 2 * 7

    def test_default_scan_cache_counts(self, monkeypatch):
        # 12 mu x 5 pairs x 4 corners = 240 corners in one pass a row, 168
        # distinct, every one with t <= prec, so none reaches mpmath.hyp2f3
        def forbidden(*args):
            raise AssertionError("mpmath.hyp2f3 ran")

        monkeypatch.setattr(mpmath, "hyp2f3", forbidden)
        clear_series_caches()
        deviation_scan(DEFAULT_MU_GRID, DEFAULT_PAIRS)
        corner = trace_module._corner.cache_info()
        assert (corner.misses, corner.hits) == (168, 72)
        assert trace_module._series_params.cache_info().misses == 12
        # the mu-free work runs once per scan: one corner list per pair,
        # and one z, float(t) and h per distinct t, 14 of them (the 20
        # corners of the 5 pairs have 14 products); so is log t, read at
        # the 7 mu (-0.45 to 0.05) whose p = 2 mu + 1 is neither an
        # integer nor a half-integer
        assert trace_module._corners.cache_info().misses == 5
        assert trace_module._fixed_start.cache_info().misses == 14
        log = trace_module._log.cache_info()
        assert (log.misses, log.hits + log.misses) == (14, 7 * 14)
        clear_series_caches()
        assert [f.cache_info().currsize for f in series_caches()] == \
            [0] * len(series_caches())

    def test_product_settles_as_well_as_the_trace(self, monkeypatch):
        # near mu = -1/2 the corners of m(A) m(B) cancel about 1/p^2 times
        # worse than the trace's; a product bar above eps m(A) m(B), here
        # made so in the first round, runs a second round at twice the
        # digits however small the trace bar is
        mu, A = -0.499, IntervalSet.of((1.0, 1.1))
        digits, real = [], trace_module._corner_sum

        def corner_sum(A, B, mu, dps):
            digits.append(dps)
            product, value, product_bar, bar = real(A, B, mu, dps)
            if len(digits) == 1:
                assert libmp.mpf_le(bar, libmp.mpf_mul(value, libmp.from_float(
                    sys.float_info.epsilon)))
                product_bar = product
            return product, value, product_bar, bar

        monkeypatch.setattr(trace_module, "_corner_sum", corner_sum)
        est = trace_moment_series(A, A, MuContext(mu))
        assert digits == [30, 60]
        with mpmath.workdps(60):
            ref = moment_mp(A, mu, 0) ** 2
            assert abs(est.product_measures - ref) <= mpmath.mpf(
                math.ulp(float(ref))) / 2

    def test_cancellation_past_the_last_round_fails_with_best(self, monkeypatch):
        monkeypatch.setattr(trace_module, "SERIES_MAX_ROUNDS", 1)
        narrow = IntervalSet.of((1.0, 1.0 + 1e-9))
        with pytest.raises(EvaluationError) as err:
            trace_moment_series(narrow, narrow, MuContext(0.5))
        best = err.value.best
        assert best is not None and best.method == "moment_series"
        assert best.value == pytest.approx(1.9479303671449378e-19, rel=1e-3)

    def test_quadrature_takes_the_failed_series_best_product(self,
                                                             monkeypatch):
        # at 10 digits, one round, the bars on the corners of [1,2] x
        # [0.5,1.5] exceed double precision; the quadrature still reports
        # the best estimate's m(A) m(B), about 1e-11 relative off the full
        # one
        ctx = MuContext(0.3)
        full = trace_moment_series(A12, B0515, ctx)
        for name, value in (("SERIES_DPS", 10), ("SERIES_MAX_ROUNDS", 1)):
            monkeypatch.setattr(trace_module, name, value)
        with pytest.raises(EvaluationError, match="corners cancel") as err:
            trace_moment_series(A12, B0515, ctx)
        best = err.value.best.product_measures
        assert best != full.product_measures
        assert best == pytest.approx(full.product_measures, rel=1e-9)
        est = trace_quadrature(A12, B0515, ctx)
        assert est.product_measures == best
        assert abs(est.value - full.value) <= (est.error_estimate
                                               + full.error_estimate)


def series_caches() -> list:
    """Every cache of the trace module: the corners and their mu-free parts,
    the parameters and the ratio tables."""
    return [f for f in vars(trace_module).values()
            if hasattr(f, "cache_clear")]


def clear_series_caches():
    for cache in series_caches():
        cache.cache_clear()


def corner_t(digits: int, frac: float):
    """t from 1e-30 (frac = 0) up to prec bits (frac = 1), log-uniform."""
    with mpmath.workdps(digits):
        return mpmath.mpf(1e-30) ** (1 - frac) * mpmath.mp.prec ** frac


def kernel_sum(mu: float, t, digits: int):
    """_fixed_2f3 at digits on the libmp t (its value and bar), with the
    unrounded integer sum S and the wp of its last pass, read at the one
    libmp.from_man_exp call that rounds S."""
    seen, real = [], libmp.from_man_exp

    def from_man_exp(man, exp, *rest):
        seen.append((man, -exp))
        return real(man, exp, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(libmp, "from_man_exp", from_man_exp)
        value = trace_module._fixed_2f3(mu, t, libmp.dps_to_prec(digits))
    (S, wp), = seen
    return value, S, wp


def replayed_terms(mu: float, t, wp: int) -> list:
    """The integer terms of the kernel's pass at wp bits on the exact
    z = -t^2, each ratio read as floor(r_j 2^wp) from trace._ratios
    itself, with no table."""
    Z = libmp.to_fixed(libmp.mpf_neg(libmp.mpf_mul(t, t)), wp)
    terms = [1 << wp]
    while abs(terms[-1]) >= 1 << 25:  # the first term is 2^wp
        j = len(terms) - 1
        terms.append(terms[-1] * Z * trace_module._ratios(mu, wp, j, j + 1)[0]
                     >> 2 * wp)
    return terms


corner_mu = st.floats(-0.4999, 250.0)


class TestFixedPoint2F3:
    """trace._fixed_2f3, which sums the corners' 2F3 up to t = prec bits."""

    @settings(max_examples=60, deadline=None)
    @given(corner_mu, st.floats(0.0, 1.0), st.sampled_from([20, 30, 40, 50]))
    @example(0.0, 1.0, 20)
    @example(0.5, 0.9, 30)
    @example(1.0, 1.0, 50)
    @example(5e-324, 1.0, 40)
    @example(-0.4999, 1.0, 20)
    @example(-0.4999, 0.95, 50)
    @example(249.9, 1.0, 50)
    def test_rounds_the_sum_to_nearest(self, mu, frac, digits):
        # mpmath.hyp2f3 40 digits higher, on the same exact z
        t = corner_t(digits, frac)
        z = mpmath.fneg(mpmath.fmul(t, t, exact=True), exact=True)
        with mpmath.workdps(digits):
            got = mpmath.mp.make_mpf(trace_module._fixed_2f3(
                mu, t._mpf_, mpmath.mp.prec)[0])
        with mpmath.workdps(digits + 40):
            m = mpmath.mpf(mu)
            ref = mpmath.hyp2f3(m, m + 0.5, 2 * m + 1, m + 1.5, m + 1.5, z)
        with mpmath.workdps(digits):
            assert got == +ref

    @settings(max_examples=30, deadline=None)
    @given(corner_mu, st.floats(0.0, 1.0))
    @example(-0.45, 1.0)
    @example(249.9, 1.0)
    def test_earlier_calls_cannot_change_a_result(self, mu, frac):
        # a 20-digit call leaves a ratio table wide enough for 50 digits;
        # the unrounded sum S and its wp must not depend on it either
        t = corner_t(20, frac)._mpf_
        results = []
        for history in ((), (20,)):
            trace_module._ratio_table.cache_clear()
            for digits in history + (50,):
                result = kernel_sum(mu, t, digits)
            results.append(result)
        assert results[0] == results[1]

    @settings(max_examples=30, deadline=None)
    @given(corner_mu, st.floats(0.0, 1.0))
    @example(-0.45, 1.0)
    @example(0.0, 0.5)
    @example(249.9, 1.0)
    def test_every_ratio_read_is_its_floor_at_wp_bits(self, mu, frac):
        # a cold 20-digit call tables the ratios at W = 2 wp bits, and a
        # 50-digit call after it reads the same table at a larger wp
        t = corner_t(20, frac)._mpf_
        trace_module._ratio_table.cache_clear()
        for digits in (20, 50):
            _, S, wp = kernel_sum(mu, t, digits)
            terms = replayed_terms(mu, t, wp)
            assert S == sum(terms)
            W, table = trace_module._ratio_table(mu)[0]
            assert [table[j] >> (W - wp) for j in range(len(terms) - 1)] \
                == list(trace_module._ratios(mu, wp, 0, len(terms) - 1))

    @settings(max_examples=30, deadline=None)
    @given(corner_mu, st.floats(0.0, 1.0), st.sampled_from([20, 50]))
    @example(-0.45, 1.0, 50)
    @example(0.0, 0.0, 20)
    @example(249.9, 1.0, 20)
    def test_the_stop_bound_covers_every_ratio_read(self, mu, frac, digits):
        # a cold call tables no more ratios than _stop_bound, and it reads
        # every ratio that the sum needs from them
        t = corner_t(digits, frac)._mpf_
        trace_module._ratio_table.cache_clear()
        _, _, wp = kernel_sum(mu, t, digits)
        reads = len(replayed_terms(mu, t, wp)) - 1
        tabled = len(trace_module._ratio_table(mu)[0][1])
        bound = trace_module._stop_bound(math.e * libmp.to_float(t), wp)
        assert reads <= tabled <= bound

    def test_a_corner_below_float_range_sums_to_one(self):
        # t = 2^-1100 is 0.0 as a float; 2F3(...; -t^2) rounds to one
        t = libmp.from_man_exp(1, -1100)
        assert trace_module._fixed_2f3(0.25, t, 70)[0] == libmp.fone

    def test_reverse_order_gives_the_same_rows(self):
        clear_series_caches()
        forward = rows_to_csv(deviation_scan(DEFAULT_MU_GRID, DEFAULT_PAIRS))
        clear_series_caches()
        assert rows_to_csv(deviation_scan(DEFAULT_MU_GRID[::-1],
                                          DEFAULT_PAIRS[::-1])) == forward

    def test_rows_do_not_depend_on_the_cache_state(self):
        # 30 mu with 3 decimals, none a multiple of 1/8, so every corner
        # takes a general power and a fresh ratio table; the 180 rows
        # overflow the 256-entry corner cache, so the reversed scan meets
        # both warm and evicted corners, and the cold one clears every
        # cache before each mu
        grid = tuple(round(-0.437 + 0.079 * k, 3) for k in range(30))
        assert all(Fraction(mu).denominator > 8 for mu in grid)
        pairs = DEFAULT_PAIRS + ((IntervalSet.of((-3.0, -2.0), (0.5, 1.5)),
                                  IntervalSet.of((-1.0, 2.0))),)
        clear_series_caches()
        forward = rows_to_csv(deviation_scan(grid, pairs))
        assert rows_to_csv(deviation_scan(grid[::-1], pairs)) == forward
        cold = []
        for mu in sorted(grid):
            clear_series_caches()
            cold += deviation_scan((mu,), pairs)
        assert rows_to_csv(cold) == forward


class TestCrossMethodProperties:
    MU_SET = (-0.25, 0.0, 0.25, 0.5, 1.0, 2.0)

    def test_agreement_on_grid(self):
        for mu in self.MU_SET:
            for A, B in DEFAULT_PAIRS:
                q, m = both(A, B, mu)
                assert abs(q.value - m.value) <= (
                    q.error_estimate + m.error_estimate)

    def test_nonnegativity(self):
        for mu in (-0.4, 0.0, 1.0):
            for A, B in DEFAULT_PAIRS[:3]:
                q, m = both(A, B, mu)
                assert q.value >= -q.error_estimate
                assert m.value >= -m.error_estimate

    def test_symmetry_in_the_pair(self):
        for mu in (-0.3, 0.7):
            ab = trace_quadrature(A12, B0515, MuContext(mu))
            ba = trace_quadrature(B0515, A12, MuContext(mu))
            assert ab.value == pytest.approx(
                ba.value, abs=ab.error_estimate + ba.error_estimate + 1e-15)

    def test_reflection_invariance(self):
        for mu in (-0.3, 0.7):
            plain = trace_quadrature(A12, B0515, MuContext(mu))
            refl = trace_quadrature(reflected(A12), B0515, MuContext(mu))
            assert plain.value == pytest.approx(
                refl.value,
                abs=plain.error_estimate + refl.error_estimate + 1e-15)

    def test_monotone_in_set_inclusion(self):
        small, big = IntervalSet.of((1, 1.5)), IntervalSet.of((1, 2))
        for mu in (-0.2, 0.5):
            lo = trace_quadrature(small, B0515, MuContext(mu))
            hi = trace_quadrature(big, B0515, MuContext(mu))
            assert lo.value <= hi.value + lo.error_estimate + hi.error_estimate


class TestDeviationScan:
    def test_default_scan_shape_and_signs(self):
        rows = deviation_scan((-0.25, 0.0, 0.5), DEFAULT_PAIRS[:2])
        assert len(rows) == 6
        # canonical ordering: sorted by mu then pair text
        keys = [(r.mu, str(r.set_a), str(r.set_b)) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            if r.mu == 0.0:
                assert abs(r.deviation) < 1e-9
            elif r.mu > 0:
                assert r.deviation < 0 and r.sign_resolved
            else:
                assert r.sign_resolved  # sign recorded, expected positive
                assert r.deviation > 0

    def test_contains_zero_flagged_not_asserted(self):
        rows = deviation_scan((0.5,), ((IntervalSet.of((0, 1)),
                                        IntervalSet.of((0.5, 1.5))),))
        assert rows[0].contains_zero
        assert rows[0].deviation < 0

    def test_row_failure_recorded_scan_continues(self, monkeypatch):
        # the series is made to fail on the far pair, with no best
        far = IntervalSet.of((40, 41))
        real = trace_module.trace_moment_series

        def series(A, B, ctx):
            if A == far:
                raise EvaluationError("series failure injected")
            return real(A, B, ctx)

        monkeypatch.setattr(trace_module, "trace_moment_series", series)
        rows = deviation_scan((0.5, -0.2), ((far, far), (A12, B0515)))
        assert len(rows) == 4
        good = [r for r in rows if r.set_a == A12]
        bad = [r for r in rows if r.set_a == far]
        assert all(r.note == "" for r in good)
        assert all(r.method == "failed" and not r.sign_resolved for r in bad)
        assert all(r.note == "series failure injected" for r in bad)

    def test_far_pair_resolves_semiclassically(self):
        # sup|A| sup|B| = 1681: both routes resolve Tr to about |A||B|/2pi
        far = IntervalSet.of((40, 41))
        for mu in (0.5, -0.2):
            q, m = both(far, far, mu)
            assert abs(q.value - m.value) <= q.error_estimate + m.error_estimate
            row = evaluate_pair(far, far, MuContext(mu))
            assert row.method == "moment_series"
            assert row.value == pytest.approx(1.0 / (2.0 * math.pi), abs=2e-3)
            assert row.error < 1e-9
            assert row.sign_resolved and (row.deviation < 0) == (mu > 0)

    def test_measure_overflow_is_a_failed_row(self):
        # at mu = 249, 41^(2 mu + 1) overflows a float
        far = IntervalSet.of((40, 41))
        rows = deviation_scan((249.0, 0.5), ((far, far),))
        failed, good = rows[1], rows[0]
        assert failed.method == "failed" and not failed.sign_resolved
        assert math.isnan(failed.product) and math.isnan(failed.value)
        assert "mu = 249.0" in failed.note and "[40,41]" in failed.note
        assert good.mu == 0.5 and good.sign_resolved

    def test_rejects_invalid_mu(self):
        with pytest.raises(ValueError):
            deviation_scan((-0.6,), DEFAULT_PAIRS[:1])

    def test_default_scan_moves_only_its_error_column(self):
        # the SHA-256 of the default scan's CSV with its error column
        # dropped, recorded when the two-pass error estimate gave way to
        # the proved bars: every other column kept its bytes
        rows = list(csv.reader(io.StringIO(rows_to_csv(
            deviation_scan(DEFAULT_MU_GRID, DEFAULT_PAIRS)))))
        i = rows[0].index("error")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            row[:i] + row[i + 1:] for row in rows)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "718b5b589b7b1aa7e9fd7f20d0805b2420fcd01a5e8584c0de0836d71c6acbb3")

    def test_evaluate_pair_prefers_smaller_error(self):
        # a converged series' error is a few eps of its value, below the
        # quadrature's kernel floor, so the one route evaluate_pair runs is
        # the one with the smaller error
        far = IntervalSet.of((40, 41))
        for mu in (-0.45, 0.0, 0.5, 2.0):
            for A, B in DEFAULT_PAIRS + ((far, far),):
                q, m = both(A, B, mu)
                assert m.product_measures > 0
                assert m.error_estimate < q.error_estimate, (mu, A, B)
                row = evaluate_pair(A, B, MuContext(mu))
                assert (row.method, row.value, row.error) == (
                    "moment_series", m.value, m.error_estimate)


    @pytest.mark.parametrize("mu, A, B", [
        (27.771160607863436,  # m(A) = 3.05e-370 underflows to 0
         IntervalSet.of((-4.340546577255391e-244, 1.4094924432259323e-06)),
         IntervalSet.of((191.18179822024757, 241.27938641193214))),
        (0.78125,  # m(A) is a subnormal with a few bits
         IntervalSet.of((0.0, 1.9491746002675546e-126)),
         IntervalSet.of((0.0, 18.0))),
    ])
    def test_measure_below_normal_range_is_no_resolved_sign(self, mu, A, B):
        # a float m(A) is off by up to about the least normal float, so
        # its deviation may have either sign; the corner sum's m(A) m(B) is
        # not.  At mu = 27.77 the series resolves the true deviation,
        # -6.0e-283 at 60 digits; at mu = 0.78125 the deviation is below 60
        # digits of the trace.  The quadrature's value underflows to 0
        q, m = both(A, B, mu)
        with mpmath.workdps(30):
            assert moment_mp(A, mu, 0) < sys.float_info.min
        assert not q.sign_resolved
        if mu > 1.0:
            assert m.sign_resolved and m.deviation < 0
        else:
            assert not m.sign_resolved
        assert abs(q.value - m.value) <= q.error_estimate + m.error_estimate


@st.composite
def far_scale_sets(draw):
    """One or two intervals starting at +-10^U(-60,3), each of width
    |start| 10^U(-2,1)."""
    ivs = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.sampled_from((-1.0, 1.0))) * 10 ** draw(st.floats(-60, 3))
        ivs.append((lo, lo + abs(lo) * 10 ** draw(st.floats(-2, 1))))
    try:
        return IntervalSet(tuple(ivs))
    except ValueError:  # overlapping intervals
        assume(False)


MU_BANDS = ((-0.499, 0.5), (0.0, 5.0), (5.0, 40.0), (40.0, 250.0))


class TestSignsOfTheScan:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MU_BANDS).flatmap(lambda band: st.floats(*band)),
           far_scale_sets(), far_scale_sets())
    @example(-0.1599158957095021,  # the float m(A) is 1.96e-14 high
             IntervalSet.of((-1.1588656788094234e-60, -1.147119330260918e-60)),
             IntervalSet.of((-1.2902498249367968e-56, 5.24196384257809e-57),
                            (3.5798633523211467e-31, 4.768574952511319e-31)))
    @example(3.763425525967843,  # the float m(B) is 6.6e-14 low
             IntervalSet.of((349.811846599259, 450.4481832128851)),
             IntervalSet.of((-9.09078812938197e-34, 6.475628435115975e-33)))
    @example(27.771160607863436,  # the float m(A) = 3.05e-370 is 0
             IntervalSet.of((-4.340546577255391e-244, 1.4094924432259323e-06)),
             IntervalSet.of((191.18179822024757, 241.27938641193214)))
    @example(0.13539382872607647,
             IntervalSet.of((3.621891184052775e-52, 1.6666769148290353e-51)),
             IntervalSet.of((4.062983690184053e-25, 8.900766593191876e-25)))
    @example(0.5512747352360842,  # once a resolved +1.77e-96
             IntervalSet.of((-3.590604881882216e-36, -3.3064087193195454e-36),
                            (-3.192643996357261e-36, -1.8914672563096384e-36)),
             IntervalSet.of((0.00026657200453867935, 0.0002774568716030373),
                            (0.0011212700910871664, 0.001658324428567638)))
    def test_no_wrong_resolved_sign_and_an_exact_product(self, mu, A, B):
        # the sign of a resolved row is the proven one for mu > 0 and the
        # conjectured one for mu < 0, and m(A) m(B) is rounded once from
        # the exact product
        row = evaluate_pair(A, B, MuContext(mu))
        assert not row.sign_resolved or (row.deviation < 0) == (mu > 0)
        if row.method != "failed":
            with mpmath.workdps(60):
                ref = moment_mp(A, mu, 0) * moment_mp(B, mu, 0)
                assert abs(row.product - ref) <= mpmath.mpf(
                    math.ulp(float(ref))) / 2


def forbidden_quadrature(*args):
    raise AssertionError("the quadrature ran")


class TestOneRoutePerRow:
    """A scan row is the moment series' estimate; the quadrature never runs."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.449, 2.5), bounded_pairs())
    @example(0.5, (IntervalSet.empty(), A12))
    @example(0.413, (IntervalSet.of((1.0, 1.0 + 1e-9)),
                     IntervalSet.of((1.0, 1.0 + 1e-9))))
    @example(-0.2, (IntervalSet.of((-2.0, -1.0), (-0.5, 1.5)),
                    IntervalSet.of((-1.0, 2.0))))
    @example(-0.2, (IntervalSet.of((40, 41)), IntervalSet.of((40, 41))))
    @example(60.0, (IntervalSet.of((0, 1e-3)), IntervalSet.of((0, 1e-3))))
    @example(0.449, (IntervalSet.of((0.0, 1.0)),
                     IntervalSet.of((-18.0, -2.1457672128e-06))))
    @example(-0.25, (IntervalSet.of((0.0, 1.0)),  # a trace of 3.9e-100
                     IntervalSet.of((1.616166607119054e-238,
                                     3.2437534183229165e-198))))
    @example(-0.25, (IntervalSet.of((0.0, 5e-324)),  # subnormal widths
                     IntervalSet.of((0.0, 18.0))))
    @example(-0.25, (IntervalSet.of((0.0, 1e-322)),
                     IntervalSet.of((0.0, 18.0))))
    @example(-0.45, (IntervalSet.of((0.0, 1e-320)),
                     IntervalSet.of((0.0, 18.0))))
    @example(27.771160607863436,  # m(A) = 3.05e-370 underflows to 0
             (IntervalSet.of((-4.340546577255391e-244,
                              1.4094924432259323e-06)),
              IntervalSet.of((191.18179822024757, 241.27938641193214))))
    @example(0.78125, (IntervalSet.of((0.0, 1.9491746002675546e-126)),
                       IntervalSet.of((0.0, 18.0))))  # a subnormal m(A)
    @example(0.75, (IntervalSet.of((0.0, 3.898349200535109e-126)),
                    IntervalSet.of((0.0, 9.0))))  # subnormal weights
    @example(0.0, (IntervalSet.of((0.0, 0.25)),  # a subnormal diagonal
                   IntervalSet.of((0.0, 4.00513294534e-312))))
    def test_rows_are_the_series_estimate(self, mu, pair):
        A, B = pair
        ctx = MuContext(mu)
        m = trace_moment_series(A, B, ctx)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace_module, "trace_quadrature", forbidden_quadrature)
            row = evaluate_pair(A, B, ctx)
        assert (row.method, row.value, row.error, row.product, row.deviation,
                row.sign_resolved, row.note) == (
            "moment_series", m.value, m.error_estimate, m.product_measures,
            m.deviation, m.sign_resolved, "")
        q = trace_quadrature(A, B, ctx)
        assert abs(q.value - m.value) <= q.error_estimate + m.error_estimate
        assert m.error_estimate <= q.error_estimate

    def test_series_failure_keeps_its_best(self, monkeypatch):
        best = TraceEstimate.build(0.25, 1e-3, "moment_series", 0.5)

        def series(A, B, ctx):
            raise EvaluationError("series failure injected", best=best)

        monkeypatch.setattr(trace_module, "trace_moment_series", series)
        monkeypatch.setattr(trace_module, "trace_quadrature",
                            forbidden_quadrature)
        row = evaluate_pair(A12, B0515, MuContext(0.5))
        assert (row.method, row.value, row.error, row.product, row.deviation,
                row.sign_resolved, row.note) == (
            "moment_series", best.value, best.error_estimate,
            best.product_measures, best.deviation, best.sign_resolved,
            "series failure injected")

    def test_series_failure_without_best_is_a_failed_row(self, monkeypatch):
        def series(A, B, ctx):
            raise EvaluationError("series failure injected")

        monkeypatch.setattr(trace_module, "trace_moment_series", series)
        monkeypatch.setattr(trace_module, "trace_quadrature",
                            forbidden_quadrature)
        row = evaluate_pair(A12, B0515, MuContext(0.5))
        assert row.method == "failed" and not row.sign_resolved
        assert row.error == math.inf
        assert all(math.isnan(v) for v in (row.value, row.product,
                                           row.deviation))
        assert row.note == "series failure injected"


class TestSerialization:
    def rows(self):
        return deviation_scan((0.0, 0.5), DEFAULT_PAIRS[:2])

    def test_csv_columns_and_determinism(self):
        rows = self.rows()
        text = rows_to_csv(rows)
        assert text == rows_to_csv(self.rows())  # byte-identical
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        assert header == ["mu", "A", "B", "method", "value", "error",
                          "product", "deviation", "sign_resolved",
                          "contains_zero"]
        body = list(reader)
        assert len(body) == 4
        # floats round-trip exactly through repr
        first = body[0]
        assert float(first[4]) == rows[0].value
        assert first[8] in ("true", "false")

    def test_json_schema_and_determinism(self):
        rows = self.rows()
        text = rows_to_json(rows, config={"seed": 0})
        assert text == rows_to_json(self.rows(), config={"seed": 0})
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert payload["config"] == {"seed": 0}
        assert len(payload["rows"]) == 4
        row = payload["rows"][0]
        assert {"mu", "A", "B", "method", "value", "error", "product",
                "deviation", "sign_resolved", "contains_zero"} <= set(row)
