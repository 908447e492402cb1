"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria that carry a runtime budget time exactly the work the
budget covers (library import and warmup are outside the clock).
"""

import cmath
import math
import time

import numpy as np
from scipy.special import beta as beta_fn

from mudeform.core import (MuContext, eta_rule, exp_mu_integral,
                           exp_mu_series, gamma_mu)
from mudeform.exact import verify_closed_forms, verify_odd_vanishing
from mudeform.intervals import IntervalSet
from mudeform.operators import (GaussPoly, ccr_residual, fourier_mu_numeric,
                                intertwining_check)
from mudeform.trace import (DEFAULT_PAIRS, trace_moment_series,
                            trace_quadrature)

PAIRS = DEFAULT_PAIRS  # five pairs, endpoints in [0.25, 4], none contain 0

_grid_cache: dict = {}


def pair_results(mu):
    """Both evaluators on every acceptance pair at this mu (cached)."""
    if mu not in _grid_cache:
        ctx = MuContext(mu)
        _grid_cache[mu] = [
            (trace_quadrature(A, B, ctx), trace_moment_series(A, B, ctx))
            for A, B in PAIRS
        ]
    return _grid_cache[mu]


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_mu0_equality():
    t0 = time.perf_counter()
    A, B = IntervalSet.of((1, 2)), IntervalSet.of((0.5, 1.5))
    ctx = MuContext(0.0)
    estimates = (trace_quadrature(A, B, ctx), trace_moment_series(A, B, ctx))
    elapsed = time.perf_counter() - t0
    expected = 1.0 / (2.0 * math.pi)
    ok = all(abs(est.value - expected) < 1e-9
             and abs(est.deviation) < 1e-9 for est in estimates)
    ok = ok and elapsed < 1.0
    report(1, "mu=0 equality", ok, f"runtime {elapsed:.3f}s")


def test_criterion_02_strictness_positive_mu():
    t0 = time.perf_counter()
    rows = []
    for mu in (0.25, 0.5, 1.0, 2.0):
        for quad, mom in pair_results(mu):
            for est in (quad, mom):
                rows.append(est.deviation < 0 and est.sign_resolved)
    elapsed = time.perf_counter() - t0
    ok = all(rows) and elapsed < 30.0
    report(2, "strict inequality for mu>0", ok,
           f"{len(rows)} checks, runtime {elapsed:.1f}s")


def test_criterion_03_conjecture_evidence():
    rows = []
    signs = []
    for mu in (-0.4, -0.25, -0.1):
        for quad, mom in pair_results(mu):
            best = min((quad, mom), key=lambda e: e.error_estimate)
            rows.append(best.sign_resolved)
            signs.append(best.deviation > 0)
    ok = all(rows)  # only sign-resolution gates acceptance
    report(3, "conjecture-region evidence", ok,
           f"all deviations positive (conjectured direction): {all(signs)}")


def test_criterion_04_cross_method_equivalence():
    checks = []
    tight_checks = []
    for mu in (-0.25, 0.0, 0.25, 0.5, 1.0, 2.0):
        for quad, mom in pair_results(mu):
            gap = abs(quad.value - mom.value)
            checks.append(gap <= quad.error_estimate + mom.error_estimate)
            if quad.error_estimate < 1e-9 and mom.error_estimate < 1e-9:
                rel = gap / max(abs(quad.value), abs(mom.value), 1e-300)
                tight_checks.append(rel < 1e-7)
    ok = all(checks) and all(tight_checks) and len(tight_checks) > 0
    report(4, "cross-method oracle equivalence", ok,
           f"{len(checks)} pairs, {len(tight_checks)} at tight tolerance")


def test_criterion_05_jensen_bound():
    ok = True
    for mu in (0.5, 1.0, 3.0):
        ctx = MuContext(mu)
        for s in (0.5, 2.0, 10.0):
            series_mod = abs(exp_mu_series(1j * s, ctx).value)
            integral_mod = abs(exp_mu_integral(1j * s, ctx))
            ok = ok and series_mod < 1.0 and integral_mod < 1.0
            ok = ok and abs(series_mod - integral_mod) < 1e-9
        ok = ok and abs(exp_mu_series(0j, ctx).value) == 1.0
    report(5, "Jensen strict bound on |exp_mu(is)|", ok)


def test_criterion_06_eta_normalization():
    ok = True
    for mu in (0.25, 1.0, 3.0):
        rule = eta_rule(MuContext(mu), 48)
        ok = ok and abs(float(rule.weights.sum()) - 1.0) < 1e-12
        ok = ok and abs(rule.raw_mass - beta_fn(0.5, mu)) < 1e-10
    report(6, "eta_mu normalization and beta mass", ok)


def test_criterion_07_exact_identities():
    t0 = time.perf_counter()
    odd = verify_odd_vanishing(41)
    closed = verify_closed_forms(12)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in odd + closed) and elapsed < 60.0
    report(7, "exact binomial identities", ok,
           f"{len(odd) + len(closed)} identities, "
           f"runtime {elapsed:.1f}s")


def test_criterion_08_exact_commutation_relation():
    kappa1 = all(ccr_residual(GaussPoly.basis(n), 1).is_zero
                 for n in range(11))
    kappa2_broken = any(not ccr_residual(GaussPoly.basis(n), 2).is_zero
                        for n in (1, 3, 5))
    ok = kappa1 and kappa2_broken
    report(8, "deformed commutation relation", ok,
           "kappa=1 identically zero; kappa=2 residual nonzero on odd basis")


def test_criterion_09_intertwining():
    t0 = time.perf_counter()
    k_points = np.linspace(-3.0, 3.0, 25)
    worst = 0.0
    for mu in (0.0, 0.5, 1.0):
        ctx = MuContext(mu)
        for psi in (GaussPoly.basis(0), GaussPoly.basis(1)):
            worst = max(worst, intertwining_check(psi, k_points, ctx))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(9, "Fourier intertwining", ok,
           f"max discrepancy {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_10_classical_recovery():
    ctx = MuContext(0.0)
    rng = np.random.default_rng(891)
    series_ok = True
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) > 5:
            z *= 5 / abs(z)
        got = exp_mu_series(z, ctx).value
        want = cmath.exp(z)
        series_ok = series_ok and abs(got - want) <= 1e-12 * max(1, abs(want))
    factorial_ok = all(gamma_mu(n, ctx) == float(math.factorial(n))
                       for n in range(13))
    ks = np.linspace(-3, 3, 13)
    vals = fourier_mu_numeric([GaussPoly.basis(0)], ks, ctx)[0]
    fourier_ok = bool(np.max(np.abs(vals - np.exp(-ks ** 2 / 2))) < 1e-8)
    ok = series_ok and factorial_ok and fourier_ok
    report(10, "classical mu=0 recovery", ok)
