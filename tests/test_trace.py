"""Trace evaluators, their cross-validation, and the deviation scan."""

import csv
import io
import json
import math

import pytest

import mudeform.trace as trace_module
from mudeform.core import MuContext
from mudeform.errors import EvaluationError
from mudeform.intervals import IntervalSet
from mudeform.measure import measure
from mudeform.trace import (DEFAULT_PAIRS, QuadratureSpec,
                            deviation_scan, evaluate_pair, rows_to_csv,
                            rows_to_json, trace_moment_series,
                            trace_quadrature)

A12 = IntervalSet.of((1, 2))
B0515 = IntervalSet.of((0.5, 1.5))


def both(A, B, mu, spec=QuadratureSpec()):
    ctx = MuContext(mu)
    return trace_quadrature(A, B, ctx, spec), trace_moment_series(A, B, ctx)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_panel=0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=1.5)


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
        assert q.value < measure(A12, MuContext(1.0)) ** 2
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

    def test_nonconvergence_carries_best(self):
        spec = QuadratureSpec(nodes_per_panel=1, max_subdivisions=2,
                              rel_tol=1e-12, abs_tol=1e-14)
        with pytest.raises(EvaluationError) as err:
            trace_quadrature(A12, B0515, MuContext(0.5), spec)
        best = err.value.best
        assert best is not None
        assert best.value == pytest.approx(0.19387043407447682, rel=1e-2)


class TestTraceMomentSeries:
    def test_term_cap_signals_failure(self):
        far = IntervalSet.of((30, 31))
        with pytest.raises(EvaluationError) as err:
            trace_moment_series(far, far, MuContext(0.5))
        assert "quadrature" in str(err.value)

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
            refl = trace_quadrature(A12.reflected(), B0515, MuContext(mu))
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
        # both routes fail on the far pair: the moment series fails fast
        # past its term cap, and the quadrature is made to fail with no best
        far = IntervalSet.of((40, 41))
        real_quadrature = trace_module.trace_quadrature

        def failing_quadrature(A, B, ctx, spec):
            if A == far:
                raise EvaluationError("quadrature failure injected")
            return real_quadrature(A, B, ctx, spec)

        monkeypatch.setattr(trace_module, "trace_quadrature",
                            failing_quadrature)
        rows = deviation_scan((0.5, -0.2), ((far, far), (A12, B0515)))
        assert len(rows) == 4
        good = [r for r in rows if r.set_a == A12]
        bad = [r for r in rows if r.set_a == far]
        assert all(r.note == "" for r in good)
        assert all(not r.sign_resolved for r in bad)

    def test_far_pair_resolves_semiclassically(self):
        # sup|A| sup|B| = 1681: the moment series cannot run, the quadrature
        # resolves Tr to about |A||B|/2pi
        far = IntervalSet.of((40, 41))
        for mu in (0.5, -0.2):
            row = evaluate_pair(far, far, MuContext(mu))
            assert row.method == "quadrature"
            assert row.value == pytest.approx(1.0 / (2.0 * math.pi), abs=2e-3)
            assert row.error < 1e-9
            assert row.sign_resolved and (row.deviation < 0) == (mu > 0)

    def test_rejects_invalid_mu(self):
        with pytest.raises(ValueError):
            deviation_scan((-0.6,), DEFAULT_PAIRS[:1])

    def test_evaluate_pair_prefers_smaller_error(self):
        row = evaluate_pair(A12, B0515, MuContext(0.5))
        assert row.method in ("quadrature", "moment_series")
        assert row.error >= 0


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
