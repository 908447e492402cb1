"""CLI: commands, exit-status contract, config precedence, determinism."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from itertools import zip_longest
from pathlib import Path

import mpmath
import pytest
from test_core import series_reference_mp

import mudeform.core as core_module
import mudeform.operators as operators_module
import mudeform.trace as trace_module
from mudeform.cli import RunConfig, build_parser, main, write_deviation_plot
from mudeform.core import MuContext, exp_mu_series
from mudeform.intervals import IntervalSet
from mudeform.trace import ScanRow, deviation_scan

from helpers import abs2_grid_error_bound, abs2_on_grid

SVG_NS = "{http://www.w3.org/2000/svg}"
# the default `mudeform scan --out default_scan.csv`, frozen: a change to
# any number in it must replace the file and say why
GOLDEN_SCAN = Path(__file__).parent / "data" / "default_scan.csv"
# the default `mudeform verify-identities --out identities.json`, frozen
GOLDEN_IDENTITIES = Path(__file__).parent / "data" / "identities.json"
# the default `mudeform check-operators --out check_operators.json`, frozen
GOLDEN_OPERATORS = Path(__file__).parent / "data" / "check_operators.json"
# every option of every command, help aside, sorted
SURFACE = {
    "specfun": ["--config", "--mu", "--s", "--z"],
    "trace": ["--config", "--mu", "--set-a", "--set-b"],
    "scan": ["--config", "--mu-grid", "--out", "--plot", "--set-a",
             "--set-b"],
    "verify-identities": ["--config", "--k-max", "--n-max", "--out"],
    "check-operators": ["--config", "--kappa", "--mu", "--n-max", "--out",
                        "--psi"],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(got: bytes, golden: Path, what: str) -> None:
    """got is the golden file's bytes, or the first differing line fails."""
    want = golden.read_bytes()
    if got != want:
        lines = zip_longest(got.decode().splitlines(True),
                            want.decode().splitlines(True),
                            fillvalue="<end of file>")
        n, (g, w) = next((n, pair) for n, pair in enumerate(lines, 1)
                         if pair[0] != pair[1])
        pytest.fail(f"{what} differs from {golden.name} first at line "
                    f"{n}:\n got  {g!r}\n want {w!r}")


def series_line(out: str, name: str = "product") -> tuple[float, float]:
    """The value of specfun's series line called name and the sum of its
    two bars."""
    line, = [ln for ln in out.splitlines() if ln.split()[0] == name]
    fields = dict(f.split("=") for f in line.split("[")[1].split() if "=" in f)
    return (float(line.split()[1]),
            float(fields["trunc_error"]) + float(fields["rounding_error"]))


def checkout_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_module(*argv):
    """python -m mudeform argv, in a subprocess on this checkout's src."""
    return subprocess.run([sys.executable, "-m", "mudeform", *argv],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=60)


class TestSpecfun:
    def test_classical_exponential(self, capsys):
        code, out, _ = run(capsys, "specfun", "--mu", "0", "--z", "1")
        assert code == 0
        assert "2.718281828" in out

    def test_jensen_modulus_reported(self, capsys):
        code, out, _ = run(capsys, "specfun", "--mu", "1", "--s", "2")
        assert code == 0
        assert "< 1" in out
        assert "integral" in out

    def test_integral_line_matches_kernel(self, capsys):
        for mu, s in ((1.0, 2.0), (0.5, 0.0)):
            code, out, _ = run(capsys, "specfun", "--mu", str(mu),
                               "--s", str(s))
            assert code == 0
            line, = [ln for ln in out.splitlines()
                     if ln.split()[0] == "integral"]
            printed = float(line.split()[1])
            kernel = float(abs2_on_grid(s, MuContext(mu)))
            assert abs(printed - kernel) <= abs2_grid_error_bound(kernel)

    def test_negative_mu_precision_diagnostic(self, capsys):
        code, out, _ = run(capsys, "specfun", "--mu", "-0.25", "--s", "2")
        assert code == 0
        assert "bits=" in out
        assert "integral" not in out  # representation needs mu > 0

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "specfun", "--mu", "1")
        assert code == 2
        assert "--z" in err or "--s" in err
        code, _, err = run(capsys, "specfun", "--s", "1")
        assert code == 2
        assert "specfun requires --mu" in err

    def test_far_argument_leaves_the_integral_out(self, capsys):
        # past 2.2|s| + 40 = 1200 nodes the eta_mu rule does not resolve
        # e^(ist): one line says so, and both series answer within their
        # bars of the kernel
        code, out, err = run(capsys, "specfun", "--mu", "1", "--s", "600")
        assert code == 0, err
        line, = [ln for ln in out.splitlines() if ln.split()[0] == "integral"]
        assert "left out: the default eta_mu rule (at most 1200 nodes)" in line
        assert "modulus" not in out
        kernel = float(abs2_on_grid(600.0, MuContext(1.0)))
        value, bars = series_line(out)
        assert abs(value - kernel) <= bars + abs2_grid_error_bound(kernel)
        value, bars = series_line(out, "even_series")
        assert abs(value - kernel) <= bars + abs2_grid_error_bound(kernel)

    def test_far_z_leaves_the_integral_out(self, capsys):
        code, out, err = run(capsys, "specfun", "--mu", "1", "--z", "600")
        assert code == 0, err
        assert "  series    6.28312686224305" in out
        assert "  integral  left out: the default eta_mu rule" in out

    def test_even_series_far_out_at_negative_mu(self, capsys):
        # 279.24449561333384 by 60-digit hyp0f1; the terms pass e^2000
        code, out, err = run(capsys, "specfun", "--mu", "-0.3", "--s", "1000")
        assert code == 0, err
        value, bars = series_line(out, "even_series")
        assert abs(value - 279.24449561333384) <= bars

    def test_invalid_mu(self, capsys, tmp_path):
        code, _, err = run(capsys, "specfun", "--mu", "-0.6", "--s", "1")
        assert code == 2
        assert "usage" in err
        # non-finite mu is rejected up front, not deep in the kernel
        for argv in (("trace", "--mu", "inf"),
                     ("scan", "--mu-grid", "inf", "--out", str(tmp_path / "o"))):
            code, _, err = run(capsys, *argv, "--set-a", "[1,2]",
                               "--set-b", "[0.5,1.5]")
            assert code == 2
            assert "usage" in err and "got inf" in err
            assert "infs or NaNs" not in err

    def test_far_argument_even_series_is_finite(self, capsys):
        for s in ("38", "40"):
            code, out, _ = run(capsys, "specfun", "--mu", "1", "--s", s)
            assert code == 0
            assert "inf" not in out and "nan" not in out
            even = [ln for ln in out.splitlines() if "even_series" in ln]
            assert len(even) == 1 and math.isfinite(float(even[0].split()[1]))

    def test_both_series_report_diagnostics(self, capsys):
        code, out, _ = run(capsys, "specfun", "--mu", "-0.45", "--s", "12")
        assert code == 0
        for name in ("product", "even_series"):
            line, = [ln for ln in out.splitlines() if ln.split()[0] == name]
            assert "trunc_error=" in line and "rounding_error=" in line

    def test_product_bars_bound_the_squared_modulus(self, capsys):
        # the bars of |exp_mu(is)|^2, not those of exp_mu(is) itself
        code, out, _ = run(capsys, "specfun", "--mu", "-0.45", "--s", "12")
        assert code == 0
        value, bars = series_line(out)
        with mpmath.workprec(400):
            ref = abs(series_reference_mp(12.0, -0.45)) ** 2
            gap = abs(value - ref)
        assert gap <= bars
        # the bars of exp_mu(12i), d, propagated to its square
        r = exp_mu_series(12j, MuContext(-0.45))
        d = r.trunc_error + r.rounding_error
        assert bars == pytest.approx((2 * abs(r.value) + d) * d, rel=1e-3)

    def test_mu_below_eta_rule_resolution(self, capsys):
        # 0 < mu < ~1e-16: the integral lines are left out, as for mu <= 0
        code, out, err = run(capsys, "specfun", "--mu", "1e-17", "--s", "1",
                             "--z", "1")
        assert code == 0, err
        assert "integral" not in out and "even_series  1.0" in out

    def test_tolerance_options(self, capsys):
        # the series size their own tolerance and precision: no flag sets
        # them
        for argv in (("--tol", "1e-12"), ("--precision-bits", "256")):
            with pytest.raises(SystemExit) as exc:
                main(["specfun", "--mu", "0.5", "--s", "3", *argv])
            assert exc.value.code == 2
            assert "usage" in capsys.readouterr().err

    def test_far_imaginary_axis(self, capsys):
        # the precision is fixed from the proved bound e^|s| on the power
        # series, so the product bars hold far out, up to the kernel's own
        # floor
        for mu in (-0.45, 0.0, 0.5, 3.0, 20.0):
            for s in (150.0, 200.0, 300.0, 350.0):
                code, out, err = run(capsys, "specfun", "--mu", str(mu),
                                     "--s", str(s))
                assert code == 0, err
                value, bars = series_line(out)
                got = float(abs2_on_grid(s, MuContext(mu)))
                assert abs(value - got) <= (
                    bars + abs2_grid_error_bound(got)), (mu, s)

    def test_below_one_mark_clears_the_integral_bar(self, capsys):
        # at s = 0 the integral may read 1 - ulp, which is not below 1
        for mu in ("0.5", "1", "2.5"):
            code, out, _ = run(capsys, "specfun", "--mu", mu, "--s", "0")
            assert code == 0
            line, = [ln for ln in out.splitlines() if "modulus" in ln]
            assert not line.endswith("< 1")
        code, out, _ = run(capsys, "specfun", "--mu", "1", "--s", "2")
        line, = [ln for ln in out.splitlines() if "modulus" in ln]
        assert code == 0 and line.endswith("< 1")

    def test_python_dash_m(self):
        proc = run_module("specfun", "--mu", "0", "--z", "1")
        assert proc.returncode == 0, proc.stderr
        assert "2.718281828" in proc.stdout


class TestTraceCommand:
    def test_both_evaluators_printed(self, capsys):
        code, out, _ = run(capsys, "trace", "--mu", "0.25",
                           "--set-a", "[1,2]", "--set-b", "[0.5,1.5]")
        assert code == 0
        assert "quadrature" in out and "moment_series" in out
        assert "sign_resolved=true" in out

    def test_far_pair_both_routes_finite(self):
        proc = run_module("trace", "--mu", "-0.3", "--set-a", "[40,41]",
                          "--set-b", "[40,41]")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for name in ("quadrature", "moment_series"):
            line, = [ln for ln in proc.stdout.splitlines()
                     if ln.split()[0] == name]
            value = float(line.split()[1].removeprefix("value="))
            assert math.isfinite(value)

    def test_far_pair_at_negative_mu_resolves_by_both_routes(self, capsys):
        # the former 2-D quadrature failed here: "converges too slowly"
        code, out, _ = run(capsys, "trace", "--mu", "-0.45", "--set-a",
                           "[1000,1001]", "--set-b", "[1000,1001]")
        assert code == 0 and "FAILED" not in out
        names = [ln.split()[0] for ln in out.splitlines()[1:]]
        assert names == ["quadrature", "moment_series"]

    def test_measure_overflow_reported_per_route(self, capsys):
        code, out, err = run(capsys, "trace", "--mu", "249",
                             "--set-a", "[40,41]", "--set-b", "[40,41]")
        assert code == 1
        failed = [ln for ln in out.splitlines() if "FAILED" in ln]
        assert len(failed) == 2
        assert all("mu = 249.0" in ln and "[40,41]" in ln for ln in failed)

    def test_requires_sets(self, capsys):
        code, _, err = run(capsys, "trace", "--mu", "0.25")
        assert code == 2

    def test_empty_set_has_zero_trace(self, capsys):
        code, out, _ = run(capsys, "trace", "--mu", "1", "--set-a", "{}",
                           "--set-b", "[0,1]")
        assert code == 0
        assert "A = {}" in out.splitlines()[0]
        for name in ("quadrature", "moment_series"):
            line, = [ln for ln in out.splitlines() if ln.split()[0] == name]
            assert line.split()[1] == "value=0.0"

    def test_bad_interval_syntax(self, capsys):
        code, out, err = run(capsys, "trace", "--mu", "0.25",
                             "--set-a", "[2,1]", "--set-b", "[0,1]")
        assert code == 2 and out == ""
        assert "usage" in err and "error" in err

    @pytest.mark.parametrize("mu, A, B, digest", [
        ("0.25", "[1,2]", "[0.5,1.5]",
         "e33364e6eb19316c69dddc8e91daa5f147575662bda74c114f917b0274e2145d"),
        ("-0.3", "[-1,2]", "[0.01,1.5]+[3,4]",
         "ed194cc842323b93035f2245a9a40927cb53e5715698ccc83c6eae683fe77689"),
        ("60.1", "[10,11]", "[5,6]",
         "5582c641d871f680e9e955dbbc42a4fba164bdbac2a23f286caeefb2bfd3160c"),
        ("2", "[3,9]", "[-2,8]",
         "05326032978f64a4b47f9ed41356b707cde3cba5daa458adaf61f2d71330998b"),
        ("200", "[30,31]", "[20,21]",
         "bd889877e01a2e74be0863df7e0fbbe633d40d1d443858f34e8268f0b65cadac"),
    ], ids=["mu0.25", "mu-0.3-union", "mu60.1", "mu2-across-0", "mu200"])
    def test_stdout_byte_for_byte(self, capsys, mu, A, B, digest):
        # both routes' lines, the quadrature's included: its weights and
        # its diagonal go through measure._density_scale.  At mu = 200
        # norm_const is far below float range
        code, out, _ = run(capsys, "trace", "--mu", mu, "--set-a", A,
                           "--set-b", B)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", (("trace", "--mu", "0.5"),
                                     ("scan", "--mu-grid", "0.5")))
def test_blank_set_is_the_empty_set(capsys, tmp_path, command):
    # the grammar reads a blank literal as the empty set, and so does each
    # command that takes a set, from a flag and from a config key
    def outputs(literal):
        by_flag = run(capsys, *command, "--set-a", literal, "--set-b", "[1,2]")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"set_a": literal, "set_b": "[1,2]"}))
        return by_flag, run(capsys, *command, "--config", str(cfg))

    empty = outputs("{}")
    assert outputs("") == empty
    assert all(code == 0 and "{}" in out for code, out, _ in empty)


class TestScanCommand:
    def test_writes_csv_json_and_plot(self, capsys, tmp_path):
        out_base = tmp_path / "scan"
        svg = tmp_path / "dev.svg"
        code, out, _ = run(capsys, "scan", "--mu-grid=-0.25,0,0.5",
                           "--set-a", "[1,2]", "--set-b", "[0.5,1.5]",
                           "--out", str(out_base), "--plot", str(svg))
        assert code == 0
        csv_text = (tmp_path / "scan.csv").read_text()
        assert csv_text.splitlines()[0].startswith("mu,A,B,method")
        payload = json.loads((tmp_path / "scan.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 3
        assert svg.read_text().lstrip().startswith("<?xml")

    def test_default_scan_matches_golden_file(self, capsys, tmp_path,
                                              monkeypatch):
        def forbidden(*args):
            raise AssertionError("a scan row ran the quadrature")

        monkeypatch.setattr(trace_module, "trace_quadrature", forbidden)
        out_file = tmp_path / "default_scan.csv"
        code, _, _ = run(capsys, "scan", "--out", str(out_file))
        assert code == 0
        assert_golden(out_file.read_bytes(), GOLDEN_SCAN, "the default scan")

    def test_failed_row_bytes(self, capsys, tmp_path):
        # m(A) m(B) overflows a float at mu = 249: the row is failed, with
        # no product either, and the scan exits 1
        code, _, _ = run(capsys, "scan", "--mu-grid", "249,1,-0.3",
                         "--set-a", "[40,41]+[-3,-1]", "--set-b", "[40,41]",
                         "--out", str(tmp_path / "s"))
        assert code == 1
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[-1] == ('249.0,"[-3,-1]+[40,41]","[40,41]",failed,'
                             'nan,inf,nan,nan,false,false')
        text = (tmp_path / "s.json").read_text()
        row = json.loads(text)["rows"][-1]
        assert '"error": Infinity,' in text and '"value": NaN' in text
        assert row["mu"] == 249.0 and row["method"] == "failed"
        assert all(math.isnan(row[k]) for k in ("value", "product",
                                                "deviation"))
        assert row["note"] == ("m(A) m(B) over [-3,-1]+[40,41] x [40,41] "
                               "at mu = 249.0 overflows a float")
        assert row["sign_resolved"] is False and row["contains_zero"] is False

    def test_underflowed_measure_is_not_a_resolved_sign(self, capsys,
                                                        tmp_path):
        # m(A) = 3.05e-370 rounds to 0.0 in floats, but m(A) m(B) comes
        # from the corner sum, 3.2e-274, and the true deviation, about
        # -6.0e-283, is a resolved negative sign
        code, _, _ = run(capsys, "scan", "--mu-grid", "27.771160607863436",
                         "--set-a",
                         "[-4.340546577255391e-244,1.4094924432259323e-06]",
                         "--set-b", "[191.18179822024757,241.27938641193214]",
                         "--out", str(tmp_path / "s.json"))
        assert code == 0
        row, = json.loads((tmp_path / "s.json").read_text())["rows"]
        assert row["product"] == pytest.approx(3.2081227132828926e-274)
        assert row["deviation"] == pytest.approx(-6.0131408e-283, rel=1e-6)
        assert row["sign_resolved"] is True

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = ["scan", "--mu-grid", "0,0.5", "--set-a", "[1,2]",
                "--set-b", "[0.5,1.5]"]
        texts, svgs = [], []
        for name in ("a", "b"):
            out_file = tmp_path / f"{name}.csv"
            svg = tmp_path / f"{name}.svg"
            code, _, _ = run(capsys, *argv, "--out", str(out_file),
                             "--plot", str(svg))
            assert code == 0
            texts.append(out_file.read_bytes())
            svgs.append(svg.read_bytes())
        assert texts[0] == texts[1]
        assert svgs[0] == svgs[1]

    def test_plot_degenerate_inputs(self, tmp_path):
        A = IntervalSet.of((1.0, 2.0))
        B = IntervalSet.of((0.5, 1.5))
        single = deviation_scan((0.0,), ((A, B),))
        assert abs(single[0].deviation) < 1e-9
        failed = [ScanRow(-0.25, A, B, "failed", math.nan, math.inf, math.nan,
                          math.nan, False, False, "moment 0 overflows")]
        for name, rows in (("single", single), ("failed", failed)):
            svg = tmp_path / f"{name}.svg"
            write_deviation_plot(rows, str(svg))
            root = ET.parse(svg).getroot()
            assert len(root.findall(f"{SVG_NS}polyline")) == 1

    def test_byte_identical_json_same_config(self, capsys, tmp_path):
        # the JSON embeds the config echo, so byte-identity needs the
        # whole RunConfig to match
        out_file = tmp_path / "scan.json"
        argv = ["scan", "--mu-grid", "0.25", "--set-a", "[1,2]",
                "--set-b", "[0.5,1.5]", "--out", str(out_file)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        first = out_file.read_bytes()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert out_file.read_bytes() == first

    def test_default_grid_mu0_row(self, capsys, tmp_path):
        out_file = tmp_path / "one.json"
        code, _, _ = run(capsys, "scan", "--mu-grid", "0",
                         "--set-a", "[1,2]", "--set-b", "[0.5,1.5]",
                         "--out", str(out_file))
        assert code == 0
        row = json.loads(out_file.read_text())["rows"][0]
        assert abs(row["deviation"]) < 1e-9

    def test_half_pair_rejected(self, capsys):
        code, _, err = run(capsys, "scan", "--set-a", "[1,2]")
        assert code == 2

    def test_empty_mu_grid_rejected(self, capsys, tmp_path):
        # an empty grid would evaluate no row and print only the header
        for argv in (("--mu-grid=,",), ("--mu-grid", "")):
            code, out, err = run(capsys, "scan", *argv)
            assert code == 2 and out == ""
            assert "usage" in err and "at least one mu" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu_grid =\n")
        code, out, err = run(capsys, "scan", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "usage" in err and "at least one mu" in err


class TestVerifyIdentitiesCommand:
    def test_small_budget(self, capsys, tmp_path):
        out_file = tmp_path / "ids.json"
        code, _, err = run(capsys, "verify-identities", "--n-max", "1",
                           "--k-max", "3", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["all_passed"] is True
        families = {c["family"] for c in payload["checks"]}
        assert families == {"odd_vanishing", "p_4n_minus_2", "p_4n",
                            "p_2n_sum"}
        odd = [c for c in payload["checks"] if c["family"] == "odd_vanishing"]
        assert [c["index"] for c in odd] == [1, 3]

    def test_default_report_matches_golden_file(self, capsys, tmp_path):
        out_file = tmp_path / "identities.json"
        code, _, err = run(capsys, "verify-identities", "--out", str(out_file))
        assert code == 0 and "57/57 passed" in err
        assert_golden(out_file.read_bytes(), GOLDEN_IDENTITIES,
                      "the default identity report")

    def test_stdout_json_when_no_out(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--n-max", "1",
                           "--k-max", "1")
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_empty_budget_rejected(self, capsys, tmp_path):
        for flag in ("--k-max", "--n-max"):
            code, out, err = run(capsys, "verify-identities", flag, "0")
            assert code == 2 and out == ""
            assert "usage" in err and "got 0" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_max = -3\n")
        code, _, err = run(capsys, "verify-identities", "--config", str(cfg))
        assert code == 2
        assert "usage" in err and "k_max >= 1, got -3" in err

    def test_large_budget(self):
        proc = run_module("verify-identities", "--k-max", "121",
                          "--n-max", "30")
        assert proc.returncode == 0, proc.stderr
        assert "151/151 passed" in proc.stderr
        assert json.loads(proc.stdout)["all_passed"] is True
        # the report of the exact layer, byte for byte
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "4dfc7ac91f1fc3b41b916d84f98260a2939cd0b74682627816b435a468011919")

    def test_large_budget_report_file(self, capsys, tmp_path):
        # the --out file of the same budget, byte for byte
        out_file = tmp_path / "ids.json"
        code, _, err = run(capsys, "verify-identities", "--k-max", "121",
                           "--n-max", "30", "--out", str(out_file))
        assert code == 0 and "151/151 passed" in err
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "f304c7bfd440445415ef9de1a5a4f55c1c9c5bb6389d56d295dd08fb8e84b22b")


class TestCheckOperatorsCommand:
    def test_default_passes(self, capsys, tmp_path):
        out_file = tmp_path / "ops.json"
        code, _, _ = run(capsys, "check-operators", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["ccr_all_zero"] is True
        assert payload["expected_failure_mode"] is False
        assert len(payload["ccr"]) == 11
        fitted = payload["equations_of_motion"][0]
        assert fitted["fitted_c1"] == "0.0-1.0j"
        ints = payload["intertwining"]
        assert all(entry["max_discrepancy"] < 1e-6 for entry in ints)

    def test_kappa_two_expected_failure_mode(self, capsys, tmp_path):
        out_file = tmp_path / "ops2.json"
        code, _, err = run(capsys, "check-operators", "--kappa", "2",
                           "--out", str(out_file))
        assert code == 0  # expected-failure mode is not an error exit
        payload = json.loads(out_file.read_text())
        assert payload["ccr_all_zero"] is False
        assert payload["expected_failure_mode"] is True
        assert "demonstrated" in err

    def test_degree_six_psi_negative_mu(self, capsys, tmp_path):
        texts = []
        for name in ("a", "b"):
            out_file = tmp_path / f"{name}.json"
            code, _, err = run(
                capsys, "check-operators", "--mu", "-0.16", "--psi",
                "(1/3x^6 - 3x^5 - 1/3x^4 - x^2 - 2) * gauss",
                "--out", str(out_file))
            assert code == 0, err
            texts.append(out_file.read_bytes())
        assert texts[0] == texts[1]
        ints = json.loads(texts[0])["intertwining"]
        assert ints and all(e["max_discrepancy"] < 1e-9 for e in ints)

    def test_negative_basis_degree_rejected(self, capsys, tmp_path):
        # n_max = -1 would check no basis function and pass vacuously
        for extra in ((), ("--kappa", "2")):
            out_file = tmp_path / "ops.json"
            code, _, err = run(capsys, "check-operators", "--n-max", "-1",
                               *extra, "--out", str(out_file))
            assert code == 2
            assert "usage" in err and "n_max >= 0, got -1" in err
            assert not out_file.exists()
        code, _, _ = run(capsys, "check-operators", "--n-max", "0",
                         "--out", str(out_file))
        assert code == 0
        assert len(json.loads(out_file.read_text())["ccr"]) == 1

    def test_custom_psi(self, capsys, tmp_path):
        out_file = tmp_path / "ops3.json"
        code, _, _ = run(capsys, "check-operators", "--psi",
                         "(1 + 2x^3) * gauss", "--n-max", "4",
                         "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["equations_of_motion"][0]["psi"] == "(1 + 2x^3) * gauss"

    def test_coefficient_beyond_float_range_is_an_error_entry(self):
        # the exact checks hold; only the numeric transform needs floats
        proc = run_module("check-operators", "--n-max", "1", "--psi",
                          "1e400 * gauss", "--psi", "gauss")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ccr_all_zero"] is True
        assert len(payload["equations_of_motion"]) == 2
        bad, good = payload["intertwining"]
        assert bad == {"psi": "1e400 * gauss", "mu": 0.5, "error":
                       "the coefficient of x^1 at mu = 0.5 leaves float range"}
        assert good["max_discrepancy"] < 1e-9
        # the message gives mu as passed, not as the Fraction of its float
        proc = run_module("check-operators", "--mu", "0.1", "--n-max", "0",
                          "--psi", "1e400 * gauss")
        assert json.loads(proc.stdout)["intertwining"] == [
            {"psi": "1e400 * gauss", "mu": 0.1, "error":
             "the coefficient of x^1 at mu = 0.1 leaves float range"}]

    def test_transform_runs_past_the_float_range_of_the_density(self):
        # from mu of about 93 on, |x|^(2 mu) on the quadrature's [0, R]
        # leaves float range, and so does norm_const; the weights, formed
        # as ratios to R, do not, so the transform runs clean to mu = 250
        def exact_sections(proc):
            payload = json.loads(proc.stdout)
            del payload["intertwining"]
            return payload

        reference = exact_sections(
            run_module("check-operators", "--mu", "0.5"))
        for mu in ("92", "95", "120", "250"):
            proc = run_module("check-operators", "--mu", mu)
            assert proc.returncode == 0 and proc.stderr == ""
            assert exact_sections(proc) == reference
            ints = json.loads(proc.stdout)["intertwining"]
            assert ints and all(e["max_discrepancy"] < 1e-6 for e in ints)

    def test_each_psi_parsed_once_by_the_command(self, tmp_path,
                                                monkeypatch):
        # each literal is parsed once per run, where the flag is read, and
        # the command works on that parse; the defaults are parsed too
        calls = []
        parse = operators_module.parse_gauss_poly
        monkeypatch.setattr(operators_module, "parse_gauss_poly",
                            lambda text: calls.append(text) or parse(text))
        out = str(tmp_path / "ops.json")
        for psis in (("gauss", "(1 + 2x^3) * gauss"), ()):
            calls.clear()
            flags = [arg for text in psis for arg in ("--psi", text)]
            assert main(["check-operators", "--n-max", "1", *flags,
                         "--out", out]) == 0
            assert calls == list(psis or RunConfig.psi)
            assert [e["psi"] for e in json.loads(
                Path(out).read_text())["equations_of_motion"]] == calls

    def test_one_mu_context_per_command(self, tmp_path, monkeypatch):
        # the config check of mu builds no context: the command's is the
        # only one, and a bad mu is still named
        built = []
        init = MuContext.__post_init__
        monkeypatch.setattr(MuContext, "__post_init__",
                            lambda ctx: built.append(ctx.mu) or init(ctx))
        out = str(tmp_path / "ops.json")
        for mu in ("0.731", "-0.3", "2"):
            built.clear()
            assert main(["check-operators", "--mu", mu, "--out", out]) == 0
            assert built == [float(mu)]
        built.clear()
        with pytest.raises(ValueError, match="got -0.5"):
            RunConfig("check-operators", mu=-0.5)
        assert built == []

    def test_one_norm_const_per_command(self, tmp_path, monkeypatch):
        # with every cache cold, the context's constant is the only one a
        # default run computes: the panel rules and the transform's radius
        # read it.  The name is counted in every module that holds it
        calls = []
        norm_const_mp = core_module.norm_const_mp

        def counted(mu):
            calls.append(mu)
            return norm_const_mp(mu)

        for name in [name for name in sys.modules
                     if name.startswith("mudeform")]:
            module = sys.modules[name]  # mudeform.measure: the module
            if hasattr(module, "norm_const_mp"):
                monkeypatch.setattr(module, "norm_const_mp", counted)
            for f in vars(module).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()
        assert main(["check-operators",
                     "--out", str(tmp_path / "ops.json")]) == 0
        assert calls == [0.5]

    def test_default_report_matches_golden_file(self, capsys, tmp_path):
        out_file = tmp_path / "check_operators.json"
        code, _, _ = run(capsys, "check-operators", "--out", str(out_file))
        assert code == 0
        assert_golden(out_file.read_bytes(), GOLDEN_OPERATORS,
                      "the default operator report")

    @pytest.mark.parametrize("flags, digest", [
        (("--mu", "2"),
         "6f179e43c29dd600186a3c37a630737f42e662d2bff69f1504835f4e5a6e409b"),
        (("--mu", "-0.3", "--psi",
          "(1/3x^6 - 3x^5 - 1/3x^4 - x^2 - 2) * gauss"),
         "4a82c345657c88eb3db55340f3b451c96945ab8e13f22cbb07ddec3e6a5e4b6b"),
        (("--kappa", "2"),
         "08e663075d1c1abec2a439ab2488e62e7212ec6eeff708bf43bb73349c4e1b88"),
        (("--kappa", "1/3", "--n-max", "4"),
         "52962bad9e7238fb996cede98ea1026c8abf50c042ebddd8e192b6f17ecbda0d"),
    ], ids=["mu2", "degree6", "kappa2", "kappa1/3"])
    def test_report_byte_for_byte(self, capsys, tmp_path, flags, digest):
        # the whole --out file, intertwining floats included
        out_file = tmp_path / "ops.json"
        code, _, _ = run(capsys, "check-operators", *flags,
                         "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestConfigPrecedence:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 1\ns = 2\n# comment\n")
        code, out, _ = run(capsys, "specfun", "--config", str(cfg))
        assert code == 0
        assert "mu = 1.0" in out
        code, out, _ = run(capsys, "specfun", "--config", str(cfg),
                           "--mu", "2")
        assert code == 0
        assert "mu = 2.0" in out

    def test_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mu": 0.5, "z": "1+0i"}))
        code, out, _ = run(capsys, "specfun", "--config", str(cfg))
        assert code == 0
        assert "exp_mu" in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "specfun", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_key_without_flag_rejected(self, capsys, tmp_path):
        # a key the command has no flag for exits 2, as the flag would
        cfg = tmp_path / "run.cfg"
        for command, key, value in (("check-operators", "k_max", "0"),
                                    ("trace", "out", "t.json")):
            cfg.write_text(f"{key} = {value}\n")
            code, out, err = run(capsys, command, "--config", str(cfg))
            assert code == 2 and out == ""
            assert "usage" in err and repr(key) in err

    def test_malformed_literal_is_a_usage_error(self, capsys, tmp_path):
        # a literal is checked where the flag or config key is read, so a
        # malformed one exits 2 with usage and nothing is written
        out_file = tmp_path / "out.json"
        cfg = tmp_path / "run.cfg"
        cases = (("scan", "set_a", "[1,2]+", ("--set-b", "[0,1]")),
                 ("scan", "set_b", "[0,1] [2,3]", ("--set-a", "[0,1]")),
                 ("check-operators", "psi", "7- gauss", ()),
                 ("check-operators", "psi", "x^1000 * gauss", ()),
                 ("check-operators", "psi", "1e10000 * gauss", ()),
                 ("check-operators", "kappa", "1/0", ()))
        for command, key, value, extra in cases:
            cfg.write_text(f"{key} = {value}\n")
            flag = "--" + key.replace("_", "-")
            for source in ((flag, value), ("--config", str(cfg))):
                code, out, err = run(capsys, command, *source, *extra,
                                     "--out", str(out_file))
                assert code == 2 and out == "", source
                assert "usage" in err and repr(value) in err, err
                assert not out_file.exists()

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu 1\n")
        code, _, err = run(capsys, "specfun", "--config", str(cfg))
        assert code == 2


class TestParserContract:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_specfun_options_rejected_elsewhere(self, capsys):
        # --z and --s are read only by specfun
        for argv in (("scan", "--s", "1"),
                     ("check-operators", "--z", "1+2i")):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2
            assert "usage" in capsys.readouterr().err

    def test_options_nothing_reads_rejected(self, capsys, tmp_path):
        # no command takes a seed; specfun and trace write no file
        spec = ["specfun", "--mu", "0.5", "--s", "1"]
        trace = ["trace", "--mu", "0.25", "--set-a", "[1,2]",
                 "--set-b", "[0.5,1.5]"]
        out = tmp_path / "out.json"
        argvs = [[command, "--seed", "0"] for command in SURFACE]
        argvs += [spec + ["--out", str(out)], trace + ["--out", str(out)]]
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "usage" in capsys.readouterr().err
        assert not out.exists()

    def test_option_surface(self):
        # adding or removing a flag is a deliberate edit of SURFACE
        sub, = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        got = {name: sorted(s for a in p._actions for s in a.option_strings
                            if s not in ("-h", "--help"))
               for name, p in sub.choices.items()}
        assert got == SURFACE

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_built_once_and_reused(self, monkeypatch):
        from mudeform import cli
        assert cli.build_parser() is cli.build_parser()
        seen = []
        for name in ("scan", "check-operators"):
            monkeypatch.setitem(cli.COMMANDS, name,
                                lambda cfg: seen.append(cfg) or 0)
        assert main(["scan", "--mu-grid", "0.5,1", "--set-a", "[0,1]",
                     "--set-b", "[1,2]"]) == 0
        assert main(["check-operators", "--mu", "0.25", "--psi", "gauss",
                     "--n-max", "3"]) == 0
        assert main(["check-operators"]) == 0
        scan, ops, ops_default = seen
        assert (scan.command, scan.mu_grid, scan.set_a, scan.set_b) == (
            "scan", (0.5, 1.0), "[0,1]", "[1,2]")
        assert scan.mu is None and scan.n_max is None
        assert (ops.command, ops.mu, ops.psi, ops.n_max) == (
            "check-operators", 0.25, ("gauss",), 3)
        assert ops.mu_grid is None and ops.set_a is None
        # nothing carries over from the previous call on the shared parser
        assert (ops_default.mu, ops_default.n_max) == (None, None)
        assert ops_default.psi == RunConfig(command="check-operators").psi


class TestScipyFree:
    def test_runs_with_scipy_blocked(self, tmp_path):
        # every command the CLI offers, with scipy unimportable; the trace
        # command runs its quadrature cross-check, so the kernel, the
        # Legendre and the origin rules run, and specfun builds eta_mu
        script = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            import mudeform
            import mudeform.cli

            def scipy_loaded():
                return sorted(name for name, mod in sys.modules.items()
                              if name.split(".")[0] == "scipy" and mod)

            assert not scipy_loaded(), scipy_loaded()
            for argv in (["scan"],
                         ["trace", "--mu", "-0.3", "--set-a", "[1.5,6]",
                          "--set-b", "[-0.75,3]"],
                         ["check-operators"], ["verify-identities"],
                         ["specfun", "--mu", "0.5", "--s", "3"]):
                code = mudeform.cli.main(argv)
                assert code == 0, (argv, code)
            assert not scipy_loaded(), scipy_loaded()
        """)
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True,
                              env=checkout_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
