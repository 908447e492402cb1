"""Command-line front end: evaluators, scans, and verification reports.

Commands
    specfun            evaluate exp_mu and |exp_mu(is)|^2 with diagnostics
    trace              both trace evaluators on one pair of interval sets
    scan               deviation table over a mu grid (CSV/JSON, optional SVG)
    verify-identities  exact checks of the binomial-polynomial identities
    check-operators    commutation relation, equations of motion, intertwining

Flag values override config-file values, which override defaults.  With a
fixed configuration the CSV and JSON outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from . import exact, operators
from .core import (MuContext, SeriesResult, _check_mu, eta_rule_exists,
                   even_series_result, exp_mu_integral, exp_mu_series)
from .errors import EvaluationError
from .intervals import format_interval_set, parse_interval_set
from .trace import (DEFAULT_MU_GRID, DEFAULT_PAIRS, ScanRow, deviation_scan,
                    rows_to_csv, rows_to_json, trace_moment_series,
                    trace_quadrature)

SCHEMA_VERSION = 1

# smallest accepted work budget per command: verify-identities needs at
# least one index of each kind, check-operators may stop at basis degree 0
_MIN_BUDGETS = {"verify-identities": {"k_max": 1, "n_max": 1},
                "check-operators": {"n_max": 0}}


@dataclass
class RunConfig:
    """Resolved configuration for one CLI invocation."""

    command: str
    mu: float | None = None
    mu_grid: tuple[float, ...] | None = None
    set_a: str | None = None
    set_b: str | None = None
    z: complex | None = None
    s: float | None = None
    psi: tuple[str, ...] = ("gauss", "x * gauss")
    n_max: int | None = None
    k_max: int | None = None
    kappa: Fraction = Fraction(1)
    out: str | None = None
    plot: str | None = None
    config: str | None = None
    # check-operators' psi literals, parsed once here, where a malformed
    # one is a usage error
    _gauss_polys: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.command == "check-operators":
            self._gauss_polys = tuple(map(operators.parse_gauss_poly,
                                          self.psi))
        if self.mu_grid is not None and not self.mu_grid:
            raise ValueError(f"{self.command} needs at least one mu in "
                             "mu_grid, got none")
        mus = (() if self.mu is None else (self.mu,)) + (self.mu_grid or ())
        for mu in mus:
            _check_mu(mu)
        for name, low in _MIN_BUDGETS.get(self.command, {}).items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{self.command} needs {name} >= {low}, "
                                 f"got {value}")

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            if not f.init:
                continue
            v = getattr(self, f.name)
            if isinstance(v, Fraction):
                v = str(v)
            elif isinstance(v, complex):
                v = repr(v)
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace(" ", "").replace("i", "j"))


def _parse_mu_grid(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _load_config_file(path: str) -> dict:
    raw = Path(path).read_text()
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        return json.loads(raw)
    out = {}
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key=value): {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _checked(parse):
    """A converter that checks a literal with parse and keeps its text."""
    def convert(value) -> str:
        parse(str(value))
        return str(value)
    return convert


def _fraction(value) -> Fraction:
    try:
        return Fraction(value)
    except ArithmeticError:
        raise ValueError(f"not a finite fraction: {value!r}") from None


_CONVERTERS = {
    "mu": float,
    "mu_grid": lambda v: _parse_mu_grid(v) if isinstance(v, str) else tuple(v),
    "set_a": _checked(parse_interval_set),
    "set_b": _checked(parse_interval_set),
    "z": lambda v: _parse_complex(v) if isinstance(v, str) else complex(v),
    "s": float,
    "psi": lambda v: tuple(map(str, v if isinstance(v, (list, tuple))
                               else (v,))),
    "n_max": int,
    "k_max": int,
    "kappa": _fraction,
    "out": str,
    "plot": str,
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit flags (highest wins).

    A config key must name one of the command's own flags: what the command
    would reject as a flag it rejects as a key.
    """
    merged: dict = {"command": args.command}
    if getattr(args, "config", None):
        merged["config"] = args.config
        for key, value in _load_config_file(args.config).items():
            if key in _CONVERTERS and key in vars(args):
                merged[key] = _CONVERTERS[key](value)
            elif key != "command":
                raise ValueError(
                    f"unknown config key {key!r} for {args.command}")
    for key, conv in _CONVERTERS.items():
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = conv(value)
    return RunConfig(**merged)


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real!r}{'+' if x.imag >= 0 else '-'}{abs(x.imag)!r}j"
    return repr(x)


def _series_diag(r: SeriesResult, scale: float = 1.0) -> str:
    """r's diagnostics, with both error bars multiplied by scale."""
    return (f"terms={r.terms_used} trunc_error={scale * r.trunc_error:.3e} "
            f"rounding_error={scale * r.rounding_error:.3e} bits={r.bits}")


def cmd_specfun(cfg: RunConfig) -> int:
    if cfg.mu is None:
        print("specfun requires --mu", file=sys.stderr)
        return 2
    if cfg.z is None and cfg.s is None:
        print("specfun requires --z and/or --s", file=sys.stderr)
        return 2
    ctx = MuContext(cfg.mu)
    lines = [f"mu = {_fmt(cfg.mu)}"]
    if cfg.z is not None:
        r = exp_mu_series(cfg.z, ctx)
        lines.append(f"exp_mu({_fmt(cfg.z)}):")
        lines.append(f"  series    {_fmt(r.value)}   [{_series_diag(r)}]")
        if eta_rule_exists(ctx.mu):
            try:
                lines.append(f"  integral  {_fmt(exp_mu_integral(cfg.z, ctx))}")
            except EvaluationError as err:  # |z| past the rule's nodes
                lines.append(f"  integral  left out: {err}")
    if cfg.s is not None:
        lines.append(f"|exp_mu(i*{_fmt(cfg.s)})|^2:")
        r = exp_mu_series(1j * cfg.s, ctx)
        # ||E|^2 - |E*|^2| <= (|E| + |E*|) d <= (2|E| + d) d, d = |E - E*|
        scale = 2 * abs(r.value) + r.trunc_error + r.rounding_error
        lines.append(f"  product      {_fmt(abs(r.value) ** 2)}   "
                     f"[{_series_diag(r, scale)}]")
        r = even_series_result(cfg.s, ctx)
        lines.append(f"  even_series  {_fmt(r.value.real)}   [{_series_diag(r)}]")
        if eta_rule_exists(ctx.mu):
            try:
                e = exp_mu_integral(1j * cfg.s, ctx)
            except EvaluationError as err:  # |s| past the rule's nodes
                lines.append(f"  integral     left out: {err}")
            else:
                v = e.real ** 2 + e.imag ** 2
                # the tested bar of the integral's exp_mu(is) against the
                # kernel, d = 1e-14 (1 + |s|) + 1e-12, is (2|e| + d) d on
                # v: "< 1" is printed only where 1 - v clears it
                d = 1e-14 * (1 + abs(cfg.s)) + 1e-12
                below_one = 1 - v > (2 * abs(e) + d) * d
                lines.append(f"  integral     {_fmt(v)}")
                lines.append(f"  modulus |exp_mu(is)| = {_fmt(math.sqrt(v))}"
                             + ("  < 1" if below_one else ""))
    print("\n".join(lines))
    return 0


def _sets_from_config(cfg: RunConfig):
    # a blank literal is the empty set, not an absent one
    A = parse_interval_set(cfg.set_a) if cfg.set_a is not None else None
    B = parse_interval_set(cfg.set_b) if cfg.set_b is not None else None
    return A, B


def cmd_trace(cfg: RunConfig) -> int:
    if cfg.mu is None or cfg.set_a is None or cfg.set_b is None:
        print("trace requires --mu, --set-a, --set-b", file=sys.stderr)
        return 2
    ctx = MuContext(cfg.mu)
    A, B = _sets_from_config(cfg)
    status = 0
    print(f"mu = {_fmt(cfg.mu)}  A = {A}  B = {B}")
    for name, route in (("quadrature", trace_quadrature),
                        ("moment_series", trace_moment_series)):
        try:
            est = route(A, B, ctx)
            print(f"  {name:<14} value={_fmt(est.value)} "
                  f"error={est.error_estimate:.3e} "
                  f"product={_fmt(est.product_measures)} "
                  f"deviation={_fmt(est.deviation)} "
                  f"sign_resolved={str(est.sign_resolved).lower()}")
        except EvaluationError as err:
            status = 1
            print(f"  {name:<14} FAILED: {err}")
    return status


def _write_scan_outputs(rows: list[ScanRow], cfg: RunConfig) -> None:
    if cfg.out:
        out = Path(cfg.out)
        csv_text = rows_to_csv(rows)
        json_text = rows_to_json(rows, config=cfg.echo())
        if out.suffix == ".csv":
            out.write_text(csv_text)
        elif out.suffix == ".json":
            out.write_text(json_text)
        else:
            out.with_suffix(".csv").write_text(csv_text)
            out.with_suffix(".json").write_text(json_text)
    if cfg.plot:
        write_deviation_plot(rows, cfg.plot)


def cmd_scan(cfg: RunConfig) -> int:
    grid = cfg.mu_grid if cfg.mu_grid is not None else DEFAULT_MU_GRID
    A, B = _sets_from_config(cfg)
    if (A is None) != (B is None):
        print("scan needs both --set-a and --set-b (or neither)",
              file=sys.stderr)
        return 2
    pairs = ((A, B),) if A is not None else DEFAULT_PAIRS
    rows = deviation_scan(grid, pairs)
    _write_scan_outputs(rows, cfg)
    print(f"{'mu':>8} {'A':>16} {'B':>16} {'deviation':>24} resolved")
    for r in rows:
        print(f"{r.mu:>8} {format_interval_set(r.set_a):>16} "
              f"{format_interval_set(r.set_b):>16} {r.deviation!r:>24} "
              f"{str(r.sign_resolved).lower()}"
              + (f"   note: {r.note}" if r.note else ""))
    return 1 if any(r.method == "failed" for r in rows) else 0


def cmd_verify_identities(cfg: RunConfig) -> int:
    k_max = cfg.k_max if cfg.k_max is not None else 41
    n_max = cfg.n_max if cfg.n_max is not None else 12
    checks = (exact.verify_odd_vanishing(k_max)
              + exact.verify_closed_forms(n_max))
    n_pass = sum(c.passed for c in checks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "all_passed": n_pass == len(checks),
        "checks": [c.to_dict() for c in checks],
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        print(text)
    print(f"identities: {n_pass}/{len(checks)} passed "
          f"(odd k <= {k_max}, families n <= {n_max})", file=sys.stderr)
    return 0 if payload["all_passed"] else 1


def cmd_check_operators(cfg: RunConfig) -> int:
    n_max = cfg.n_max if cfg.n_max is not None else 10
    mu = cfg.mu if cfg.mu is not None else 0.5
    ctx = MuContext(mu)
    kappa = cfg.kappa
    expected_failure = kappa != 1

    ccr = []
    for n in range(n_max + 1):
        residual = operators.ccr_residual(operators.GaussPoly.basis(n), kappa)
        ccr.append({"basis": n, "residual_zero": residual.is_zero})
    ccr_ok = all(c["residual_zero"] for c in ccr)

    psis = list(zip(cfg.psi, cfg._gauss_polys))
    eom_entries = []
    for text, psi in psis:
        rep = operators.eom_residuals(psi, kappa=kappa)
        c1, c2 = rep.fitted_as_complex()
        eom_entries.append({
            "psi": text,
            "printed_form_residual_zero": rep.residuals_vanish,
            "fitted_c1": None if c1 is None else _fmt(c1),
            "fitted_c2": None if c2 is None else _fmt(c2),
        })

    k_points = np.linspace(-3.0, 3.0, 25)
    intertwining = []
    for text, psi in psis:
        try:
            gap = operators.intertwining_check(psi, k_points, ctx,
                                               kappa=kappa)
            intertwining.append({"psi": text, "mu": mu,
                                 "max_discrepancy": gap})
        except EvaluationError as err:
            intertwining.append({"psi": text, "mu": mu, "error": str(err)})

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kappa": str(kappa),
        "expected_failure_mode": expected_failure,
        "ccr": ccr,
        "ccr_all_zero": ccr_ok,
        "equations_of_motion": eom_entries,
        "intertwining": intertwining,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        print(text)
    if expected_failure:
        print(f"kappa={kappa}: commutation-relation failure "
              f"{'demonstrated' if not ccr_ok else 'NOT demonstrated'} "
              "(expected-failure mode)", file=sys.stderr)
        return 0
    return 0 if ccr_ok else 1


_PAIR_COLORS = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
                "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
_SHADE = "#ff7f0e"


def _svg(tag: str, text: str | None = None, **attrs) -> str:
    """One SVG element; floats at fixed precision, ``a_b`` names as ``a-b``."""
    body = " ".join(
        f'{k.replace("_", "-")}="{f"{v:.2f}" if isinstance(v, float) else v}"'
        for k, v in attrs.items())
    return f"<{tag} {body}/>" if text is None else f"<{tag} {body}>{text}</{tag}>"


def _svg_star(cx: float, cy: float, r: float) -> str:
    points = " ".join(
        f"{cx + rad * math.sin(k * math.pi / 5):.2f},"
        f"{cy - rad * math.cos(k * math.pi / 5):.2f}"
        for k, rad in enumerate([r, 0.4 * r] * 5))
    return _svg("polygon", points=points, fill="black")


def _axis_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    pad = 0.05 * (hi - lo) or 0.5
    return lo - pad, hi + pad


def write_deviation_plot(rows: list[ScanRow], path: str) -> None:
    """Deviation vs mu as a static SVG; equality at mu=0 marked, the
    negative-mu conjecture region shaded.

    One polyline per (A, B) pair over its finite deviations; failed rows
    (deviation nan) are left out.  The axes always include (0, 0).
    Coordinates are printed at fixed precision and nothing time-dependent
    is written, so the same rows give byte-identical files.
    """
    # imported here: saxutils pulls in urllib.request and ssl, which every
    # other command would otherwise pay for at startup
    from xml.sax.saxutils import escape

    width, height = 720, 450
    x0, x1, y0, y1 = 70.0, 480.0, 20.0, 400.0  # plot box, y grows downward
    curves: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for r in rows:
        pts = curves.setdefault(
            (format_interval_set(r.set_a), format_interval_set(r.set_b)), [])
        if math.isfinite(r.deviation):
            pts.append((r.mu, r.deviation))
    mus = [0.0] + [r.mu for r in rows]
    devs = [0.0] + [y for pts in curves.values() for _, y in pts]
    x_lo, x_hi = _axis_range(mus)
    y_lo, y_hi = _axis_range(devs)

    def px(x: float) -> float:
        return x0 + (x - x_lo) / (x_hi - x_lo) * (x1 - x0)

    def py(y: float) -> float:
        return y1 - (y - y_lo) / (y_hi - y_lo) * (y1 - y0)

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}" '
           'font-family="sans-serif" font-size="11">',
           _svg("rect", x=0, y=0, width=width, height=height, fill="white")]
    legend = []  # (marker drawn at a legend row's (x, y), label)
    if min(mus) < 0:
        out.append(_svg("rect", x=px(min(mus)), y=y0,
                        width=px(0.0) - px(min(mus)), height=y1 - y0,
                        fill=_SHADE, fill_opacity=0.12))
        legend.append((lambda x, y: _svg(
            "rect", x=x, y=y - 4, width=16, height=8, fill=_SHADE,
            fill_opacity=0.12), escape("conjectured deviation > 0")))
    out += [_svg("line", x1=x0, y1=py(0.0), x2=x1, y2=py(0.0),
                 stroke="gray", stroke_width=0.8),
            _svg("line", x1=px(0.0), y1=y0, x2=px(0.0), y2=y1,
                 stroke="gray", stroke_width=0.8, stroke_dasharray="4 3"),
            _svg("rect", x=x0, y=y0, width=x1 - x0, height=y1 - y0,
                 fill="none", stroke="black")]
    out += [_svg("text", f"{v:.3g}", x=px(v), y=y1 + 14, text_anchor="middle")
            for v in sorted({min(mus), 0.0, max(mus)})]
    out += [_svg("text", f"{v:.3g}", x=x0 - 4, y=py(v) + 4, text_anchor="end")
            for v in sorted({min(devs), 0.0, max(devs)})]
    out += [_svg("text", "mu", x=(x0 + x1) / 2, y=y1 + 36,
                 text_anchor="middle"),
            _svg("text", "trace - product of measures", x=16.0,
                 y=(y0 + y1) / 2, text_anchor="middle",
                 transform=f"rotate(-90 16 {(y0 + y1) / 2:.2f})")]
    for i, ((a_text, b_text), pts) in enumerate(sorted(curves.items())):
        color = _PAIR_COLORS[i % len(_PAIR_COLORS)]
        pts.sort()
        out.append(_svg("polyline", fill="none", stroke=color,
                        points=" ".join(f"{px(x):.2f},{py(y):.2f}"
                                        for x, y in pts)))
        out += [_svg("circle", cx=px(x), cy=py(y), r=2, fill=color)
                for x, y in pts]
        legend.append((lambda x, y, color=color: _svg(
            "line", x1=x, y1=y, x2=x + 16, y2=y, stroke=color),
            escape(f"A={a_text}, B={b_text}")))
    out.append(_svg_star(px(0.0), py(0.0), 7.0))
    legend.append((lambda x, y: _svg_star(x + 8, y, 5.0), "equality at mu=0"))
    for j, (marker, label) in enumerate(legend):
        y = y0 + 10 + 16 * j
        out += [marker(x1 + 14, y),
                _svg("text", label, x=x1 + 36, y=y + 4)]
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    is, so every main() call shares it."""
    parser = argparse.ArgumentParser(
        prog="mudeform",
        description="mu-deformed quantum mechanics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (key=value or JSON)")

    p = sub.add_parser("specfun", help="evaluate deformed special functions")
    common(p)
    p.add_argument("--mu", type=float)
    p.add_argument("--z", help="complex argument, e.g. '1+2i'")
    p.add_argument("--s", type=float, help="evaluate |exp_mu(i s)|^2")

    p = sub.add_parser("trace", help="trace of E^Q(A) E^P(B) on one pair")
    common(p)
    p.add_argument("--mu", type=float)
    p.add_argument("--set-a", dest="set_a", help='e.g. "[1,2]" or "[0,1]+[2,3]"')
    p.add_argument("--set-b", dest="set_b")

    p = sub.add_parser("scan", help="deviation scan over a mu grid")
    common(p)
    p.add_argument("--out", help="write the CSV and JSON here (by suffix)")
    p.add_argument("--mu-grid", dest="mu_grid",
                   help="comma-separated mu values")
    p.add_argument("--set-a", dest="set_a")
    p.add_argument("--set-b", dest="set_b")
    p.add_argument("--plot", help="write an SVG deviation plot here")

    p = sub.add_parser("verify-identities",
                       help="exact binomial-polynomial identity checks")
    common(p)
    p.add_argument("--out", help="write the JSON report here, not to stdout")
    p.add_argument("--k-max", dest="k_max", type=int,
                   help="check odd vanishing for k <= k_max (default 41)")
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="check closed forms for n <= n_max (default 12)")

    p = sub.add_parser("check-operators",
                       help="commutation relation / EOM / intertwining")
    common(p)
    p.add_argument("--out", help="write the JSON report here, not to stdout")
    p.add_argument("--mu", type=float, help="mu for the numeric checks")
    p.add_argument("--kappa", help="reflection-term coefficient (default 1)")
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="basis degree for the exact checks (default 10)")
    p.add_argument("--psi", action="append",
                   help='gauss-poly literal, e.g. "(1 + 2x^3) * gauss"; '
                        "repeatable")
    return parser


COMMANDS = {
    "specfun": cmd_specfun,
    "trace": cmd_trace,
    "scan": cmd_scan,
    "verify-identities": cmd_verify_identities,
    "check-operators": cmd_check_operators,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[cfg.command](cfg)
    except (ValueError, EvaluationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
