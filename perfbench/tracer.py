"""Spans around every public function of the mudeform modules, from outside.

``Tracer.install`` wraps each public module-level function and each public
non-dunder method of the classes defined in the traced modules, then
patches the wrappers into every ``mudeform`` module namespace (and
module-level dicts such as the CLI's command table) that refers to the
originals, so cross-module ``from .x import f`` calls are caught too.

A span holds its name, start, end, parent span, operation id, an optional
size (e.g. grid points) and whether it raised ``EvaluationError``.  Spans
live in flat arrays in memory and are written out once, after the pass.
Metrics are aggregated by module, so a renamed or deleted function changes
a number rather than breaking the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

MODULES = ("core", "exact", "intervals", "measure", "trace", "operators", "cli")

KERNEL = "core.exp_mu_imag_on_grid"
ETA_RULE = "core.eta_rule"
MOMENT_MP = "measure.moment_mp"
PANEL_RULE = "measure.weighted_panel_rule"
QUADRATURE = "trace.trace_quadrature"
SERIES = "trace.trace_moment_series"
EVALUATE_PAIR = "trace.evaluate_pair"
FOURIER = "operators.fourier_mu_numeric"


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.size = array("q")
        self.err = array("b")
        self.stack: list[int] = []
        self.current_op = -1
        self.estimates: list[tuple] = []   # (op, route, value, error)
        self.p_at_exact = None   # the unwrapped lru_cache, for its misses
        self.misses_at_install = 0
        self.t0 = time.perf_counter_ns()

    # --- recording -------------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        ops, sizes, errs, stack = self.op, self.size, self.err, self.stack
        clock, error_type, tracer = time.perf_counter_ns, self.error_type, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            sizes.append(0)
            errs.append(0)
            ends.append(0)
            starts.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                errs[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                sizes[idx] = after(args, result)
            return result

        return wrapper

    def _after_hooks(self):
        def kernel_points(args, result):
            return int(getattr(result, "size", 0))

        def panel_nodes(args, result):
            return len(result[0])

        def route(name):
            def capture(args, result):
                self.estimates.append((self.current_op, name, result.value,
                                       result.error_estimate))
                return 0
            return capture

        def resolved(args, result):
            return int(bool(result.sign_resolved))

        return {KERNEL: kernel_points, PANEL_RULE: panel_nodes,
                QUADRATURE: route(QUADRATURE), SERIES: route(SERIES),
                EVALUATE_PAIR: resolved}

    def install(self, package: str = "mudeform") -> None:
        """Wrap the public API of each traced module and patch every user."""
        hooks = self._after_hooks()
        self.p_at_exact = getattr(sys.modules[f"{package}.exact"], "p_at_exact", None)
        swap: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, short)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{short}.{attr}"
                    swap[id(obj)] = self._wrap(obj, name, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap:
                    setattr(mod, attr, swap[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in swap:
                            obj[key] = swap[id(value)]
        self.misses_at_install = self._p_at_exact_misses()

    def _wrap_class(self, cls, short: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, name))

    def _p_at_exact_misses(self) -> int:
        fn = self.p_at_exact
        return fn.cache_info().misses if hasattr(fn, "cache_info") else 0

    # --- output ----------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span; times in ns since install."""
        t0 = self.t0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\tsize\terror\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0}\t"
                         f"{self.end[i] - t0}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.size[i]}\t{self.err[i]}\n")

    def layer_metrics(self) -> dict:
        """Per-module and named per-layer metrics: {name: (value, unit)}."""
        n = len(self.start)
        mod_of = [MODULES.index(s.split(".")[0]) for s in self.names]
        ids = {s: i for i, s in enumerate(self.names)}
        kernel, quad, series, fourier, moment = (ids.get(k, -2) for k in (
            KERNEL, QUADRATURE, SERIES, FOURIER, MOMENT_MP))
        exact_mod = MODULES.index("exact")

        calls = [0] * len(MODULES)
        self_ns = [0] * len(MODULES)
        errors = [0] * len(MODULES)
        count = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        size = [0] * len(self.names)
        failed = [0] * len(self.names)
        in_quad = bytearray(n)
        in_series = bytearray(n)
        in_fourier = bytearray(n)
        child_ns = [0] * n
        coeff_ns = quad_levels = fourier_levels = series_moments = 0
        for i in range(n):
            nid, p = self.name[i], self.parent[i]
            dur = self.end[i] - self.start[i]
            if p >= 0:
                child_ns[p] += dur
                in_quad[i], in_series[i], in_fourier[i] = (
                    in_quad[p], in_series[p], in_fourier[p])
            if nid == quad:
                in_quad[i] = 1
            elif nid == series:
                in_series[i] = 1
            elif nid == fourier:
                in_fourier[i] = 1
            elif nid == kernel:
                quad_levels += in_quad[i]
                fourier_levels += in_fourier[i]
            elif nid == moment:
                series_moments += in_series[i]
            m = mod_of[nid]
            if (m == exact_mod and p >= 0 and in_series[p]
                    and mod_of[self.name[p]] != exact_mod):
                coeff_ns += dur
            calls[m] += 1
            errors[m] += self.err[i]
            count[nid] += 1
            total_ns[nid] += dur
            size[nid] += self.size[i]
            failed[nid] += self.err[i]
        for i in range(n):
            self_ns[mod_of[self.name[i]]] += (
                self.end[i] - self.start[i] - child_ns[i])

        def stat(name, table):
            i = ids.get(name)
            return 0 if i is None else table[i]

        kernel_s = stat(KERNEL, total_ns) / 1e9
        series_terms = series_moments // 2   # two moments (A and B) per term
        out = {
            "measure.moment_mp_calls": (stat(MOMENT_MP, count), "count"),
            "measure.moment_mp_s": (stat(MOMENT_MP, total_ns) / 1e9, "s"),
            "trace.series_terms": (series_terms, "count"),
            "trace.series_us_per_term": (
                stat(SERIES, total_ns) / 1e3 / series_terms if series_terms else 0.0,
                "us"),
            "exact.coeff_s": (coeff_ns / 1e9, "s"),
            "exact.p_at_exact_misses": (
                self._p_at_exact_misses() - self.misses_at_install, "count"),
            "core.kernel_calls": (stat(KERNEL, count), "count"),
            "core.kernel_points": (stat(KERNEL, size), "count"),
            "core.kernel_s": (kernel_s, "s"),
            "core.kernel_mpts_per_s": (
                stat(KERNEL, size) / kernel_s / 1e6 if kernel_s else 0.0, "Mpts/s"),
            "core.eta_rule_builds": (stat(ETA_RULE, count), "count"),
            "measure.panel_rule_calls": (stat(PANEL_RULE, count), "count"),
            "measure.panel_nodes": (stat(PANEL_RULE, size), "count"),
            "measure.panel_rule_s": (stat(PANEL_RULE, total_ns) / 1e9, "s"),
            "trace.quadrature_levels": (quad_levels, "count"),
            "trace.quadrature_s": (stat(QUADRATURE, total_ns) / 1e9, "s"),
            "operators.fourier_calls": (stat(FOURIER, count), "count"),
            "operators.fourier_levels": (fourier_levels, "count"),
            "operators.fourier_s": (stat(FOURIER, total_ns) / 1e9, "s"),
            "trace.quadrature_failed": (stat(QUADRATURE, failed), "count"),
            "trace.series_failed": (stat(SERIES, failed), "count"),
            "trace.resolved_rows": (stat(EVALUATE_PAIR, size), "count"),
        }
        for m, short in enumerate(MODULES):
            out[f"{short}.calls"] = (calls[m], "count")
            out[f"{short}.self_s"] = (self_ns[m] / 1e9, "s")
            out[f"{short}.errors"] = (errors[m], "count")
        return out


COUNTERS = ("measure.moment_mp_calls", "trace.series_terms",
            "exact.p_at_exact_misses", "core.kernel_calls", "core.kernel_points",
            "core.eta_rule_builds", "measure.panel_rule_calls",
            "measure.panel_nodes", "trace.quadrature_levels",
            "operators.fourier_calls", "operators.fourier_levels",
            "trace.quadrature_failed", "trace.series_failed",
            "trace.resolved_rows") + tuple(
                f"{m}.{k}" for m in MODULES for k in ("calls", "errors"))
"""Work counters that must repeat exactly for one seed (no wall times)."""
