"""Spans around the calls into each leakexp layer, recorded from outside the program.

`Tracer.install` replaces module attributes with timing wrappers: the names
`leakexp.cli` imported from the library, and the names `leakexp.leakage`
calls through its own globals. Spans stay in memory; `write` dumps them as
JSON lines and `per_layer` derives the per-layer metrics from them.
"""
from __future__ import annotations

import inspect
import json
import resource
import statistics
import time
from dataclasses import asdict, dataclass

CURVE_KINDS = ("er-general", "er-bec", "er-bsc", "ex-bec", "ex-bsc-reduction")

# (module, attribute, span name); leakexp.cli.main is the root of each CLI call.
_TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_matrix", "gf2.parse_matrix"),
    ("cli", "random_matrix", "gf2.random_matrix"),
    ("cli", "best_matrix_search", "leakage.best_matrix_search"),
    ("cli", "exact_leakage_bec", "leakage.exact_leakage_bec"),
    ("cli", "exact_leakage_bsc", "leakage.exact_leakage_bsc"),
    ("cli", "p_ml_erasure", "leakage.p_ml_erasure"),
    ("cli", "mc_p_ml_erasure", "leakage.mc_p_ml_erasure"),
    ("cli", "curve", "exponents.curve"),
    ("cli", "critical_rate", "exponents.critical_rate"),
    ("cli", "expurgation_rate", "exponents.expurgation_rate"),
    ("leakage", "exact_leakage_bec", "leakage.exact_leakage_bec"),
    ("leakage", "exact_leakage_bsc", "leakage.exact_leakage_bsc"),
    ("leakage", "p_ml_erasure", "leakage.p_ml_erasure"),
    ("leakage", "random_matrix", "gf2.random_matrix"),
    ("leakage", "rank", "gf2.rank"),
)

# Spans that count work units: the argument that holds the count.
_UNITS = {"leakage.mc_p_ml_erasure": "samples", "exponents.curve": "steps"}
# Spans that also read resource usage: pool workers' CPU, peak-RSS growth.
_CHILD_CPU = {"leakage.exact_leakage_bec"}
_RSS = {"leakage.exact_leakage_bsc"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    units: int = 0  # Monte Carlo samples or curve points
    kind: str = ""  # curve kind
    child_cpu_ms: float = 0.0
    rss_growth_mb: float = 0.0


def _children_cpu_ms() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (ru.ru_utime + ru.ru_stime) * 1e3


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job)
            if name in _UNITS:
                bound = signature.bind(*args, **kwargs).arguments
                span.units = int(bound[_UNITS[name]])
                span.kind = bound.get("kind", "")
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            cpu0 = _children_cpu_ms() if name in _CHILD_CPU else 0.0
            rss0 = _maxrss_mb() if name in _RSS else 0.0
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if name in _CHILD_CPU:
                    span.child_cpu_ms = _children_cpu_ms() - cpu0
                if name in _RSS:
                    span.rss_growth_mb = _maxrss_mb() - rss0

        return traced

    def install(self, modules: dict[str, object]) -> None:
        for mod_key, attr, name in _TARGETS:
            mod = modules[mod_key]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")

    def per_layer(self, jobs: list[str], job_ms: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the spans of `jobs` (probes are left out)."""
        wanted = set(jobs)
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        ops = max(1, len(jobs))

        def named(name):
            return [(i, s) for i, s in enumerate(self.spans)
                    if s.name == name and s.job in wanted]

        def total_ms(group):
            return sum(s.end - s.start for _, s in group) * 1e3

        def self_ms(group):
            return sum(s.end - s.start - covered[i] for i, s in group) * 1e3

        def per_call(value, group):
            return value / len(group) if group else 0.0

        bec = named("leakage.exact_leakage_bec")
        pml = named("leakage.p_ml_erasure")
        bsc = named("leakage.exact_leakage_bsc")
        mc = named("leakage.mc_p_ml_erasure")
        curves = named("exponents.curve")
        mc_s = total_ms(mc) / 1e3
        out = {
            "cli.self_ms_per_op": (self_ms(named("cli.main")) / ops, "ms"),
            "gf2.rank.calls_per_op": (len(named("gf2.rank")) / ops, "count"),
            "gf2.random_matrix.calls_per_op": (len(named("gf2.random_matrix")) / ops, "count"),
            "gf2.parse_matrix.ms_per_op": (total_ms(named("gf2.parse_matrix")) / ops, "ms"),
            "leakage.best_matrix_search.ms_per_op": (
                total_ms(named("leakage.best_matrix_search")) / ops, "ms"),
            "leakage.exact_leakage_bec.calls_per_op": (len(bec) / ops, "count"),
            "leakage.exact_leakage_bec.self_ms_per_call": (per_call(self_ms(bec), bec), "ms"),
            "leakage.exact_leakage_bec.child_cpu_ms_per_call": (
                per_call(sum(s.child_cpu_ms for _, s in bec), bec), "ms"),
            "leakage.p_ml_erasure.calls_per_op": (len(pml) / ops, "count"),
            "leakage.p_ml_erasure.ms_per_call": (per_call(total_ms(pml), pml), "ms"),
            "leakage.exact_leakage_bsc.calls_per_op": (len(bsc) / ops, "count"),
            "leakage.exact_leakage_bsc.ms_per_call": (per_call(total_ms(bsc), bsc), "ms"),
            "leakage.exact_leakage_bsc.rss_growth_mb": (sum(s.rss_growth_mb for _, s in bsc), "MB"),
            "leakage.mc_p_ml_erasure.samples_per_s": (
                sum(s.units for _, s in mc) / mc_s if mc_s > 0 else 0.0, "1/s"),
            "exponents.curve.calls_per_op": (len(curves) / ops, "count"),
        }
        for kind in CURVE_KINDS:
            group = [(i, s) for i, s in curves if s.kind == kind]
            points = sum(s.units for _, s in group)
            out[f"exponents.curve.{kind}.ms_per_point"] = (
                total_ms(group) / points if points else 0.0, "ms")
        out["trace.op_p50_ms"] = (statistics.median(job_ms) if job_ms else 0.0, "ms")
        return out
