"""Spans and counters for the traced run.

The traced run wraps public functions of the spdclum package at their
module-attribute boundaries for the length of one replay and restores the
originals afterwards; the program's source is never touched.  Every wrapped
call becomes a span (name, start, end, parent, session).  Spans stay in
memory and are written out when the run ends.

The fit counters (residual and Jacobian evaluations, least-squares starts,
kernel CDF calls) are pure counts, so for a fixed seed they repeat exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

# a start "reaches the winning cost" when its final cost is within this
# relative distance of the winner's; converged starts on one optimum agree
# far closer than this, distinct local optima differ far more
_YIELD_REL = 1e-6
# session id of the probe session, which times layers a workload never calls
PROBE_SESSION = "probe"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at the top
    session: str
    work: float = 0.0       # bins, bytes or windows, depending on the span

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class FitCounts:
    session: str
    n_components: int
    starts: int = 0
    residual_evals: int = 0
    jacobian_evals: int = 0
    cdf_calls: int = 0
    start_costs: list = field(default_factory=list)
    winning_cost: float = float("nan")

    @property
    def start_yield(self) -> float:
        tol = abs(self.winning_cost) * _YIELD_REL
        hits = sum(c <= self.winning_cost + tol for c in self.start_costs)
        return hits / max(self.starts, 1)


def _file_bytes(path) -> float:
    return float(os.path.getsize(path))


# (module, attribute, span name, work(args, result)) for every layer call
# the traced run records; fit_multiexp is handled apart to name 1c/2c fits
_SPAN_POINTS = (
    ("config", "resolve_config", "config.resolve", None),
    ("emission", "make_model", "emission.make_model", None),
    ("synth", "expected_counts", "synth.expected_counts", None),
    ("synth", "synthesize", "synth.synthesize",
     lambda args, res: float(res.counts.size)),
    ("streak", "write_streak_csv", "streak.write",
     lambda args, res: _file_bytes(args[1])),
    ("streak", "read_streak_csv", "streak.read",
     lambda args, res: _file_bytes(args[0])),
    ("analysis", "separate_counts", "analysis.separate_counts", None),
    ("analysis", "extract_time_trace", "analysis.extract_time_trace", None),
    ("herald", "monte_carlo_herald", "herald.monte_carlo",
     lambda args, res: float(res.n_windows)),
    ("filters", "run_scenarios", "filters.run_scenarios", None),
)


class Tracer:
    """Records spans and fit counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fits: list[FitCounts] = []
        self.session = ""
        self._stack: list[int] = []
        self._fit: FitCounts | None = None
        self._patches: list | None = None

    # -- span recording ------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.session))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name, work_fn):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if work_fn is not None:
                self.spans[index].work = work_fn(args, result)
            return result
        return wrapper

    def _fit_wrapper(self, fn):
        def wrapper(time_ns, counts, n_components, *args, **kwargs):
            outer, self._fit = self._fit, FitCounts(self.session,
                                                    int(n_components))
            index = self._open(f"fitting.fit_{int(n_components)}c")
            try:
                result = fn(time_ns, counts, n_components, *args, **kwargs)
                self._fit.winning_cost = result.cost
                self.fits.append(self._fit)
                return result
            finally:
                self._close(index)
                self._fit = outer
        return wrapper

    def _counting(self, fn, attr):
        def wrapper(*args, **kwargs):
            fit = self._fit
            if fit is not None:
                setattr(fit, attr, getattr(fit, attr) + 1)
            result = fn(*args, **kwargs)
            if fit is not None and attr == "starts":
                fit.start_costs.append(float(result.cost))
            return result
        return wrapper

    # -- installing wrappers -------------------------------------------
    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every wrapped name.

        A function is wrapped under every spdclum module attribute bound to
        it, so calls through any import path are seen."""
        import spdclum.fitting as fitting
        import spdclum.kernels as kernels

        modules = [m for name, m in sys.modules.items()
                   if name == "spdclum" or name.startswith("spdclum.")]

        def everywhere(original, wrapper):
            return [(m, attr, original, wrapper) for m in modules
                    for attr, value in vars(m).items() if value is original]

        out = []
        for module_name, attr, name, work_fn in _SPAN_POINTS:
            original = getattr(sys.modules[f"spdclum.{module_name}"], attr)
            out += everywhere(original,
                              self._spanned(original, name, work_fn))
        out += everywhere(fitting.fit_multiexp,
                          self._fit_wrapper(fitting.fit_multiexp))
        for owner, attr, counter in (
                (fitting.DecayDesign, "residuals", "residual_evals"),
                (fitting.DecayDesign, "jacobian", "jacobian_evals"),
                (fitting, "least_squares", "starts"),
                (kernels, "exp_conv_gauss_cdf", "cdf_calls")):
            original = getattr(owner, attr)
            out.append((owner, attr, original,
                        self._counting(original, counter)))
        return out

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._bindings()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- reduction -------------------------------------------------------
    def self_seconds_by_layer(self, sessions) -> dict[str, float]:
        """Span time not covered by child spans, summed per layer (the
        span name up to its first dot)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span.session in sessions:
                layer = span.name.split(".")[0]
                out[layer] = out.get(layer, 0.0) + span.seconds - child[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "fits": [dict(asdict(f), start_yield=f.start_yield)
                                for f in self.fits]}, fh)


def _mean_seconds(spans) -> float:
    return statistics.fmean(s.seconds for s in spans)


def _rate(spans, scale=1.0) -> float:
    return sum(s.work for s in spans) * scale / sum(s.seconds for s in spans)


# per-layer metric -> (unit, span name, reduction over the matching spans)
SPAN_METRICS = {
    "config.resolve_s": ("s", "config.resolve", _mean_seconds),
    "cli.synth_s": ("s", "cli.synth", _mean_seconds),
    "cli.analyze_s": ("s", "cli.analyze", _mean_seconds),
    "cli.fit_s": ("s", "cli.fit", _mean_seconds),
    "cli.herald_s": ("s", "cli.herald", _mean_seconds),
    "cli.scenario_s": ("s", "cli.scenario", _mean_seconds),
    "emission.make_model_s": ("s", "emission.make_model", _mean_seconds),
    "synth.expected_counts_s": ("s", "synth.expected_counts", _mean_seconds),
    "synth.synthesize_s": ("s", "synth.synthesize", _mean_seconds),
    "synth.bins_per_s": ("bins/s", "synth.synthesize", _rate),
    "streak.write_s": ("s", "streak.write", _mean_seconds),
    "streak.read_s": ("s", "streak.read", _mean_seconds),
    "streak.write_mb_per_s": ("MB/s", "streak.write",
                              lambda spans: _rate(spans, 1e-6)),
    "streak.read_mb_per_s": ("MB/s", "streak.read",
                             lambda spans: _rate(spans, 1e-6)),
    "streak.csv_mb": ("MB", "streak.write",
                      lambda spans: statistics.fmean(s.work for s in spans)
                      * 1e-6),
    "analysis.separate_counts_s": ("s", "analysis.separate_counts",
                                   _mean_seconds),
    "analysis.extract_time_trace_s": ("s", "analysis.extract_time_trace",
                                      _mean_seconds),
    "fitting.fit_1c_s": ("s", "fitting.fit_1c", _mean_seconds),
    "fitting.fit_2c_s": ("s", "fitting.fit_2c", _mean_seconds),
    "herald.monte_carlo_s": ("s", "herald.monte_carlo", _mean_seconds),
    "herald.windows_per_s": ("windows/s", "herald.monte_carlo", _rate),
    "filters.run_scenarios_s": ("s", "filters.run_scenarios", _mean_seconds),
}


def span_metrics(tracer: Tracer, sessions):
    """Per-layer metrics from the workload's own spans.

    A layer the workload never calls is measured on the probe sessions
    instead, so every metric exists on every workload; those names are
    returned in the second value.
    """
    values, probed = {}, []
    for metric, (unit, name, reduce) in SPAN_METRICS.items():
        spans = [s for s in tracer.spans
                 if s.name == name and s.session in sessions]
        if not spans:
            spans = [s for s in tracer.spans
                     if s.name == name and s.session == PROBE_SESSION]
            probed.append(metric)
        values[metric] = (reduce(spans), unit)
    return values, probed


def fit_counter_metrics(tracer: Tracer, sessions):
    """Counters per fit over the fits of the given sessions."""
    fits = [f for f in tracer.fits if f.session in sessions]
    n = len(fits)
    return {
        "fitting.starts_per_fit": (sum(f.starts for f in fits) / n, "count"),
        "fitting.residual_evals_per_fit":
            (sum(f.residual_evals for f in fits) / n, "count"),
        "fitting.jacobian_evals_per_fit":
            (sum(f.jacobian_evals for f in fits) / n, "count"),
        "fitting.start_yield":
            (statistics.fmean(f.start_yield for f in fits), "ratio"),
        "kernels.cdf_calls_per_fit": (sum(f.cdf_calls for f in fits) / n,
                                      "count"),
    }
