"""The paper-repro workload: the published numbers, in process.

One pass reproduces acceptance criteria 4, 6 and 7 and the Table-1
scenarios: 20 single-lifetime IRF fits and 20 two-lifetime tail fits
(criterion 6), the pair-line width, 4 pump-condition fits with
decay_independence_report (criterion 7), the 5x5 Monte Carlo grid at 1e7
windows per cell (criterion 4), and the table from demos/table.cfg
(criteria 1-2).  Tolerances are those of tests/test_acceptance.py and are
pass/fail checks, not compared numbers.

Criterion 6 draws its 40 images from the workload seed.  Criteria 4 and 7
test every single draw (|z| <= 3 per cell, +-1 sigma overlap), which fresh
draws fail a calculable fraction of the time, so like the acceptance gate
they run its frozen seeds.

The steps of the criteria are interleaved evenly over the pass.  Machine
speed drifts over seconds on a shared host; interleaving spreads every kind
of step over the whole run, so each kind's timings average the drift
instead of sampling one stretch of it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

import common
import tracing
from cli_workloads import check_table_rows


@dataclass
class Step:
    kind: str            # "fit", "mc" or "other"
    seconds: float
    error: str | None


@dataclass
class Pass:
    steps: list[Step] = field(default_factory=list)
    checks: list[tuple[str, str | None]] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def op_seconds(self) -> list[float]:
        return [s.seconds for s in self.steps]

    @property
    def fit_seconds(self) -> list[float]:
        return [s.seconds for s in self.steps if s.kind == "fit"]

    @property
    def errors(self) -> list[str | None]:
        return [s.error for s in self.steps] + [e for _, e in self.checks]


# Each criterion returns (steps, checks): steps are (kind, fn) with fn()
# returning an error or None; checks are (name, fn) run after all steps.

def _criterion_6a(seeds):
    from spdclum import analysis, emission, fitting, synth
    model = emission.make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,),
                                spdc_rate_hz=0.0)
    grid = synth.time_grid(-2.0, 8.0, 0.05)
    errs = []

    def one(seed):
        img = synth.synthesize(model, time_grid=grid, exposure=150_000,
                               seed=seed)
        t, y = analysis.extract_time_trace(img, (474.0, 594.0))
        if y.sum() < 1_000_000:
            return f"seed {seed}: {y.sum()} counts < 1e6"
        fit = fitting.fit_multiexp(t, y, 1, irf_fwhm_ns=0.15)
        errs.append(abs(fit.components[0].lifetime_ns - 0.73) / 0.73)
        return None

    def check():
        med = float(np.median(errs)) if errs else float("inf")
        return None if med <= 0.07 else f"median rel err {med:.4f} > 0.07"

    return ([("fit", lambda s=s: one(s)) for s in seeds],
            [("criterion 6a", check)])


def criterion_6b_trace(seed: int):
    """The two-lifetime tail trace of criterion 6b for one seed, with the
    image's total counts."""
    from spdclum import analysis, emission, synth
    model = emission.make_model(amplitudes=(0.7, 0.3),
                                lifetimes_ns=(1850.0, 9950.0),
                                spdc_rate_hz=0.0, repetition_rate_hz=10.0)
    grid = synth.time_grid(0.0, 50_000.0, 50.0)
    img = synth.synthesize(model, time_grid=grid, exposure=400, seed=seed)
    t, y = analysis.extract_time_trace(img, (350.0, 510.0))
    sel = t >= 150.0
    return t[sel], y[sel], int(y.sum())


def _criterion_6b(seeds):
    from spdclum import fitting
    errs_mid, errs_slow = [], []

    def one(seed):
        t, y, total = criterion_6b_trace(seed)
        if total < 1_000_000:
            return f"seed {seed}: {total} counts < 1e6"
        fit = fitting.fit_multiexp(t, y, 2)
        taus = sorted(c.lifetime_ns for c in fit.components)
        errs_mid.append(abs(taus[0] - 1850.0) / 1850.0)
        errs_slow.append(abs(taus[1] - 9950.0) / 9950.0)
        return None

    def check():
        worst = max(float(np.median(errs_mid or [np.inf])),
                    float(np.median(errs_slow or [np.inf])))
        return (None if worst <= 0.07
                else f"median rel err {worst:.4f} > 0.07")

    return ([("fit", lambda s=s: one(s)) for s in seeds],
            [("criterion 6b", check)])


def _pair_line_width(seed: int):
    from spdclum import analysis, emission, synth

    def one():
        model = emission.make_model(lum_rate_hz=0.0)
        img = synth.synthesize(model,
                               time_grid=synth.time_grid(-2.0, 8.0, 0.05),
                               exposure=150_000, seed=seed)
        t, y = analysis.extract_time_trace(img, (524.0, 544.0))
        fwhm = analysis.trace_fwhm(t, y)
        return None if abs(fwhm - 0.15) <= 0.05 else f"pair FWHM {fwhm}"

    return [("other", one)], []


def _criterion_7():
    from spdclum import analysis, emission, fitting, synth
    grid = synth.time_grid(0.0, 50_000.0, 50.0)
    fits = {}

    def one(pump, seed):
        model = emission.make_model(pump, amplitudes=(0.7, 0.3),
                                    lifetimes_ns=(1850.0, 9950.0),
                                    repetition_rate_hz=10.0)
        img = synth.synthesize(model, time_grid=grid, exposure=400, seed=seed)
        t, y = analysis.extract_time_trace(img, (350.0, 510.0))
        sel = t >= 150.0
        fits[pump] = fitting.fit_multiexp(t[sel], y[sel], 2)
        return None

    def report():
        agree = fitting.decay_independence_report(fits).all_agree
        return None if agree else "lifetimes disagree across pumps"

    steps = [("fit", lambda p=p, s=s: one(p, s))
             for p, s in zip((250.0, 260.0, 267.0, 280.0),
                             (104, 105, 106, 107))]
    return steps + [("other", report)], []


def _criterion_4():
    from spdclum import herald
    window_ns = 10.0

    def one(i, j, p_s, p_l):
        params = herald.HeraldParams(spdc_rate_hz=p_s / (window_ns * 1e-9),
                                     lum_rate_hz=p_l / (window_ns * 1e-9),
                                     window_ns=window_ns)
        mc = herald.monte_carlo_herald(params, 10_000_000,
                                       seed=40 + 5 * i + j)
        exact = herald.outcome_probabilities(p_s, p_l).fidelity
        z = abs(mc.fidelity_hat - exact) / mc.fidelity_se
        return None if z <= 3.0 else f"cell ({i}, {j}): |z| = {z:.2f} > 3"

    grid = np.logspace(-4, -2, 5)
    return [("mc", lambda i=i, j=j: one(i, j, grid[i], grid[j]))
            for i in range(5) for j in range(5)], []


def _table():
    from spdclum import config, filters

    def one():
        cfg = config.resolve_config(common.TABLE_CONFIG)
        rows = filters.run_scenarios(
            cfg.build_model(), cfg.build_chain(), cfg.build_scenarios(),
            window_ns=cfg.get("scenario.window_ns"),
            spdc_rate_hz=cfg.get("scenario.spdc_rate_hz"))
        return check_table_rows([(r.snr, r.f_exact, ";".join(r.flags),
                                  ";".join(r.notes)) for r in rows])

    return [("other", one)], []


def _interleave(groups):
    """Merge step lists so each is spread evenly over the whole, keeping
    every list's own order."""
    keyed = [((i + 0.5) / len(steps), g, step)
             for g, steps in enumerate(groups) for i, step in enumerate(steps)]
    return [step for _, _, step in sorted(keyed, key=lambda k: k[:2])]


def _call(fn):
    return fn()


def _run(criteria, run_step=_call) -> Pass:
    """Run the criteria's steps interleaved, each through run_step(fn),
    which returns the step's error; then their checks."""
    rec = Pass()
    start = time.perf_counter()
    for kind, fn in _interleave([steps for steps, _ in criteria]):
        t0 = time.perf_counter()
        error = run_step(fn)
        rec.steps.append(Step(kind, time.perf_counter() - t0, error))
    rec.checks = [(name, fn()) for _, checks in criteria
                  for name, fn in checks]
    rec.seconds = time.perf_counter() - start
    return rec


def run_pass(seed: int, index: int, run_step=_call) -> Pass:
    """One pass over the criteria; inputs drawn from (seed, index).  Every
    step may run more than once through run_step: steps are idempotent,
    and the accuracy checks take medians over repeated equal results."""
    rng = random.Random(f"paper-repro:{seed}:{index}")
    seeds = [rng.randrange(2**31) for _ in range(41)]
    return _run([_criterion_6a(seeds[:20]), _criterion_6b(seeds[20:40]),
                 _pair_line_width(seeds[40]), _criterion_7(),
                 _criterion_4(), _table()], run_step)


def warm_up() -> float:
    """First calls into fitting, herald and filters, which load what the
    import left lazy; returns their wall time."""
    from spdclum import herald
    start = time.perf_counter()
    _run([_criterion_6a([0]), _table()])
    herald.monte_carlo_herald(herald.HeraldParams(1e5, 6.036e4, 10.0),
                              1_000_000, seed=0)
    return time.perf_counter() - start


def probe_2c_fit(tracer, seed: int) -> None:
    """One traced criterion-6b fit, tagged "probe", for the workloads that
    run no two-lifetime fit."""
    from spdclum import fitting
    t, y, _ = criterion_6b_trace(seed)
    tracer.session = tracing.PROBE_SESSION
    with tracer.installed():
        fitting.fit_multiexp(t, y, 2)
