"""Multi-exponential decay fitting and its analytic derivatives."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdclum.analysis import extract_time_trace
from spdclum.emission import make_model
from spdclum.fitting import (
    DecayDesign,
    DecayFit,
    FitComponent,
    ShortTraceError,
    decay_independence_report,
    fit_multiexp,
    least_squares,
    nnls_supports,
)
from spdclum.synth import synthesize, time_grid

EPS = np.finfo(float).eps


def _single_tau_trace(seed=9, exposure=20000):
    model = make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,),
                       spdc_rate_hz=0.0)
    img = synthesize(model, None, time_grid(-2.0, 8.0, 0.05),
                     exposure=exposure, seed=seed)
    return extract_time_trace(img, (300.0, 700.0))


def _two_tau_trace(seed=1, exposure=20000):
    model = make_model(amplitudes=(0.7, 0.3), lifetimes_ns=(1850.0, 9950.0),
                       spdc_rate_hz=0.0, repetition_rate_hz=10.0)
    img = synthesize(model, None, time_grid(0.0, 50000.0, 50.0),
                     exposure=exposure, seed=seed)
    return extract_time_trace(img, (300.0, 700.0))


def test_gradient_matches_central_differences():
    # analytic objective gradient vs Richardson-extrapolated central
    # differences, 1e-6 relative, at 10 random points around the truth
    t, y = _two_tau_trace()
    design = DecayDesign(t, y, 2, irf_fwhm_ns=100.0, baseline_mode="free",
                         fit_t0=True, fit_irf=True)
    a_scale = y.max()

    def central(i, theta, h):
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        return (design.objective(tp) - design.objective(tm)) / (2.0 * h)

    rng = np.random.default_rng(20260817)
    for _ in range(10):
        theta = np.array([
            rng.uniform(0.0, 3.0),
            rng.uniform(-30.0, 30.0),
            a_scale * 0.7 * rng.uniform(0.5, 2.0),
            a_scale * 0.3 * rng.uniform(0.5, 2.0),
            1850.0 * rng.uniform(0.5, 2.0),
            9950.0 * rng.uniform(0.5, 2.0),
            100.0 * rng.uniform(0.5, 2.0),
        ])
        f0 = design.objective(theta)
        grad = design.gradient(theta)
        for i in range(theta.size):
            # step large enough that the objective difference clears the
            # cancellation floor, small enough that O(h^4) stays negligible
            scale = max(abs(theta[i]), 1.0)
            h = max(6e-6 * scale, 2e-7 * f0 / max(abs(grad[i]), 1e-300))
            h = min(h, 0.05 * scale)
            d1 = central(i, theta, h)
            d2 = central(i, theta, h / 2.0)
            num = (4.0 * d2 - d1) / 3.0
            rel = abs(num - grad[i]) / max(abs(num), abs(grad[i]))
            assert rel <= 1e-6, (i, theta[i], num, grad[i], rel)


def test_jacobian_matches_residual_differences():
    # every valid switch combination, from a bare fit (sigma = 0, as in the
    # two-lifetime tail fits) to one that fits t0 and the IRF width too
    t, y = _single_tau_trace()
    t2, y2 = _two_tau_trace()
    tail = t2 >= 150.0
    traces = {"irf": (t, y), "bare": (t2[tail], y2[tail])}
    taus_by_n = {"irf": {1: (0.5,), 2: (0.3, 1.5), 3: (0.2, 0.8, 3.0)},
                 "bare": {1: (3000.0,), 2: (1000.0, 8000.0),
                          3: (500.0, 2000.0, 8000.0)}}
    cases = 0
    for n, baseline, irf in itertools.product(
            (1, 2, 3), ("free", "zero"),
            [None, *itertools.product((True, False), repeat=2)]):
        kind = "bare" if irf is None else "irf"
        switches = ({} if irf is None else
                    dict(irf_fwhm_ns=0.15, fit_t0=irf[0], fit_irf=irf[1]))
        design = DecayDesign(*traces[kind], n, baseline_mode=baseline,
                             **switches)
        case = (n, baseline, switches)
        lo, hi = design.bounds()
        assert lo.shape == hi.shape == (design.n_params,), case
        # every seeded start has one entry per fitted parameter, in bounds
        thetas, _ = design._seeds(design.start_lifetimes())
        assert thetas.shape[1] == design.n_params, case
        assert np.all((lo <= thetas) & (thetas <= hi)), case
        taus = taus_by_n[kind][n]
        theta = design.best_start([taus])
        assert np.all((lo <= theta) & (theta <= hi)), case
        assert np.array_equal(design._split(theta)[3], taus), case
        jac = design.jacobian(theta)
        assert jac.shape == (design.t.size, design.n_params), case
        for i in range(theta.size):
            # the model is an antiderivative difference, so too small a step
            # drowns the quotient in cancellation noise; 1e-4 keeps
            # truncation near 1e-8 relative while clearing that floor
            h = 1e-4 * max(abs(theta[i]), 1.0)
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            col = (design.residuals(tp) - design.residuals(tm)) / (2.0 * h)
            assert np.allclose(col, jac[:, i], rtol=1e-4,
                               atol=1e-8 * np.abs(col).max()), (case, i)
        cases += 1
    assert cases == 30


def test_single_lifetime_recovery():
    t, y = _single_tau_trace()
    fit = fit_multiexp(t, y, 1, irf_fwhm_ns=0.15)
    assert fit.converged
    assert not fit.flags
    assert fit.components[0].lifetime_ns == pytest.approx(0.73, rel=0.03)
    assert abs(fit.t0_ns) < 0.05
    assert 0.5 < fit.reduced_chi_square < 2.0


def test_two_lifetime_recovery():
    t, y = _two_tau_trace()
    keep = t >= 150.0
    fit = fit_multiexp(t[keep], y[keep], 2)
    assert fit.converged
    taus = fit.lifetimes_ns
    assert taus[0] == pytest.approx(1850.0, rel=0.07)
    assert taus[1] == pytest.approx(9950.0, rel=0.07)
    assert taus == tuple(sorted(taus))


def test_error_shrinks_with_counts():
    # median lifetime error over 20 seeds must fall as the photon budget
    # grows by two decades
    medians = []
    for exposure in (2, 20, 200):
        errs = []
        for seed in range(20):
            t, y = _single_tau_trace(seed=100 + seed, exposure=exposure * 1000)
            fit = fit_multiexp(t, y, 1, irf_fwhm_ns=0.15)
            errs.append(abs(fit.components[0].lifetime_ns - 0.73) / 0.73)
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]
    assert medians[2] < 0.01


def test_fit_scale_equivariance():
    t, y = _single_tau_trace()
    y = y + 5  # keep every bin >= 1 so integer scaling is exact on weights
    k = 7
    a = fit_multiexp(t, y, 1, irf_fwhm_ns=0.15)
    b = fit_multiexp(t, y * k, 1, irf_fwhm_ns=0.15)
    assert b.components[0].lifetime_ns == pytest.approx(
        a.components[0].lifetime_ns, rel=1e-6)
    assert b.components[0].amplitude == pytest.approx(
        k * a.components[0].amplitude, rel=1e-6)
    assert b.baseline == pytest.approx(k * a.baseline, rel=1e-6)
    assert b.t0_ns == pytest.approx(a.t0_ns, abs=1e-6)


def test_overfit_is_detectable():
    # two components forced onto single-lifetime data: either the fit is
    # flagged outright or the surplus component is reported insignificant
    for seed in (9, 10, 11):
        t, y = _single_tau_trace(seed=seed)
        fit = fit_multiexp(t, y, 2, irf_fwhm_ns=0.15)
        weakest = max(c.amplitude_rel_sigma for c in fit.components)
        assert fit.flags or weakest > 1.0, (seed, fit.flags, weakest)


def test_baseline_zero_mode():
    t, y = _single_tau_trace()
    fit = fit_multiexp(t, y, 1, irf_fwhm_ns=0.15, baseline_mode="zero")
    assert fit.baseline == 0.0
    assert fit.converged
    assert fit.components[0].lifetime_ns == pytest.approx(0.73, rel=0.03)


def test_bare_exponential_mode():
    t, y = _two_tau_trace()
    keep = t >= 150.0
    fit = fit_multiexp(t[keep], y[keep], 2, irf_fwhm_ns=None)
    assert fit.irf_fwhm_ns is None
    assert fit.t0_ns == 0.0


def test_design_validation():
    t, y = _single_tau_trace()
    with pytest.raises(ValueError):
        DecayDesign(t, y[:-1], 1)
    with pytest.raises(ValueError):
        DecayDesign(t, y, 4)
    with pytest.raises(ValueError):
        DecayDesign(t, y, 1, baseline_mode="fixed")
    with pytest.raises(ValueError):
        DecayDesign(t, y, 1, irf_fwhm_ns=-0.1)
    with pytest.raises(ValueError):
        DecayDesign(t, y, 1, irf_fwhm_ns=None, fit_t0=True)
    with pytest.raises(ValueError, match="t0 can only be fitted"):
        DecayDesign(t, y, 1, irf_fwhm_ns=0.0, fit_t0=True)
    with pytest.raises(ValueError):
        DecayDesign(t, y, 1, irf_fwhm_ns=None, fit_irf=True)
    with pytest.raises(ShortTraceError, match="trace too short"):
        DecayDesign(t[:4], y[:4], 1)
    with pytest.raises(ValueError):
        DecayDesign(t[::-1], y, 1)
    # a non-finite pulse arrival or IRF width is refused, not fitted (NaN
    # times would zero the bare kernel and "converge")
    tt = np.arange(50) * 0.1
    yy = 1000.0 * np.exp(-tt) + 5.0
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t0 must be finite"):
            fit_multiexp(tt, yy, 1, t0_ns=bad)
        with pytest.raises(ValueError, match="IRF FWHM must be nonnegative "
                                             "and finite"):
            fit_multiexp(tt, yy, 1, irf_fwhm_ns=bad)


def test_zero_irf_fits_like_no_irf():
    # a zero IRF width is the bare-exponential fit with t0 fixed
    t, y = _single_tau_trace()
    bare = fit_multiexp(t, y, 1)
    zero = fit_multiexp(t, y, 1, irf_fwhm_ns=0.0)
    assert zero.irf_fwhm_ns == 0.0
    for name in DecayFit.__dataclass_fields__:
        if name == "irf_fwhm_ns":
            continue
        a, b = getattr(bare, name), getattr(zero, name)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


@pytest.mark.parametrize("where", ["t", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_inputs_rejected(where, bad):
    # a NaN time passes the increasing-axis test, since NaN compares false,
    # and used to come back as a NaN lifetime flagged not-converged
    t, y = _single_tau_trace()
    t, y = t.copy(), y.astype(float)
    {"t": t, "y": y}[where][5] = bad
    with pytest.raises(ValueError, match="finite"):
        DecayDesign(t, y, 1)
    with pytest.raises(ValueError, match="finite"):
        fit_multiexp(t, y, 1)


def test_fit_reports_uncertainties():
    t, y = _single_tau_trace()
    fit = fit_multiexp(t, y, 1, irf_fwhm_ns=0.15)
    comp = fit.components[0]
    assert 0.0 < comp.lifetime_rel_sigma < 0.05
    assert 0.0 < comp.amplitude_rel_sigma < 0.05
    assert fit.residual_trace.shape == t.shape
    assert fit.n_starts >= 2


def test_ranked_start_matches_multistart():
    # reference: refine every start of the lifetime grid and keep the
    # lowest cost, as a multi-start ladder would; the one refined start must
    # reach that optimum
    from scipy.optimize import least_squares

    t2, y2 = _two_tau_trace()
    tail = t2 >= 150.0
    cases = ((*_single_tau_trace(), 1, 0.15), (t2[tail], y2[tail], 2, None))
    for t, y, n, irf in cases:
        fit = fit_multiexp(t, y, n, irf_fwhm_ns=irf)
        design = DecayDesign(t, y, n, irf_fwhm_ns=irf)
        lo, hi = design.bounds()
        ladder = [least_squares(design.residuals,
                                np.clip(design.best_start([taus]), lo, hi),
                                jac=design.jacobian, bounds=(lo, hi),
                                method="trf", x_scale="jac",
                                max_nfev=300 * design.n_params)
                  for taus in design.start_lifetimes()]
        best = min(ladder, key=lambda r: r.cost)
        assert fit.n_starts == len(ladder)
        assert fit.cost <= best.cost * (1.0 + 1e-8), (n, fit.cost, best.cost)
        ladder_taus = np.sort(design._split(best.x)[3])
        np.testing.assert_allclose(fit.lifetimes_ns, ladder_taus, rtol=1e-6)


def _criterion_tail_traces():
    # the two-lifetime tail traces of criteria 6b (seeds 0-19) and 7
    grid = time_grid(0.0, 50_000.0, 50.0)
    models = [(make_model(amplitudes=(0.7, 0.3), lifetimes_ns=(1850.0, 9950.0),
                          spdc_rate_hz=0.0, repetition_rate_hz=10.0), seed)
              for seed in range(20)]
    models += [(make_model(pump, amplitudes=(0.7, 0.3),
                           lifetimes_ns=(1850.0, 9950.0),
                           repetition_rate_hz=10.0), seed)
               for pump, seed in zip((250.0, 260.0, 267.0, 280.0),
                                     (104, 105, 106, 107))]
    for model, seed in models:
        img = synthesize(model, None, grid, exposure=400, seed=seed)
        t, y = extract_time_trace(img, (350.0, 510.0))
        yield t[t >= 150.0], y[t >= 150.0]


def test_start_grid_is_geomspace_bit_for_bit():
    # the lifetime grid skips np.geomspace's overhead, not its arithmetic
    from spdclum.fitting import _geomspace

    rng = np.random.default_rng(20261020)
    for _ in range(2000):
        lo = 10.0 ** rng.uniform(-12.0, 6.0)
        hi = lo * 10.0 ** rng.uniform(-3.0, 8.0)
        num = int(rng.integers(2, 12))
        for a, b in ((lo, hi), (lo, lo), (np.float64(lo), np.float64(hi))):
            assert (_geomspace(a, b, num).tobytes()
                    == np.geomspace(a, b, num).tobytes()), (a, b, num)


def test_gram_ranked_start_matches_residual_ranking():
    # the seeds are ranked from the Gram matrix; the reference ranks them by
    # the objective of their residual vectors
    for t, y in _criterion_tail_traces():
        design = DecayDesign(t, y, 2)
        starts = design.start_lifetimes()
        thetas, objectives = design._seeds(starts)
        reference = np.array([design.objective(theta) for theta in thetas])
        best = int(np.argmin(reference))
        assert int(np.argmin(objectives)) == best
        assert np.array_equal(design.best_start(starts), thetas[best])
        np.testing.assert_allclose(objectives, reference, rtol=1e-9)


def test_one_nonlinear_solve_per_fit(monkeypatch):
    from spdclum import fitting

    calls = []
    real = fitting.least_squares

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fitting, "least_squares", counting)
    t, y = _two_tau_trace()
    tail = t >= 150.0
    fit = fit_multiexp(t[tail], y[tail], 2)
    assert len(calls) == 1
    assert fit.n_starts == 21


@pytest.mark.parametrize("irf", [None, 0.15])
def test_all_zero_trace_is_flagged(irf):
    t = time_grid(-2.0, 8.0, 0.05)
    fit = fit_multiexp(t, np.zeros_like(t), 1, irf_fwhm_ns=irf)
    assert "no-counts" in fit.flags


def _assert_nnls_matches_scipy(a, b, x=None):
    # x defaults to the one-support solve over all of a's columns
    from scipy.optimize import nnls as scipy_nnls

    if x is None:
        x = nnls_supports(a, b, np.arange(a.shape[1])[None])[0]
    rnorm = float(np.linalg.norm(a @ x - b))
    ref, ref_norm = scipy_nnls(a, b)
    assert np.all(x >= 0.0)
    scale = np.abs(ref).max(initial=0.0)
    np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-10 * scale)
    assert rnorm == pytest.approx(ref_norm, rel=1e-10, abs=1e-300)
    return x, rnorm


def test_nnls_matches_scipy_on_random_problems():
    # one to four columns, the whole domain of nnls_supports
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        m = int(rng.integers(4, 60))
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((m, n))
        if rng.random() < 0.5:
            a = np.abs(a)
        _assert_nnls_matches_scipy(a, rng.standard_normal(m))


@pytest.mark.parametrize("case", ["zero-column", "duplicate-columns",
                                  "negative-target"])
def test_nnls_degenerate_problems(case):
    rng = np.random.default_rng(7)
    a = rng.random((30, 3))
    b = a @ np.array([1.0, 0.5, 2.0]) + 0.01 * rng.standard_normal(30)
    if case == "zero-column":
        a = np.column_stack([a[:, :1], np.zeros(30), a[:, 1:]])
    elif case == "duplicate-columns":
        a = np.column_stack([a, a[:, 1]])
    else:
        b = -np.abs(b)
    x, rnorm = _assert_nnls_matches_scipy(a, b)
    if case == "negative-target":
        assert np.all(x == 0.0)
        assert rnorm == pytest.approx(np.linalg.norm(b), rel=1e-14)


@pytest.mark.parametrize("kernel", ["Prescott", "Sandybridge", "Haswell"])
def test_nnls_degenerate_problems_on_blas_kernels(kernel):
    """The degenerate cases above under one OpenBLAS kernel.

    OpenBLAS reads OPENBLAS_CORETYPE when it loads, so each kernel gets its
    own interpreter.  Where NumPy's BLAS is not DYNAMIC_ARCH OpenBLAS the
    variable is ignored and every run repeats the default kernel: the test
    is then vacuous.
    """
    here = Path(__file__).resolve().parent
    code = ("import test_fitting as t\n"
            "for case in ('zero-column', 'duplicate-columns', "
            "'negative-target'):\n"
            "    t.test_nnls_degenerate_problems(case)\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], cwd=here,
        env=dict(os.environ, OPENBLAS_CORETYPE=kernel,
                 PYTHONPATH=str(here.parent / "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_nnls_matches_scipy_on_seed_problems(monkeypatch):
    # the amplitude-and-baseline seeds of the criterion-6 fits, one problem
    # per start, with the solutions the fits used
    from spdclum import fitting

    problems = []

    def recording(a, b, supports):
        x = nnls_supports(a, b, supports)
        problems.extend((a[:, s], b, row) for s, row in zip(supports, x))
        return x

    monkeypatch.setattr(fitting, "nnls_supports", recording)
    model_a = make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,),
                         spdc_rate_hz=0.0)
    model_b = make_model(amplitudes=(0.7, 0.3), lifetimes_ns=(1850.0, 9950.0),
                         spdc_rate_hz=0.0, repetition_rate_hz=10.0)
    for seed in (0, 1):
        img = synthesize(model_a, None, time_grid(-2.0, 8.0, 0.05),
                         exposure=150_000, seed=seed)
        fit_multiexp(*extract_time_trace(img, (474.0, 594.0)), 1,
                     irf_fwhm_ns=0.15)
        img = synthesize(model_b, None, time_grid(0.0, 50_000.0, 50.0),
                         exposure=400, seed=seed)
        t, y = extract_time_trace(img, (350.0, 510.0))
        fit_multiexp(t[t >= 150.0], y[t >= 150.0], 2)
    assert len(problems) == 2 * (10 + 21)
    for a, b, x in problems:
        _assert_nnls_matches_scipy(a, b, x)


def test_least_squares_bounds_and_budget():
    # the unconstrained optimum has a negative offset: the projected solve
    # leaves the offset exactly on its zero bound and matches SciPy's
    # bounded solver on the rest
    from scipy.optimize import least_squares as scipy_least_squares

    t = np.linspace(0.0, 5.0, 40)
    y = 3.0 * np.exp(-t / 1.3) - 0.2 + 0.01 * np.sin(7.0 * t)

    def fun(p):
        return p[0] + p[1] * np.exp(-t / p[2]) - y

    def jac(p):
        e = np.exp(-t / p[2])
        return np.column_stack([np.ones_like(t), e, p[1] * e * t / p[2]**2])

    bounds = (np.array([0.0, 0.0, 0.01]), np.array([np.inf, np.inf, 100.0]))
    x0 = np.array([0.5, 1.0, 1.0])
    res = least_squares(fun, x0, jac, bounds, max_nfev=900)
    ref = scipy_least_squares(fun, x0, jac=jac, bounds=bounds, method="trf",
                              x_scale="jac", max_nfev=900)
    assert res.status > 0
    assert res.x[0] == 0.0
    assert res.cost <= ref.cost * (1.0 + 1e-8)
    np.testing.assert_allclose(res.x[1:], ref.x[1:], rtol=1e-6)
    assert res.cost == 0.5 * float(fun(res.x) @ fun(res.x))
    stopped = least_squares(fun, x0, jac, bounds, max_nfev=2)
    assert stopped.status == 0
    assert stopped.nfev == 2
    assert stopped.cost < 0.5 * float(fun(x0) @ fun(x0))


_T = time_grid(-2.0, 8.0, 0.05)


def _spike(height):
    y = np.zeros_like(_T)
    y[60] = height
    return y


_PATHOLOGICAL = {
    "zeros": np.zeros_like(_T),
    "constant": np.full_like(_T, 10.0),
    "spike": _spike(1000.0),
    "negative": -1000.0 * np.exp(-_T),
    "huge": 1e300 * np.exp(-_T),
    "tiny": 1e-300 * np.exp(-_T),
    "overflow-spike": _spike(1e300),
    "overflow-exp": 1e308 * np.exp(-np.abs(_T)),
}


@pytest.mark.parametrize("irf", [None, 0.15], ids=["bare", "irf"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", list(_PATHOLOGICAL))
def test_pathological_trace_fits_without_raising(name, n, irf):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_multiexp(_T, _PATHOLOGICAL[name], n, irf_fwhm_ns=irf)
    assert len(fit.components) == n
    assert fit.converged == ("not-converged" not in fit.flags)


@pytest.mark.parametrize("name", ["overflow-spike", "overflow-exp"])
def test_overflowing_trace_is_not_converged(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_multiexp(_T, _PATHOLOGICAL[name], 1)
    assert not fit.converged
    assert "not-converged" in fit.flags
    comp = fit.components[0]
    assert math.isnan(comp.lifetime_rel_sigma)
    assert math.isnan(comp.amplitude_rel_sigma)


def test_baseline_on_its_zero_bound():
    # the projected solve leaves the baseline exactly at zero, so its
    # relative sigma is infinite rather than a quotient of rounding noise
    model = make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,),
                       spdc_rate_hz=0.0)
    img = synthesize(model, None, time_grid(-2.0, 8.0, 0.05), exposure=20000,
                     seed=3)
    t, y = extract_time_trace(img, (514.0, 554.0))
    fit = fit_multiexp(t, y, 1, irf_fwhm_ns=0.15)
    assert fit.baseline == 0.0
    assert math.isinf(fit.baseline_rel_sigma)


def _made_fit(taus, rel_sigmas):
    comps = tuple(FitComponent(100.0, tau, 0.01, rel)
                  for tau, rel in zip(taus, rel_sigmas))
    return DecayFit(components=comps, baseline=0.0, baseline_rel_sigma=0.0,
                    t0_ns=0.0, t0_sigma_ns=0.0, irf_fwhm_ns=None,
                    reduced_chi_square=1.0, converged=True, flags=(),
                    residual_trace=np.zeros(8), n_starts=1, cost=0.0)


def test_independence_report_agreement():
    fits = {
        250.0: _made_fit((1800.0, 9900.0), (0.05, 0.05)),
        267.0: _made_fit((1850.0, 10000.0), (0.05, 0.05)),
        280.0: _made_fit((1900.0, 9800.0), (0.05, 0.05)),
    }
    report = decay_independence_report(fits)
    assert report.keys == (250.0, 267.0, 280.0)
    assert report.all_agree
    assert all(c.agree for c in report.components)


def test_independence_report_disagreement():
    fits = {
        250.0: _made_fit((1800.0,), (0.001,)),
        267.0: _made_fit((2100.0,), (0.001,)),
    }
    report = decay_independence_report(fits)
    assert not report.all_agree
    assert not report.components[0].agree


def test_independence_report_validation():
    one = {250.0: _made_fit((1800.0,), (0.1,))}
    with pytest.raises(ValueError):
        decay_independence_report(one)
    mixed = {
        250.0: _made_fit((1800.0,), (0.1,)),
        267.0: _made_fit((1800.0, 9900.0), (0.1, 0.1)),
    }
    with pytest.raises(ValueError):
        decay_independence_report(mixed)


def test_undetermined_lifetime_reports_inf():
    # a second component forced onto single-lifetime data fits with zero
    # amplitude, so nothing determines its lifetime: the Jacobian's column
    # for it vanishes and its sigma must read inf, not pinv's zero
    model = make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,),
                       spdc_rate_hz=0.0)
    img = synthesize(model, None, time_grid(-2.0, 8.0, 0.05), exposure=20000,
                     seed=3)
    t, y = extract_time_trace(img, (514.0, 554.0))
    fit = fit_multiexp(t, y, 2, irf_fwhm_ns=0.15)
    assert "ill-conditioned" in fit.flags
    empty, kept = fit.components
    assert empty.amplitude == 0.0
    assert math.isinf(empty.lifetime_rel_sigma)
    # the determined component keeps finite uncertainties
    assert 0.0 < kept.lifetime_rel_sigma < 0.1
    assert 0.0 < kept.amplitude_rel_sigma < 0.1


def test_merged_overfit_keeps_t0_and_baseline_sigmas():
    # two components forced onto single-lifetime data over a flat background
    # merge into one lifetime: the amplitudes split along a null direction of
    # J^T J and read inf, while t0 and the baseline, which carry only
    # rounding weight along it, keep finite sigmas
    t, y = _single_tau_trace(seed=1)
    fit = fit_multiexp(t, y + 5, 2, irf_fwhm_ns=0.15)
    assert "ill-conditioned" in fit.flags
    assert fit.lifetimes_ns[1] == pytest.approx(fit.lifetimes_ns[0], rel=1e-3)
    assert all(math.isinf(c.amplitude_rel_sigma) for c in fit.components)
    assert 0.0 < fit.baseline_rel_sigma < 0.1
    assert 0.0 < fit.t0_sigma_ns < 0.001


def test_lifetime_on_its_bound_reports_inf():
    # the pair line's prompt peak in the 514-554 nm band pulls one lifetime
    # onto tau_lo; the curvature there is one-sided, so its sigma reads inf
    img = synthesize(make_model(), None, time_grid(-2.0, 8.0, 0.05),
                     exposure=100000, seed=0)
    t, y = extract_time_trace(img, (514.0, 554.0))
    for n in (1, 2):
        fit = fit_multiexp(t, y, n, irf_fwhm_ns=0.15)
        assert "at-bound" in fit.flags
        pinned, *rest = fit.components
        assert pinned.lifetime_ns == pytest.approx(0.05 * 0.05, rel=1e-3)
        assert math.isinf(pinned.lifetime_rel_sigma)
        for comp in rest:
            assert 0.0 < comp.lifetime_rel_sigma < 1.0


@pytest.mark.parametrize("case", ["irf", "bare-2c", "fit-irf",
                                  "zero-baseline", "three-component"])
def test_one_kernel_evaluation_per_parameter_point(monkeypatch, case):
    # the solver calls residuals then jacobian at each accepted point, and
    # the packaging calls jacobian then model at the optimum: each distinct
    # (t0, taus, sigma) costs one gradient call, the start ranking one CDF
    from spdclum import kernels

    grad_keys, cdf_calls = [], []
    real_grad, real_cdf = (kernels.exp_conv_gauss_cdf_grad,
                           kernels.exp_conv_gauss_cdf)

    def grad(t, tau, sigma):
        grad_keys.append((np.asarray(t).tobytes(),
                          np.asarray(tau).tobytes(), float(sigma)))
        return real_grad(t, tau, sigma)

    def cdf(*args, **kwargs):
        cdf_calls.append(1)
        return real_cdf(*args, **kwargs)

    if case == "bare-2c":
        t, y = _two_tau_trace()
        tail = t >= 150.0
        args, kwargs = (t[tail], y[tail], 2), {}
    else:
        t, y = _single_tau_trace()
        n, kwargs = {"irf": (1, {}), "fit-irf": (2, {"fit_irf": True}),
                     "zero-baseline": (1, {"baseline_mode": "zero"}),
                     "three-component": (3, {})}[case]
        args = (t, y, n, 0.15)
    monkeypatch.setattr(kernels, "exp_conv_gauss_cdf_grad", grad)
    monkeypatch.setattr(kernels, "exp_conv_gauss_cdf", cdf)
    fit = fit_multiexp(*args, **kwargs)
    assert fit.converged
    assert len(cdf_calls) == 1
    assert len(grad_keys) >= 2
    assert len(grad_keys) == len(set(grad_keys))


def _memo_cases():
    t, y = _single_tau_trace()
    t2, y2 = _two_tau_trace()
    tail = t2 >= 150.0
    return {
        "fit-t0": (lambda: DecayDesign(t, y, 1, irf_fwhm_ns=0.15), (0.5,)),
        "fit-irf": (lambda: DecayDesign(t, y, 2, irf_fwhm_ns=0.15,
                                        fit_irf=True), (0.3, 1.0)),
        "bare": (lambda: DecayDesign(t2[tail], y2[tail], 2),
                 (1000.0, 8000.0)),
        "zero-baseline": (lambda: DecayDesign(t, y, 1, irf_fwhm_ns=0.15,
                                              baseline_mode="zero"), (0.5,)),
    }


@pytest.mark.parametrize("case", ["fit-t0", "fit-irf", "bare",
                                  "zero-baseline"])
def test_kernel_memo_never_serves_a_stale_point(case):
    # interleave model, residuals and jacobian at theta1, at theta1 with one
    # parameter moved, and at theta1 again: every result must equal a fresh
    # design's, so the memo key covers t0, every lifetime and the IRF width
    make, taus = _memo_cases()[case]
    design = make()
    theta1 = design.best_start([taus])
    for i in range(theta1.size):
        theta2 = theta1.copy()
        theta2[i] = theta1[i] * 1.01 + 1e-3
        for theta in (theta1, theta2, theta1):
            for method in ("residuals", "jacobian", "model", "jacobian",
                           "residuals"):
                got = getattr(design, method)(theta)
                want = getattr(make(), method)(theta)
                assert np.array_equal(got, want), (case, i, method)


def _solve_free(fun, x0, jac, max_nfev=500):
    # unbounded, under the overflow guard fit_multiexp solves in
    x0 = np.asarray(x0, dtype=float)
    free = (np.full(x0.size, -np.inf), np.full(x0.size, np.inf))
    with np.errstate(over="ignore", invalid="ignore"):
        return least_squares(fun, x0, jac, free, max_nfev)


def _assert_stopped_at(res, fun):
    # status 0 at the last accepted point
    assert res.status == 0
    assert np.all(np.isfinite(res.x))
    assert res.cost == 0.5 * float(fun(res.x) @ fun(res.x))


def test_least_squares_stops_on_a_nonfinite_jacobian():
    def fun(x):
        return np.array([x[0] - 3.0])

    def jac(x):
        return np.array([[1.0 if x[0] == 0.0 else np.nan]])

    res = _solve_free(fun, [0.0], jac)
    # one step was accepted; the Jacobian there ends the solve
    _assert_stopped_at(res, fun)
    assert res.nfev == 2
    assert res.x[0] == pytest.approx(3.0, rel=1e-2)
    assert np.isnan(jac(res.x)).all()


def test_least_squares_stops_on_a_nonfinite_trial_cost():
    # the Jacobian doubles the slope, so each step goes half way; the
    # residual is infinite from x = 2 on, where the second step lands
    def fun(x):
        return np.array([x[0] - 3.0 if x[0] < 2.0 else np.inf])

    res = _solve_free(fun, [0.0], lambda x: np.array([[2.0]]))
    _assert_stopped_at(res, fun)
    assert res.nfev == 3
    assert res.x[0] == pytest.approx(1.5, rel=1e-2)


def test_least_squares_stops_on_a_nonfinite_step():
    # J^T J overflows, so the scaled system and the step are NaN
    def fun(x):
        return np.array([x[0] + x[1] - 3.0])

    res = _solve_free(fun, [0.0, 0.0], lambda x: np.array([[1e200, 1.0]]))
    _assert_stopped_at(res, fun)
    assert res.nfev == 1
    assert res.x.tolist() == [0.0, 0.0]


def test_least_squares_stops_on_a_singular_step_system(monkeypatch):
    # identical Jacobian columns, steeper than the residual: every step is
    # a good one, so the damping falls below rounding relative to the unit
    # diagonal and the step system becomes exactly singular
    refused = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            refused.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording_solve)

    def fun(x):
        return np.array([0.8 * (x[0] + x[1])])

    x0 = [5e9, 5e9]
    res = _solve_free(fun, x0, lambda x: np.array([[1.0, 1.0]]))
    assert len(refused) == 1
    _assert_stopped_at(res, fun)
    assert res.nfev < 500
    assert res.cost < 1e-30 * 0.5 * float(fun(x0) @ fun(x0))
