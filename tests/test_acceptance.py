"""Acceptance gate: one test per criterion, one printed line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion pass lines.  Each test states its tolerance inline and keeps
its runtime budget as an assertion, so a regression in speed fails loudly
instead of silently eating the budget.
"""

import itertools
import time

import numpy as np
import pytest

from spdclum import analysis, emission, filters, fitting, herald, synth
from spdclum.fitting import DecayDesign


def _report(n, text):
    print(f"criterion {n}: PASS  {text}")


def _table_results():
    model = emission.make_model()
    chain = filters.FilterChain()
    specs = [
        filters.ScenarioSpec("no filtering", 2.225e10, 1.343e10,
                             reference_snr=1.657),
        filters.ScenarioSpec("spectral filtering", 2.225e10, 0.489e10,
                             reference_snr=4.450),
        filters.ScenarioSpec("spectral and time filtering", 2.225e10,
                             0.024e10, reference_snr=96.572),
    ]
    return filters.run_scenarios(model, chain, specs)


def test_criterion_1_reference_counts_row_one():
    row = _table_results()[0]
    assert abs(row.snr - 1.657) <= 0.001
    assert abs(row.f_exact - 0.624) <= 0.002
    assert not row.flagged
    _report(1, f"SNR={row.snr:.5f} (1.657+-0.001), "
               f"F={row.f_exact:.5f} (0.624+-0.002)")


def test_criterion_2_reference_counts_rows_two_three():
    rows = _table_results()
    assert abs(rows[1].f_exact - 0.820) <= 0.005
    assert abs(rows[2].f_exact - 0.990) <= 0.002
    # the published SNR next to these counts does not equal their quotient;
    # the report must say so rather than swallow it
    for row in rows[1:]:
        assert any("reference SNR" in note for note in row.notes)
        assert not row.flagged
    _report(2, f"F={rows[1].f_exact:.5f} (0.820+-0.005), "
               f"F={rows[2].f_exact:.5f} (0.990+-0.002); "
               "reference-SNR discrepancy surfaced in notes")


def test_criterion_3_window_probability_and_guard():
    p = herald.pair_probability(100e3, 10.0)
    assert p == 1e-3
    with pytest.raises(ValueError):
        herald.pair_probability(100e3, 10000.0)   # P = 0.1 > 0.05
    _report(3, "P_S(100 kHz, 10 ns) = 1e-3 exactly; P > 0.05 rejected")


def test_criterion_4_monte_carlo_matches_analytic():
    start = time.monotonic()
    window_ns = 10.0
    worst = 0.0
    for i, p_s in enumerate(np.logspace(-4, -2, 5)):
        for j, p_l in enumerate(np.logspace(-4, -2, 5)):
            params = herald.HeraldParams(
                spdc_rate_hz=p_s / (window_ns * 1e-9),
                lum_rate_hz=p_l / (window_ns * 1e-9),
                window_ns=window_ns)
            mc = herald.monte_carlo_herald(params, 10_000_000,
                                           seed=40 + 5 * i + j)
            exact = herald.outcome_probabilities(p_s, p_l).fidelity
            z = abs(mc.fidelity_hat - exact) / mc.fidelity_se
            assert z <= 3.0, (p_s, p_l, mc.fidelity_hat, exact, z)
            worst = max(worst, z)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"5x5 grid, 1e7 windows each: worst |z| = {worst:.2f} "
               f"(<= 3 SE), {elapsed:.1f} s")


def test_criterion_5_approximation_within_window_probability():
    rng = np.random.default_rng(20260817)
    window_ns = 10.0
    checked = 0
    worst = 0.0
    while checked < 1000:
        snr = 10.0 ** rng.uniform(-2.0, 3.0)
        p_s = 10.0 ** rng.uniform(-4.0, np.log10(0.05))
        rate = p_s / (window_ns * 1e-9)
        est = herald.fidelity_from_snr(snr, window_ns, rate)
        if est.flagged:
            continue            # outside the model's validity (SNR < P_S)
        gap = abs(est.f_approx - est.f_exact)
        assert gap <= p_s + 1e-15, (snr, p_s, gap)
        worst = max(worst, gap / p_s)
        checked += 1
    _report(5, f"1000 valid draws: |F_approx - F_exact| <= t_w R_S "
               f"(worst ratio {worst:.3f})")


def test_criterion_6_fit_recovery_round_trip():
    start = time.monotonic()

    # (a) single lifetime 0.73 ns under a 0.15 ns response, 10 ns window
    model_a = emission.make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,),
                                  spdc_rate_hz=0.0)
    grid_a = synth.time_grid(-2.0, 8.0, 0.05)
    errs_a = []
    for seed in range(20):
        img = synth.synthesize(model_a, time_grid=grid_a, exposure=150_000,
                               seed=seed)
        t, y = analysis.extract_time_trace(img, (474.0, 594.0))
        assert y.sum() >= 1_000_000
        fit = fitting.fit_multiexp(t, y, 1, irf_fwhm_ns=0.15)
        errs_a.append(abs(fit.components[0].lifetime_ns - 0.73) / 0.73)
    med_a = float(np.median(errs_a))
    assert med_a <= 0.07

    # (b) two lifetimes 1850 / 9950 ns, 50 us window, tail-only fit
    model_b = emission.make_model(amplitudes=(0.7, 0.3),
                                  lifetimes_ns=(1850.0, 9950.0),
                                  spdc_rate_hz=0.0, repetition_rate_hz=10.0)
    grid_b = synth.time_grid(0.0, 50_000.0, 50.0)
    errs_mid, errs_slow = [], []
    for seed in range(20):
        img = synth.synthesize(model_b, time_grid=grid_b, exposure=400,
                               seed=seed)
        t, y = analysis.extract_time_trace(img, (350.0, 510.0))
        assert y.sum() >= 1_000_000
        sel = t >= 150.0
        fit = fitting.fit_multiexp(t[sel], y[sel], 2)
        taus = sorted(c.lifetime_ns for c in fit.components)
        errs_mid.append(abs(taus[0] - 1850.0) / 1850.0)
        errs_slow.append(abs(taus[1] - 9950.0) / 9950.0)
    med_mid = float(np.median(errs_mid))
    med_slow = float(np.median(errs_slow))
    assert med_mid <= 0.07 and med_slow <= 0.07

    # the prompt pair line is response-limited: its width is the IRF width
    model_c = emission.make_model(lum_rate_hz=0.0)
    img = synth.synthesize(model_c, time_grid=grid_a, exposure=150_000,
                           seed=3)
    t, y = analysis.extract_time_trace(img, (524.0, 544.0))
    fwhm = analysis.trace_fwhm(t, y)
    assert abs(fwhm - 0.15) <= 0.05   # within one time bin

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(6, f"20 seeds, >=1e6 counts: median rel err {med_a:.4f} "
               f"(0.73 ns), {med_mid:.4f} (1850 ns), {med_slow:.4f} "
               f"(9950 ns), all <= 0.07; pair-line FWHM {fwhm:.3f} ns vs "
               f"IRF 0.15 within one bin; {elapsed:.1f} s")


def test_criterion_7_lifetimes_independent_of_pump():
    start = time.monotonic()
    grid = synth.time_grid(0.0, 50_000.0, 50.0)
    fits = {}
    # fixed seeds: the +-1 sigma overlap rule rejects identical-truth data
    # a calculable fraction of the time, so the gate runs a frozen draw
    for pump, seed in zip((250.0, 260.0, 267.0, 280.0), (104, 105, 106, 107)):
        model = emission.make_model(pump, amplitudes=(0.7, 0.3),
                                    lifetimes_ns=(1850.0, 9950.0),
                                    repetition_rate_hz=10.0)
        img = synth.synthesize(model, time_grid=grid, exposure=400, seed=seed)
        t, y = analysis.extract_time_trace(img, (350.0, 510.0))
        sel = t >= 150.0
        fits[pump] = fitting.fit_multiexp(t[sel], y[sel], 2)
    report = fitting.decay_independence_report(fits)
    assert report.all_agree
    mid = report.components[0]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(7, "fitted 1850 ns component agrees across pumps "
               f"{{250, 260, 267, 280}} nm: "
               f"{', '.join(f'{v:.0f}' for v in mid.values)} ns "
               f"(+-1 sigma overlap); {elapsed:.1f} s")


def test_criterion_8_invariant_suite():
    model = emission.make_model()
    grid = synth.time_grid(-2.0, 8.0, 0.05)
    img = synth.synthesize(model, time_grid=grid, exposure=2000, seed=11)

    # roi additivity, exact in integers
    wl_lo, wl_hi = img.wavelength_axis_nm[0], img.wavelength_axis_nm[-1]
    t_lo, t_hi = img.time_axis_ns[0], img.time_axis_ns[-1]
    split = 500.25
    left = analysis.RegionOfInterest((wl_lo, split), (t_lo, t_hi))
    right = analysis.RegionOfInterest((split, wl_hi), (t_lo, t_hi))
    assert (analysis.roi_integrate(img, left)
            + analysis.roi_integrate(img, right) == img.total_counts)

    # spectrum normalization is idempotent
    _, spec = analysis.extract_spectrum(img, (t_lo, t_hi))
    once = analysis.normalize_spectrum(spec)
    assert np.array_equal(analysis.normalize_spectrum(once), once)

    # filter factors: order-free, inside [0, 1]
    pool = (filters.LongpassFilter(460.0), filters.BandpassFilter(534.0, 20.0),
            filters.Polarizer("aligned_to_spdc"))
    reference = None
    for perm in itertools.permutations(pool):
        chain = filters.FilterChain(tuple(perm))
        pair = (filters.transmit_spdc(chain, model),
                filters.transmit_luminescence(chain, model))
        assert 0.0 <= pair[0] <= 1.0 and 0.0 <= pair[1] <= 1.0
        if reference is None:
            reference = pair
        assert pair == pytest.approx(reference, rel=1e-12)

    # uniform detector efficiency cancels out of SNR and fidelity
    chain = filters.FilterChain()
    base = filters.scenario_fidelity(
        model, chain, filters.ScenarioSpec("base", 2.225e10, 1.343e10))
    scaled = filters.scenario_fidelity(
        model, chain, filters.ScenarioSpec("scaled", 0.37 * 2.225e10,
                                           0.37 * 1.343e10))
    assert scaled.snr == pytest.approx(base.snr, rel=1e-12)
    assert scaled.f_exact == pytest.approx(base.f_exact, rel=1e-12)

    # fidelity rises with SNR
    f_grid = [herald.fidelity_from_snr(s, 10.0, 100e3).f_exact
              for s in (0.1, 1.0, 10.0, 100.0, 1000.0)]
    assert all(a < b for a, b in zip(f_grid, f_grid[1:]))

    # p0 + p1 + p2 = P_S (1 - P_L) + P_L on random grids
    rng = np.random.default_rng(7)
    for _ in range(200):
        p_s = 10.0 ** rng.uniform(-6.0, np.log10(0.05))
        p_l = 10.0 ** rng.uniform(-6.0, np.log10(0.05))
        out = herald.outcome_probabilities(p_s, p_l)
        total = out.p0 + out.p1 + out.p2
        assert total == pytest.approx(p_s * (1.0 - p_l) + p_l, rel=1e-14)

    # analytic objective gradient vs Richardson central differences
    model_g = emission.make_model(amplitudes=(0.7, 0.3),
                                  lifetimes_ns=(1850.0, 9950.0),
                                  spdc_rate_hz=0.0, repetition_rate_hz=10.0)
    grid_g = synth.time_grid(0.0, 50_000.0, 50.0)
    img_g = synth.synthesize(model_g, time_grid=grid_g, exposure=20_000,
                             seed=1)
    t, y = analysis.extract_time_trace(img_g, (300.0, 700.0))
    design = DecayDesign(t, y, 2, irf_fwhm_ns=100.0, baseline_mode="free",
                         fit_t0=True)

    def central(i, theta, h):
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        return (design.objective(tp) - design.objective(tm)) / (2.0 * h)

    a_scale = y.max()
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(10):
        theta = np.array([
            rng.uniform(0.0, 3.0),
            rng.uniform(-30.0, 30.0),
            a_scale * 0.7 * rng.uniform(0.5, 2.0),
            a_scale * 0.3 * rng.uniform(0.5, 2.0),
            1850.0 * rng.uniform(0.5, 2.0),
            9950.0 * rng.uniform(0.5, 2.0),
        ])
        f0 = design.objective(theta)
        grad = design.gradient(theta)
        for i in range(theta.size):
            # step clears the cancellation floor yet keeps O(h^4) negligible
            scale = max(abs(theta[i]), 1.0)
            h = max(6e-6 * scale, 2e-7 * f0 / max(abs(grad[i]), 1e-300))
            h = min(h, 0.05 * scale)
            num = (4.0 * central(i, theta, h / 2.0)
                   - central(i, theta, h)) / 3.0
            rel = abs(num - grad[i]) / max(abs(num), abs(grad[i]))
            assert rel <= 1e-6, (i, theta[i], num, grad[i], rel)
            worst = max(worst, rel)

    _report(8, "roi additivity exact; normalization idempotent; filter "
               "factors order-free in [0,1]; SNR and F efficiency-"
               "invariant; F monotone in SNR; outcome identity to 1e-14; "
               f"gradient vs differences worst {worst:.2e} (<= 1e-6)")
