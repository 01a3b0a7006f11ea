"""Expected-count maps and Poisson synthesis."""

import numpy as np
import pytest

from spdclum.emission import MAX_AXIS_BINS, WavelengthGrid, make_model
from spdclum.synth import MAX_IMAGE_BINS, expected_counts, synthesize, time_grid


def test_time_grid():
    t = time_grid(-2.0, 8.0, 0.5)
    assert t[0] == -2.0
    assert t[-1] == 8.0
    assert t.size == 21
    with pytest.raises(ValueError):
        time_grid(8.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        time_grid(0.0, 1.0, 0.0)


def test_time_grid_bin_limit():
    # checked before the axis is allocated, so absurd steps cost nothing
    assert time_grid(0.0, MAX_AXIS_BINS - 1.0, 1.0).size == MAX_AXIS_BINS
    for step in (0.5, 1e-9, 5e-324):
        with pytest.raises(ValueError, match=f"limit of {MAX_AXIS_BINS}"):
            time_grid(0.0, MAX_AXIS_BINS - 1.0, step)


def test_image_bin_limit():
    # 200001 time x 401 wavelength bins: each axis is within its limit,
    # the image is not, and the error comes before the outer product
    t = time_grid(-2.0, 8.0, 0.00005)
    with pytest.raises(ValueError, match=f"200001 time x 401 wavelength.*"
                                         f"limit of {MAX_IMAGE_BINS}"):
        expected_counts(make_model(), None, t, exposure=1)


def test_total_counts_resolution_independent():
    model = make_model()
    exposure = 5000
    live_s = exposure / model.pump.repetition_rate_hz
    totals = []
    for step_t, step_w in ((0.05, 1.0), (0.2, 4.0), (0.01, 0.5)):
        mean = expected_counts(model,
                               WavelengthGrid(300.0, 700.0, step_w).centers(),
                               time_grid(-2.0, 8.0, step_t),
                               exposure=exposure)
        totals.append(mean.sum())
    # the in-window expectation must not depend on binning
    assert totals[0] == pytest.approx(totals[1], rel=1e-3)
    assert totals[0] == pytest.approx(totals[2], rel=1e-3)
    # and is bounded by the total photon budget
    assert totals[0] < (model.spdc_rate_hz + model.lum_rate_hz) * live_s


def test_full_period_counts_match_rates():
    # integrating over one full period collects every photon
    model = make_model(amplitudes=(1.0,), lifetimes_ns=(100.0,),
                       irf_fwhm_ns=0.15, spdc_rate_hz=2.0e4,
                       lum_rate_hz=5.0e4)
    period = model.pump.period_ns
    exposure = 300
    live_s = exposure / model.pump.repetition_rate_hz
    h = period / 2000
    mean = expected_counts(model, None,
                           time_grid(-period / 2 + h / 2,
                                     period / 2 - h / 2, h),
                           exposure=exposure)
    want = (model.spdc_rate_hz + model.lum_rate_hz) * live_s
    assert mean.sum() == pytest.approx(want, rel=1e-3)


def test_spdc_term_off():
    model = make_model(spdc_rate_hz=0.0)
    mean = expected_counts(model, None, time_grid(-1.0, 1.0, 0.1),
                           exposure=100)
    img = synthesize(model, None, time_grid(-1.0, 1.0, 0.1),
                     exposure=100, seed=5)
    # without SPDC nothing appears at the 534 nm line beyond luminescence
    assert mean.sum() > 0.0
    assert img.total_counts >= 0


def test_lum_term_off():
    model = make_model(lum_rate_hz=0.0)
    mean = expected_counts(model, None, time_grid(-1.0, 1.0, 0.02),
                           exposure=1000)
    lam = model.grid.centers()
    # 50 nm is ~12 sigma for the 10 nm FWHM line: tails are negligible
    outside = np.abs(lam - 534.0) > 50.0
    assert mean[:, outside].sum() == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("term", ["spdc", "lum"])
def test_zero_rate_term_evaluates_no_temporal_kernel(monkeypatch, term):
    # a term whose rate is zero adds nothing, so neither its time masses nor
    # its wavelength masses may be computed; the expected counts stay bit
    # for bit the same
    from spdclum import kernels, synth

    model = make_model(**{f"{term}_rate_hz": 0.0})
    grid = time_grid(-2.0, 8.0, 0.05)
    want = expected_counts(model, None, grid, exposure=1000)
    zero_profile = getattr(model, f"{term}_spectrum")
    irf_sigma = model.lum_decay.irf_fwhm_ns * kernels.FWHM_TO_SIGMA
    gaussian_cdf, bin_masses = kernels.gaussian_cdf, synth.spectral_bin_masses

    def forbidden(*args, **kwargs):
        raise AssertionError("temporal kernel of a zero-rate term")

    def spectra_only_cdf(t, sigma):
        # the spectra call the Gaussian CDF too, at their own widths
        if sigma == irf_sigma:
            forbidden()
        return gaussian_cdf(t, sigma)

    def other_masses(profile, *args):
        if profile == zero_profile:
            raise AssertionError("spectral mass of a zero-rate term")
        return bin_masses(profile, *args)

    monkeypatch.setattr(synth, "spectral_bin_masses", other_masses)
    if term == "spdc":
        monkeypatch.setattr(kernels, "gaussian_cdf", spectra_only_cdf)
    else:
        monkeypatch.setattr(kernels, "periodic_decay_mass", forbidden)
    got = expected_counts(model, None, grid, exposure=1000)
    assert np.array_equal(got, want)
    assert synthesize(model, None, grid, exposure=1000, seed=2).counts.sum() > 0


def test_synthesize_deterministic_and_seed_sensitive():
    model = make_model()
    tg = time_grid(-2.0, 8.0, 0.1)
    a = synthesize(model, None, tg, exposure=2000, seed=42)
    b = synthesize(model, None, tg, exposure=2000, seed=42)
    c = synthesize(model, None, tg, exposure=2000, seed=43)
    assert np.array_equal(a.counts, b.counts)
    assert np.any(a.counts != c.counts)
    assert a.metadata["seed"] == "42"
    assert "model_hash" in a.metadata


def test_synthesize_poisson_scale():
    # mean of the synthesized counts tracks the expectation
    model = make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,),
                       spdc_rate_hz=0.0)
    tg = time_grid(-1.0, 5.0, 0.05)
    mean = expected_counts(model, None, tg, exposure=50000)
    img = synthesize(model, None, tg, exposure=50000, seed=11)
    total_expected = mean.sum()
    assert img.total_counts == pytest.approx(
        total_expected, abs=6.0 * np.sqrt(total_expected))


def test_irf_shrinks_to_single_bin_spike():
    tg = time_grid(-1.0, 1.0, 0.05)
    for fwhm, min_share in ((0.15, 0.2), (0.01, 0.99), (0.0, 1.0)):
        model = make_model(lum_rate_hz=0.0, irf_fwhm_ns=fwhm)
        mean = expected_counts(model, None, tg, exposure=1000)
        trace = mean.sum(axis=1)
        share = trace.max() / trace.sum()
        assert share >= min_share, fwhm


def test_pulse_offset_moves_spdc():
    model = make_model(lum_rate_hz=0.0)
    tg = time_grid(-2.0, 8.0, 0.05)
    mean = expected_counts(model, None, tg, exposure=1000, t0=3.0)
    trace = mean.sum(axis=1)
    assert tg[np.argmax(trace)] == pytest.approx(3.0, abs=0.05)


def test_window_must_fit_period():
    model = make_model()  # 1 kHz -> 1e6 ns period
    with pytest.raises(ValueError):
        expected_counts(model, None, time_grid(-1e6, 1e6, 1e4),
                        exposure=10)


def test_binwidth_warning_recorded():
    model = make_model()  # irf 0.15 ns
    img = synthesize(model, None, time_grid(-2.0, 8.0, 0.5),
                     exposure=100, seed=1)
    assert "warning" in img.metadata
    img2 = synthesize(model, None, time_grid(-2.0, 8.0, 0.05),
                      exposure=100, seed=1)
    assert "warning" not in img2.metadata
