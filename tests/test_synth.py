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


@pytest.mark.parametrize("rate_hz", [10.0, 1e3])
def test_decay_masses_take_one_kernel_call_per_component(monkeypatch,
                                                         rate_hz):
    # each lifetime's time masses come from the kernel CDF on one stack of
    # the n + 1 edges for this pulse and the pulses one period back and
    # ahead: 3 rows of n + 1 points, not 6 rows of n bin bounds
    from spdclum import kernels

    cdf, shapes = kernels.exp_conv_gauss_cdf, []

    def recording_cdf(t, tau, sigma):
        shapes.append(np.shape(t))
        return cdf(t, tau, sigma)

    model = make_model(spdc_rate_hz=0.0, repetition_rate_hz=rate_hz)
    grid = time_grid(-2.0, 8.0, 0.05)
    want = expected_counts(model, None, grid, exposure=1000)
    monkeypatch.setattr(kernels, "exp_conv_gauss_cdf", recording_cdf)
    got = expected_counts(model, None, grid, exposure=1000)
    assert np.array_equal(got, want)
    n_components = len(model.lum_decay.lifetimes_ns)
    assert shapes == [(3, grid.size + 1)] * n_components


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


def _criterion_7_case():
    model = make_model(267.0, amplitudes=(0.7, 0.3),
                       lifetimes_ns=(1850.0, 9950.0), repetition_rate_hz=10.0)
    return model, None, time_grid(0.0, 50_000.0, 50.0), 400


@pytest.mark.parametrize("case", ["lum-only", "spdc-only", "two-term",
                                  "zero-rate", "wavelength-grid",
                                  "criterion-7"])
def test_synthesize_draws_one_whole_image_poisson(case):
    # the draw goes a row block at a time; it must consume the stream of one
    # Poisson call over the whole expected image, byte for byte
    from spdclum import synth

    grid = time_grid(-2.0, 8.0, 0.05)
    model, wl, t, exposure = {
        "lum-only": (make_model(spdc_rate_hz=0.0), None, grid, 150_000),
        "spdc-only": (make_model(lum_rate_hz=0.0), None, grid, 150_000),
        "two-term": (make_model(), None, grid, 100_000),
        "zero-rate": (make_model(spdc_rate_hz=0.0, lum_rate_hz=0.0), None,
                      grid, 1000),
        # 271 rows, not a multiple of the block's rows
        "wavelength-grid": (make_model(),
                            WavelengthGrid(450.0, 620.0, 1.0).centers(),
                            time_grid(-2.0, 8.0, 0.037), 100_000),
        "criterion-7": _criterion_7_case(),
    }[case]
    img = synthesize(model, wl, t, exposure=exposure, seed=104)
    rows = max(1, synth.BLOCK_BINS // img.counts.shape[1])
    assert img.counts.shape[0] > rows
    assert img.counts.shape[0] % rows != 0
    want = np.random.default_rng(104).poisson(
        expected_counts(model, wl, t, exposure=exposure))
    assert img.counts.dtype == want.dtype
    assert img.counts.tobytes() == want.tobytes()


def test_synthesize_holds_one_image_buffer():
    # the means and the counts share one buffer: the peak of a criterion-7
    # synthesis stays near one image's bytes
    import tracemalloc

    model, wl, t, exposure = _criterion_7_case()
    tracemalloc.start()
    try:
        img = synthesize(model, wl, t, exposure=exposure, seed=104)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * img.counts.nbytes


def test_expected_total_limit_before_allocation():
    # 20001 x 401 bins (64 MB) whose expected total passes 2**62: refused
    # from the separable factors, before the image buffer exists (the time
    # masses' kernel temporaries take ~16 MB)
    import tracemalloc

    from spdclum.synth import MAX_TOTAL_COUNTS

    model = make_model()
    t = time_grid(-2.0, 8.0, 0.0005)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="lower synth.exposure"):
            synthesize(model, None, t, exposure=10**17, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * t.size * 401 * 8
    # the limit sits where the image total passes it
    small = time_grid(-2.0, 8.0, 0.05)
    limit = MAX_TOTAL_COUNTS / expected_counts(model, None, small,
                                               exposure=1).sum()
    below = expected_counts(model, None, small, exposure=int(0.99 * limit))
    assert 0.98 * MAX_TOTAL_COUNTS < below.sum() < MAX_TOTAL_COUNTS
    with pytest.raises(ValueError, match="lower synth.exposure"):
        expected_counts(model, None, small, exposure=int(1.01 * limit))
