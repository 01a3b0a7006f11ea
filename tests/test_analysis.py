"""ROI accounting, trace extraction, and count separation."""

import numpy as np
import pytest

from spdclum.analysis import (
    default_rois,
    extract_spectrum,
    extract_time_trace,
    normalize_spectrum,
    roi_integrate,
    separate_counts,
    trace_fwhm,
)
from spdclum.emission import make_model
from spdclum.streak import RegionOfInterest, StreakImage
from spdclum.synth import synthesize, time_grid


def _image(seed=7, **kwargs):
    model = make_model(**kwargs)
    return model, synthesize(model, None, time_grid(-2.0, 8.0, 0.05),
                             exposure=20000, seed=seed)


def test_roi_additivity_is_exact():
    _, img = _image()
    t = img.time_axis_ns
    lam = img.wavelength_axis_nm
    mid_t = float(t[len(t) // 2])
    mid_w = float(lam[len(lam) // 2])
    whole = RegionOfInterest((lam[0], lam[-1]), (t[0], t[-1]))
    # split between bin centers so no bin lands in both halves
    left = RegionOfInterest((lam[0], mid_w + 0.5), (t[0], t[-1]))
    right = RegionOfInterest((mid_w + 0.5 + 1e-9, lam[-1]), (t[0], t[-1]))
    top = RegionOfInterest((lam[0], lam[-1]), (t[0], mid_t + 0.025))
    bottom = RegionOfInterest((lam[0], lam[-1]),
                              (mid_t + 0.025 + 1e-12, t[-1]))

    total = roi_integrate(img, whole)
    assert total == img.total_counts
    assert roi_integrate(img, left) + roi_integrate(img, right) == total
    assert roi_integrate(img, top) + roi_integrate(img, bottom) == total


def test_roi_integrate_empty_region():
    _, img = _image()
    nothing = RegionOfInterest((699.2, 699.8), (0.01, 0.02))
    with pytest.raises(ValueError):
        roi_integrate(img, nothing)
    with pytest.raises(ValueError):
        roi_integrate(img, nothing, clip=True)


def test_roi_clip_overhang():
    _, img = _image()
    over = RegionOfInterest((690.0, 900.0), (-2.0, 8.0))
    inside = RegionOfInterest((690.0, 700.0), (-2.0, 8.0))
    with pytest.raises(ValueError):
        roi_integrate(img, over)
    assert roi_integrate(img, over, clip=True) == roi_integrate(img, inside)


def test_default_rois_cover_line_and_decay():
    model, img = _image()
    spdc_roi, lum_roi = default_rois(model, img)
    wlo, whi = spdc_roi.wavelength_nm
    tlo, thi = spdc_roi.time_ns
    assert wlo < 534.0 < whi
    assert tlo < 0.0 < thi
    # luminescence window starts after the prompt gate
    assert lum_roi.time_ns[0] > thi


def test_separate_counts_happy_path():
    model, img = _image()
    spdc_roi, lum_roi = default_rois(model, img)
    summary = separate_counts(img, spdc_roi, lum_roi)
    assert summary.c_spdc > 0
    assert summary.c_lum > 0
    assert summary.snr == pytest.approx(summary.c_spdc / summary.c_lum)
    assert not summary.flagged


def test_separate_counts_snr_integer_scale_invariant():
    model, img = _image()
    spdc_roi, lum_roi = default_rois(model, img)
    base = separate_counts(img, spdc_roi, lum_roi)
    scaled = StreakImage(img.counts * 7, img.wavelength_axis_nm,
                         img.time_axis_ns, exposure=img.exposure,
                         metadata=img.metadata)
    summary = separate_counts(scaled, spdc_roi, lum_roi)
    assert summary.c_spdc == 7 * base.c_spdc
    assert summary.c_lum == 7 * base.c_lum
    assert summary.snr == pytest.approx(base.snr, rel=1e-12)


def test_separate_counts_no_spdc():
    # blank out the prompt region: quotient flags the missing signal
    _, img = _image(seed=3)
    counts = img.counts.copy()
    spdc_roi = RegionOfInterest((514.0, 554.0), (-0.45, 0.45))
    tmask = (img.time_axis_ns >= -0.45) & (img.time_axis_ns <= 0.45)
    wmask = (img.wavelength_axis_nm >= 514.0) & (img.wavelength_axis_nm <= 554.0)
    counts[np.ix_(tmask, wmask)] = 0
    blanked = StreakImage(counts, img.wavelength_axis_nm, img.time_axis_ns,
                          exposure=img.exposure)
    lum_roi = RegionOfInterest((300.0, 700.0), (0.5, 8.0))
    summary = separate_counts(blanked, spdc_roi, lum_roi)
    assert summary.flagged
    assert "no-spdc-counts" in summary.flags
    assert summary.snr == 0.0


def test_separate_counts_no_luminescence():
    model, img = _image(lum_rate_hz=0.0, seed=3)
    spdc_roi, lum_roi = default_rois(model, img)
    summary = separate_counts(img, spdc_roi, lum_roi)
    assert summary.snr == np.inf
    assert "no-luminescence-counts" in summary.flags


def test_separate_counts_no_counts():
    _, img = _image()
    zero = StreakImage(np.zeros_like(img.counts), img.wavelength_axis_nm,
                       img.time_axis_ns, exposure=img.exposure)
    spdc_roi = RegionOfInterest((514.0, 554.0), (-0.5, 0.5))
    lum_roi = RegionOfInterest((300.0, 700.0), (0.5, 8.0))
    summary = separate_counts(zero, spdc_roi, lum_roi)
    assert summary.flagged
    assert "no-counts" in summary.flags
    assert summary.c_spdc == 0 and summary.c_lum == 0
    assert summary.snr == 0.0


def test_model_subtract_reduces_lum_bias():
    model, img = _image(seed=19)
    spdc_roi, lum_roi = default_rois(model, img)
    plain = separate_counts(img, spdc_roi, lum_roi)
    corrected = separate_counts(img, spdc_roi, lum_roi,
                                overlap_mode="model-subtract")
    # luminescence also lives under the prompt window; subtracting its
    # sideband estimate can only lower C_S, never below zero
    assert corrected.c_spdc <= plain.c_spdc
    assert corrected.c_spdc >= 0
    assert corrected.lum_under_spdc > 0
    assert corrected.overlap_mode == "model-subtract"


def test_separate_counts_bad_mode():
    _, img = _image()
    roi = RegionOfInterest((514.0, 554.0), (-0.5, 0.5))
    with pytest.raises(ValueError):
        separate_counts(img, roi, roi, overlap_mode="subtract")


def test_extract_time_trace_matches_roi_sums():
    _, img = _image()
    times, counts = extract_time_trace(img, (514.0, 554.0))
    assert times.shape == counts.shape
    assert np.array_equal(times, img.time_axis_ns)
    roi = RegionOfInterest((514.0, 554.0),
                           (img.time_axis_ns[0], img.time_axis_ns[-1]))
    assert counts.sum() == roi_integrate(img, roi)
    with pytest.raises(ValueError):
        extract_time_trace(img, (554.0, 514.0))


def test_extract_spectrum_matches_roi_sums():
    _, img = _image()
    lam, counts = extract_spectrum(img, (0.5, 8.0))
    assert np.array_equal(lam, img.wavelength_axis_nm)
    roi = RegionOfInterest((lam[0], lam[-1]), (0.5, 8.0))
    assert counts.sum() == roi_integrate(img, roi)


def test_band_and_roi_sums_copy_no_block():
    # each sum reads a view of the image; the reference sums copy the
    # block through boolean masks
    import tracemalloc

    rng = np.random.default_rng(3)
    counts = rng.integers(0, 1000, size=(400, 1000))
    img = StreakImage(counts, 300.0 + 0.5 * np.arange(1000),
                      0.01 * np.arange(400), exposure=1)
    wl, t = img.wavelength_axis_nm, img.time_axis_ns
    wmask, tmask = (wl >= 310.0) & (wl <= 790.0), (t >= 0.5) & (t <= 3.5)
    side_t = (t >= 3.6) & (t <= 3.99)
    spdc = RegionOfInterest((310.0, 790.0), (0.5, 3.5))
    lum = RegionOfInterest((300.0, 799.5), (3.6, 3.99))
    cases = [
        (lambda: extract_time_trace(img, (310.0, 790.0))[1],
         counts[:, wmask].sum(axis=1)),
        (lambda: extract_spectrum(img, (0.5, 3.5))[1],
         counts[tmask, :].sum(axis=0)),
        (lambda: roi_integrate(img, spdc),
         counts[np.ix_(tmask, wmask)].sum()),
        (lambda: separate_counts(img, spdc, lum,
                                 overlap_mode="model-subtract").lum_under_spdc,
         float(counts[np.ix_(side_t, wmask)].mean())
         * int(tmask.sum()) * int(wmask.sum())),
    ]
    for call, reference in cases:
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(result, reference)
        # a copy of a selected block (2.3-3.1 MB) would not fit
        assert peak < counts.nbytes / 20, peak


def test_normalize_spectrum_idempotent():
    _, img = _image()
    _, counts = extract_spectrum(img, (0.5, 8.0))
    once = normalize_spectrum(counts)
    twice = normalize_spectrum(once)
    assert np.array_equal(once, twice)
    assert once.max() == 1.0


def test_normalize_spectrum_rejects_zero():
    with pytest.raises(ValueError):
        normalize_spectrum(np.zeros(10))


def test_trace_fwhm_gaussian():
    t = np.linspace(-5.0, 5.0, 2001)
    sigma = 0.4
    y = np.exp(-0.5 * (t / sigma) ** 2)
    fwhm = trace_fwhm(t, y)
    assert fwhm == pytest.approx(2.3548200450309493 * sigma, rel=1e-3)
    with pytest.raises(ValueError):
        trace_fwhm(t, np.zeros_like(t))
