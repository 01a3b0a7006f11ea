"""Streak-image analysis: ROI integration, count separation, traces, spectra.

The signal-to-noise ratio used throughout is the plain count quotient
SNR = C_S / C_L of the SPDC and luminescence regions.  Detector efficiency
multiplies both regions equally and cancels; a luminescence region with zero
counts yields an infinite sentinel plus a flag instead of a division error.

Both image axes increase, so the bins of a band, window or region are one
contiguous slice: every sum here reads a view of the counts and copies no
block of the image.  Integer sums are exact in any order.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .emission import EmissionModel
from .streak import RegionOfInterest, StreakImage, pulse_arrival_ns


def _span(axis: np.ndarray, lo: float, hi: float) -> slice:
    """The bins whose centers lie in [lo, hi], as a slice: an image axis
    increases, so they are contiguous and the image's block is a view."""
    inside = np.flatnonzero((axis >= lo) & (axis <= hi))
    return (slice(int(inside[0]), int(inside[-1]) + 1) if inside.size
            else slice(0, 0))


def _width(span: slice) -> int:
    return span.stop - span.start


def roi_integrate(image: StreakImage, roi: RegionOfInterest) -> int:
    """Sum the counts inside a region of interest.

    Bounds are inclusive on bin centers and must lie within the image axes;
    a region reaching past them, or selecting no bins, is a domain error.
    """
    wl, t = image.wavelength_axis_nm, image.time_axis_ns
    (wlo, whi), (tlo, thi) = roi.wavelength_nm, roi.time_ns
    if wlo < wl[0] or whi > wl[-1] or tlo < t[0] or thi > t[-1]:
        raise ValueError(
            f"ROI {roi.label!r} extends beyond the image axes "
            f"(wavelength {wl[0]:g}..{wl[-1]:g} nm, time {t[0]:g}..{t[-1]:g} ns)")
    wspan, tspan = _span(wl, wlo, whi), _span(t, tlo, thi)
    if not _width(wspan) or not _width(tspan):
        raise ValueError(f"ROI {roi.label!r} selects no bins")
    return int(image.counts[tspan, wspan].sum())


def default_rois(model: EmissionModel, image: StreakImage, *,
                 t0: float | None = None) -> tuple[RegionOfInterest, RegionOfInterest]:
    """Model-derived regions: SPDC box and its after-gate complement.

    SPDC: spectral center +- 2 line FWHM crossed with t0 +- 3 IRF FWHM.
    Luminescence: the full wavelength span at times after the SPDC gate.
    Both are clamped to the image axes and guaranteed disjoint in time.  An
    image that misses the SPDC window, or ends inside it, is a domain error;
    a pulse arrival that is not a finite number raises StreakParseError.
    """
    if t0 is None:
        t0 = pulse_arrival_ns(image.metadata)
    wl, t = image.wavelength_axis_nm, image.time_axis_ns
    c = model.spdc_spectrum.center_nm
    half_w = 2.0 * model.spdc_spectrum.fwhm_nm
    irf = model.lum_decay.irf_fwhm_ns
    half_t = 3.0 * irf if irf > 0 else 0.5 * image.time_binwidth()
    w_lo, w_hi, t_lo, t_hi = c - half_w, c + half_w, t0 - half_t, t0 + half_t
    if w_hi < wl[0] or w_lo > wl[-1] or not t[0] <= t_hi < t[-1]:
        raise ValueError(
            f"image span {wl[0]:g}..{wl[-1]:g} nm x {t[0]:g}..{t[-1]:g} ns "
            f"must overlap the SPDC window {w_lo:g}..{w_hi:g} nm x "
            f"{t_lo:g}..{t_hi:g} ns and extend past it in time")
    spdc = RegionOfInterest((max(w_lo, wl[0]), min(w_hi, wl[-1])),
                            (max(t_lo, t[0]), t_hi), label="spdc")
    after = t[t > t_hi]
    lum = RegionOfInterest((wl[0], wl[-1]), (float(after[0]), float(t[-1])),
                           label="luminescence")
    return spdc, lum


@record
class CountSummary:
    """Separated counts and their quotient.

    lum_under_spdc is the sideband-estimated luminescence floor subtracted
    from the SPDC region (only in overlap_mode="model-subtract").
    """

    c_spdc: float
    c_lum: float
    snr: float
    spdc_roi: RegionOfInterest
    lum_roi: RegionOfInterest
    overlap_mode: str = "none"
    lum_under_spdc: float = 0.0
    flags: tuple[str, ...] = ()

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


def separate_counts(image: StreakImage, spdc_roi: RegionOfInterest,
                    lum_roi: RegionOfInterest, *,
                    overlap_mode: str = "none") -> CountSummary:
    """Split an image into SPDC and luminescence counts and form their SNR.

    overlap_mode "none" integrates the regions as they are; "model-subtract"
    estimates the per-bin luminescence floor under the SPDC region from
    sideband bins (same wavelengths, luminescence time range) and removes it
    from the SPDC total.
    """
    if overlap_mode not in ("none", "model-subtract"):
        raise ValueError(f"unknown overlap mode {overlap_mode!r}")
    c_s = float(roi_integrate(image, spdc_roi))
    c_l = float(roi_integrate(image, lum_roi))
    flags: list[str] = []
    floor = 0.0
    if overlap_mode == "model-subtract":
        wl, t = image.wavelength_axis_nm, image.time_axis_ns
        wspan = _span(wl, *spdc_roi.wavelength_nm)
        side = image.counts[_span(t, *lum_roi.time_ns), wspan]
        # side.mean() in float64, from the exact integer sum
        floor = (float(side.sum()) / side.size
                 * _width(_span(t, *spdc_roi.time_ns)) * _width(wspan))
        c_s = max(c_s - floor, 0.0)
    if c_l == 0.0:
        if c_s == 0.0:
            snr = 0.0
            flags.append("no-counts")
        else:
            snr = math.inf
            flags.append("no-luminescence-counts")
    else:
        snr = c_s / c_l
        if c_s == 0.0:
            flags.append("no-spdc-counts")
    return CountSummary(c_s, c_l, snr, spdc_roi, lum_roi, overlap_mode,
                        floor, tuple(flags))


def extract_time_trace(image: StreakImage, wavelength_band: tuple[float, float]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sum counts over a wavelength band, per time bin.

    Returns (time centers, counts); an empty band is a domain error.
    """
    lo, hi = wavelength_band
    if hi < lo:
        raise ValueError(f"inverted wavelength band ({lo}, {hi})")
    span = _span(image.wavelength_axis_nm, lo, hi)
    if not _width(span):
        raise ValueError("wavelength band selects no bins")
    return image.time_axis_ns.copy(), image.counts[:, span].sum(axis=1)


def extract_spectrum(image: StreakImage, time_window: tuple[float, float]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Sum counts over a time window, per wavelength bin."""
    lo, hi = time_window
    if hi < lo:
        raise ValueError(f"inverted time window ({lo}, {hi})")
    span = _span(image.time_axis_ns, lo, hi)
    if not _width(span):
        raise ValueError("time window selects no bins")
    return image.wavelength_axis_nm.copy(), image.counts[span].sum(axis=0)


def normalize_spectrum(values) -> np.ndarray:
    """Scale a series so its maximum is exactly 1.

    Idempotent: normalizing twice is bit-identical to normalizing once.
    An all-zero series has no scale and is a domain error.
    """
    v = np.asarray(values, dtype=float)
    peak = v.max(initial=0.0)
    if peak == 0.0:
        raise ValueError("cannot normalize an all-zero series")
    return v / peak


def trace_fwhm(times: np.ndarray, counts: np.ndarray) -> float:
    """Full width at half maximum of a peaked trace, by linear interpolation
    between the half-maximum crossings around the peak bin."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(counts, dtype=float)
    if y.size < 3:
        raise ValueError("trace too short for a width estimate")
    i_pk = int(np.argmax(y))
    half = y[i_pk] / 2.0
    if y[i_pk] <= 0:
        raise ValueError("trace has no peak")

    def cross(side):
        idx = range(i_pk, 0, -1) if side < 0 else range(i_pk, y.size - 1)
        for i in idx:
            j = i + side
            if y[j] < half <= y[i]:
                frac = (y[i] - half) / (y[i] - y[j])
                return t[i] + frac * (t[j] - t[i])
        raise ValueError("half-maximum crossing not inside the trace")

    return float(cross(+1) - cross(-1))
