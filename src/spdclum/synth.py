"""Forward model: expected streak-camera counts and Poisson sampling.

The expectation is separable:

    E[counts in bin (t, lam)] = T * ( R_S * G(t-bin) * S_spdc(lam-bin)
                                    + R_L * D(t-bin) * S_lum(lam-bin) )

with T = exposure / repetition_rate the live integration time, G the IRF
kernel mass in the time bin, D the decay mass (IRF-convolved, pile-up
corrected and normalized per pulse period), and S the spectral density mass in
the wavelength bin.  Both are closed forms, CDF differences on one edge array
per axis: G from kernels.gaussian_cdf, D from emission.decay_bin_masses (the
temporal gate's luminescence share with the IRF width set to 0), and S from
emission.spectral_bin_masses (the filters' band masses).  A term whose rate
is zero evaluates neither mass.  The image total follows from the factors
alone, so an expectation beyond MAX_TOTAL_COUNTS is refused before any
image-sized allocation: 2**62 keeps the int64 total of the Poisson counts
clear of 2**63, where it would wrap.

Shot noise is the only noise source: every bin is an independent Poisson
draw.  A synthesis holds one image-sized buffer: the expectation is written
into it BLOCK_BINS at a time, and each row block's Poisson counts then
overwrite the means they were drawn from, in the C order (and so the random
stream) of one whole-image draw.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .emission import (EmissionModel, decay_bin_masses, model_fingerprint,
                       spectral_bin_masses, uniform_bin_count)
from .streak import StreakImage

MAX_IMAGE_BINS = 50_000_000  # time x wavelength bins in one image
MAX_TOTAL_COUNTS = 2.0 ** 62  # expected counts in one image
BLOCK_BINS = 16_384  # bins per row block written or drawn at once


def time_grid(min_ns: float, max_ns: float, step_ns: float) -> np.ndarray:
    """Uniform time bin centers from min to max inclusive."""
    if step_ns <= 0.0:
        raise ValueError("time step must be positive")
    if max_ns <= min_ns:
        raise ValueError("time max must exceed min")
    return min_ns + step_ns * np.arange(
        uniform_bin_count(min_ns, max_ns, step_ns, "time"))


def _expected(model: EmissionModel, t_edges: np.ndarray, lam_edges: np.ndarray,
              exposure: int, t0: float) -> np.ndarray:
    """Expected counts per (time, wavelength) bin given the bin edges."""
    if exposure < 1:
        raise ValueError("exposure must be at least one pulse")
    n_t, n_lam = t_edges.size - 1, lam_edges.size - 1
    if n_t * n_lam > MAX_IMAGE_BINS:
        raise ValueError(
            f"image would have {n_t * n_lam} bins ({n_t} time x {n_lam} "
            f"wavelength), more than the limit of {MAX_IMAGE_BINS}")
    period = model.pump.period_ns
    if (t_edges[-1] - t_edges[0]) > period:
        raise ValueError(
            f"observation window {t_edges[-1] - t_edges[0]:g} ns exceeds the "
            f"pulse period {period:g} ns")
    t_live = exposure / model.pump.repetition_rate_hz
    s = t_edges - t0
    sigma = model.lum_decay.irf_fwhm_ns * kernels.FWHM_TO_SIGMA
    # (rate, time masses, wavelength masses) per term; a term whose rate is
    # zero evaluates no mass at all
    terms = [(rate, mass_t(), spectral_bin_masses(profile, model.grid,
                                                  lam_edges))
             for rate, mass_t, profile in (
                 (model.spdc_rate_hz,
                  lambda: np.diff(kernels.gaussian_cdf(s, sigma)),
                  model.spdc_spectrum),
                 (model.lum_rate_hz,
                  lambda: decay_bin_masses(model.lum_decay, s, sigma, period),
                  model.lum_spectrum))
             if rate != 0.0]
    # the image total from the separable factors, before any allocation
    total = t_live * sum(rate * m_t.sum() * m_lam.sum()
                         for rate, m_t, m_lam in terms)
    if total > MAX_TOTAL_COUNTS:
        raise ValueError(
            f"exposure {exposure} gives {total:.3g} expected counts, more "
            f"than the limit of 2**62 ({MAX_TOTAL_COUNTS:.3g}); lower "
            "synth.exposure")
    if not terms:
        return np.zeros((n_t, n_lam))
    # t_live * (R_S * outer(spdc) + R_L * outer(lum)) in that operation order,
    # written a row block at a time so only one image-sized buffer exists
    out = np.empty((n_t, n_lam))
    rows = max(1, BLOCK_BINS // n_lam)
    scratch = np.empty((min(rows, n_t), n_lam))
    for i in range(0, n_t, rows):
        block = out[i:i + rows]
        for k, (rate, m_t, m_lam) in enumerate(terms):
            term = scratch[:len(block)] if k else block
            np.multiply.outer(m_t[i:i + rows], m_lam, out=term)
            term *= rate
            if k:
                block += term
        block *= t_live
    return out


def expected_counts(model: EmissionModel, wavelength_grid=None, time_grid=None,
                    *, exposure: int, t0: float = 0.0) -> np.ndarray:
    """Expected counts per bin over the full (time, wavelength) grid.

    Parameters
    ----------
    wavelength_grid, time_grid : array_like
        Bin centers; wavelength defaults to the model grid.
    exposure : int
        Number of accumulated pump pulses.
    t0 : float
        Pulse arrival time on the time axis, ns.

    Returns
    -------
    ndarray, shape (n_time, n_wavelength)

    Raises ValueError when the image would pass MAX_IMAGE_BINS bins or its
    expected total MAX_TOTAL_COUNTS.
    """
    if time_grid is None:
        raise ValueError("a time grid is required")
    lam = (np.asarray(wavelength_grid, dtype=float)
           if wavelength_grid is not None else model.grid.centers())
    t = np.asarray(time_grid, dtype=float)
    return _expected(model, kernels.edges_from_centers(t),
                     kernels.edges_from_centers(lam), exposure, t0)


def synthesize(model: EmissionModel, wavelength_grid=None, time_grid=None, *,
               exposure: int, seed: int, t0: float = 0.0) -> StreakImage:
    """Draw a shot-noise-limited streak image; deterministic per seed.

    Every bin is an independent Poisson draw around expected_counts, the
    same counts as np.random.default_rng(seed).poisson(expected_counts(...))
    drawn into the expectation's own buffer.  A warning is recorded in the
    metadata when the time binning cannot resolve the IRF-limited SPDC
    pulse.
    """
    import hashlib  # loading _hashlib costs ~3 ms, in every command else

    mean = expected_counts(model, wavelength_grid, time_grid,
                           exposure=exposure, t0=t0)
    lam = (np.asarray(wavelength_grid, dtype=float)
           if wavelength_grid is not None else model.grid.centers())
    t = np.asarray(time_grid, dtype=float)
    rng = np.random.default_rng(seed)
    # one draw per row block consumes the stream in the C order of one
    # whole-image draw; each block's counts overwrite the means they came
    # from, through an int64 view of the same buffer
    counts = mean.view(np.int64)
    rows = max(1, BLOCK_BINS // mean.shape[1])
    for i in range(0, mean.shape[0], rows):
        counts[i:i + rows] = rng.poisson(mean[i:i + rows])
    metadata = {
        "seed": str(int(seed)),
        "pulse_arrival_ns": repr(float(t0)),
        "model_hash": hashlib.sha256(
            model_fingerprint(model).encode()).hexdigest(),
    }
    irf = model.lum_decay.irf_fwhm_ns
    binwidth = float(np.max(np.diff(t)))
    if model.spdc_rate_hz > 0.0 and irf > 0.0 and binwidth > irf:
        metadata["warning"] = (
            f"time bin width {binwidth:g} ns exceeds the IRF FWHM {irf:g} ns; "
            "the SPDC pulse is under-resolved")
    return StreakImage(counts, lam, t, int(exposure), metadata)
