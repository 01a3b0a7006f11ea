"""Closed-form temporal kernels shared by synthesis, gating, and fitting.

All times are in nanoseconds.  The building blocks are a unit-area Gaussian
(instrument response) and a causal exponential decay.  Their convolution and
its antiderivative have stable closed forms, so bin contents can be integrated
exactly instead of through discrete convolution grids.  The convolution is

    (exp(-t/tau) * step(t)) (*) N(0, sigma^2)
        = 0.5 * exp(sigma^2/(2 tau^2) - t/tau) * erfc((sigma/tau - t/sigma)/sqrt(2))

which is evaluated through erfcx to stay finite for every argument size.
The module exposes only what the model integrates: the Gaussian's and the
convolution's masses (the latter with its gradient, whose dF/dt is the
kernel itself) and the steady-state mass under pulsed excitation.
Wavelength masses are not here: emission.spectral_bin_masses computes them.
scipy.special loads on the first call that needs erf or erfcx, not on import.
"""

from __future__ import annotations

import numpy as np

# Gaussian FWHM = 2*sqrt(2*ln 2)*sigma
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)

# below this the erfc argument makes exp(z^2) overflow, so the asymptotic
# branch (pure exponential tail) is used instead
_Z_SPLIT = -25.0


def _prepare(t):
    """Return (flat float array, restore) where restore() rebuilds the
    caller's shape, collapsing 0-d input to a plain float."""
    arr = np.asarray(t, dtype=float)
    shape = arr.shape

    def restore(out):
        out = out.reshape(shape)
        return float(out) if shape == () else out

    return arr.ravel(), restore


def _causal_exp(t, tau):
    """exp(-t/tau) for t >= 0, zero before; overflow-safe for t << 0."""
    out = np.zeros_like(t)
    m = t >= 0.0
    out[m] = np.exp(-t[m] / tau)
    return out


def _check_kernel_args(tau, sigma):
    if tau <= 0.0:
        raise ValueError("lifetime must be positive")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")


def _emg(t, tau, sigma):
    """The exponential (x) Gaussian at flat float times t, sigma > 0.

    Returns (phi, kern, bump): the Gaussian CDF, the kernel, and the
    Gaussian bump exp(-t^2 / (2 sigma^2)) = sigma * sqrt(2 pi) * pdf.  The
    kernel's antiderivative is tau * (phi - kern); every kernel and
    derivative here with sigma > 0 is composed from these three arrays.
    """
    from scipy.special import erf, erfcx
    bump = np.exp(-0.5 * (t / sigma) ** 2)
    z = (sigma / tau - t / sigma) / _SQRT2
    kern = np.empty_like(z)
    near = z >= _Z_SPLIT
    kern[near] = 0.5 * erfcx(z[near]) * bump[near]
    far = ~near
    if np.any(far):
        # erfc(z) -> 2 as z -> -inf; the correction term is below 1e-270 here
        kern[far] = np.exp(sigma**2 / (2.0 * tau**2) - t[far] / tau)
    return 0.5 * (1.0 + erf(t / (sigma * _SQRT2))), kern, bump


def gaussian_cdf(t, sigma: float):
    """Kernel mass below t.  sigma = 0 degenerates to a step at 0.

    The delta sits at t = 0 and its mass accrues just above 0, so a bin whose
    left edge is exactly 0 still collects the photon.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    t, restore = _prepare(t)
    if sigma == 0.0:
        return restore((t > 0.0).astype(float))
    from scipy.special import erf
    return restore(0.5 * (1.0 + erf(t / (sigma * _SQRT2))))


def _bare_cdf(t, tau, kern):
    # sigma = 0: tau * (1 - exp(-t/tau)) above the step, zero up to it
    return np.where(t > 0.0, tau * (1.0 - kern), 0.0)


def exp_conv_gauss_cdf(t, tau: float, sigma: float):
    """Integral from -inf to t of the causal exponential (peak 1 before
    blur) convolved with the Gaussian.

    Equals tau * (gaussian_cdf(t) - kernel(t)); tends to tau as t -> +inf.
    sigma = 0 integrates the bare exponential.
    """
    _check_kernel_args(tau, sigma)
    t, restore = _prepare(t)
    if sigma == 0.0:
        return restore(_bare_cdf(t, tau, _causal_exp(t, tau)))
    phi, kern, _ = _emg(t, tau, sigma)
    return restore(tau * (phi - kern))


def exp_conv_gauss_cdf_grad(t, tau: float, sigma: float):
    """F = exp_conv_gauss_cdf and its partial derivatives, from one kernel
    evaluation.

    Returns (F, dF/dt, dF/dtau, dF/dsigma); dF/dt is the kernel itself.  F
    depends on sigma only through sigma^2, so dF/dsigma is zero at sigma = 0.
    """
    _check_kernel_args(tau, sigma)
    t, restore = _prepare(t)
    if sigma == 0.0:
        kern = _causal_exp(t, tau)
        d_tau = np.where(t > 0.0, 1.0 - kern - (t / tau) * kern, 0.0)
        parts = (_bare_cdf(t, tau, kern), kern, d_tau, np.zeros_like(t))
    else:
        phi, kern, bump = _emg(t, tau, sigma)
        # F = tau * (phi - kern), so dF/dtau = phi - kern - tau * dkern/dtau
        d_kern_tau = (kern * (t - sigma**2 / tau) / tau**2
                      + bump / _SQRT2PI * sigma / tau**2)
        d_kern_sigma = (kern * sigma / tau**2
                        - bump / _SQRT2PI * (1.0 / tau + t / sigma**2))
        d_tau = phi - kern - tau * d_kern_tau
        d_phi = -bump / _SQRT2PI * t / sigma**2
        d_sigma = tau * (d_phi - d_kern_sigma)
        parts = (tau * (phi - kern), kern, d_tau, d_sigma)
    return tuple(restore(p) for p in parts)


def _check_within_period(values, period):
    if values.size and (values.min() < -period or values.max() > period):
        raise ValueError("times must lie within one period of the pulse")


def periodic_decay_mass(a, b, tau: float, sigma: float, period: float):
    """Steady-state kernel mass over [a, b] under pulsed excitation.

    The steady-state kernel is the sum over all pulse repetitions j of the
    kernel at s - j*period, exactly periodic in s; bounds must lie within
    one period of the pulse.  The pulses one period either side are summed
    directly, the older ones as a geometric series.  The per-period
    integral (b - a = period) is exactly tau: wrapping conserves the
    single-pulse mass.  Raises ValueError where the pile-up tail overflows,
    which takes an IRF far wider than tau.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    a_arr, restore = _prepare(a)
    b_arr, _ = _prepare(b)
    _check_within_period(a_arr, period)
    _check_within_period(b_arr, period)
    flat = lambda x: np.asarray(exp_conv_gauss_cdf(x, tau, sigma)).ravel()
    out = flat(b_arr) - flat(a_arr)
    for shift in (period, -period):
        out = out + flat(b_arr + shift) - flat(a_arr + shift)
    # pulses two or more periods back sum to exp(off - s/tau) / (1 - q)
    # with q = exp(-period/tau); skipped once q underflows
    x = period / tau
    if x <= 690.0:
        off = sigma**2 / (2.0 * tau**2) - 2.0 * x
        coeff = 1.0 / (1.0 - np.exp(-x))
        with np.errstate(over="ignore", invalid="ignore"):
            tail = coeff * tau * (np.exp(off - a_arr / tau)
                                  - np.exp(off - b_arr / tau))
        # exp overflows once sigma^2/(2 tau^2) - period/tau passes ~709
        if not np.all(np.isfinite(tail)):
            raise ValueError(
                f"pile-up sum overflows: IRF sigma {sigma:g} ns is too wide "
                f"for lifetime {tau:g} ns at pulse period {period:g} ns")
        out = out + tail
    return restore(out)


def edges_from_centers(centers):
    """Bin edges for strictly increasing centers: midpoints inside, the
    first and last bin mirrored outward."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 1 or centers.size < 2 or np.any(np.diff(centers) <= 0):
        raise ValueError("grid centers must be strictly increasing, length >= 2")
    mid = 0.5 * (centers[1:] + centers[:-1])
    first = centers[0] - (mid[0] - centers[0])
    last = centers[-1] + (centers[-1] - mid[-1])
    return np.concatenate([[first], mid, [last]])
