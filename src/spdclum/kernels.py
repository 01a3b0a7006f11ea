"""Closed-form temporal kernels shared by synthesis, gating, and fitting.

All times are in nanoseconds.  The building blocks are a unit-area Gaussian
(instrument response) and a causal exponential decay.  Their convolution and
its antiderivative have stable closed forms, so bin contents can be integrated
exactly instead of through discrete convolution grids.  The convolution is

    (exp(-t/tau) * step(t)) (*) N(0, sigma^2)
        = 0.5 * exp(sigma^2/(2 tau^2) - t/tau) * erfc((sigma/tau - t/sigma)/sqrt(2))

which is evaluated through erfcx to stay finite for every argument size.
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


def _phi(t, sigma):
    from scipy.special import erf
    return 0.5 * (1.0 + erf(t / (sigma * _SQRT2)))


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
    # _phi's Gaussian CDF, inlined so that each call runs one import
    return 0.5 * (1.0 + erf(t / (sigma * _SQRT2))), kern, bump


# partial derivatives of the sigma > 0 kernel, from _emg's kern and bump
def _kern_dtau(t, tau, sigma, kern, bump):
    return (kern * (t - sigma**2 / tau) / tau**2
            + bump / _SQRT2PI * sigma / tau**2)


def _kern_dsigma(t, tau, sigma, kern, bump):
    return (kern * sigma / tau**2
            - bump / _SQRT2PI * (1.0 / tau + t / sigma**2))


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
    return restore(_phi(t, sigma))


def exp_conv_gauss(t, tau: float, sigma: float):
    """Causal exponential (peak 1 before blur) convolved with the Gaussian.

    Parameters
    ----------
    t : array_like
        Times relative to the pulse arrival, ns.
    tau : float
        Decay lifetime, ns; must be positive.
    sigma : float
        Gaussian width, ns; 0 returns the bare exponential.

    Returns
    -------
    ndarray or float
        Kernel values; the integral over the whole line equals tau.
    """
    _check_kernel_args(tau, sigma)
    t, restore = _prepare(t)
    if sigma == 0.0:
        return restore(_causal_exp(t, tau))
    return restore(_emg(t, tau, sigma)[1])


def _bare_cdf(t, tau, kern):
    # sigma = 0: tau * (1 - exp(-t/tau)) above the step, zero up to it
    return np.where(t > 0.0, tau * (1.0 - kern), 0.0)


def exp_conv_gauss_cdf(t, tau: float, sigma: float):
    """Integral of exp_conv_gauss from -inf to t.

    Equals tau * (gaussian_cdf(t) - exp_conv_gauss(t)); tends to tau as
    t -> +inf.
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

    Returns (F, dF/dt, dF/dtau, dF/dsigma); dF/dt is exp_conv_gauss.  F
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
        d_tau = phi - kern - tau * _kern_dtau(t, tau, sigma, kern, bump)
        d_phi = -bump / _SQRT2PI * t / sigma**2
        d_sigma = tau * (d_phi - _kern_dsigma(t, tau, sigma, kern, bump))
        parts = (tau * (phi - kern), kern, d_tau, d_sigma)
    return tuple(restore(p) for p in parts)


def _geom_tail_coeff(tau: float, sigma: float, period: float) -> tuple[float, float]:
    """Pieces of the pile-up sum over pulses two or more periods back.

    That sum is a pure exponential exp(off - s/tau) / (1 - q) with
    q = exp(-period/tau) and off = sigma^2/(2 tau^2) - 2*period/tau.
    Returns (off, 1/(1-q)), with zero coefficient when the tail underflows.
    """
    x = period / tau
    if x > 690.0:
        return 0.0, 0.0
    q = np.exp(-x)
    c = sigma**2 / (2.0 * tau**2)
    return c - 2.0 * x, 1.0 / (1.0 - q)


def _check_tail(tail, tau, sigma, period):
    # the tail's exp overflows once sigma^2/(2 tau^2) - period/tau passes ~709
    if not np.all(np.isfinite(tail)):
        raise ValueError(
            f"pile-up sum overflows: IRF sigma {sigma:g} ns is too wide for "
            f"lifetime {tau:g} ns at pulse period {period:g} ns")


def _check_within_period(values, period):
    if values.size and (values.min() < -period or values.max() > period):
        raise ValueError("times must lie within one period of the pulse")


def periodic_decay_value(s, tau: float, sigma: float, period: float):
    """Steady-state decay kernel under pulsed excitation with pile-up.

    Sum of exp_conv_gauss over all pulse repetitions j: sum_j k(s - j*period);
    exactly periodic in s.  Valid for s in [-period, period] (enforced), which
    covers any observation window not exceeding one period.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    s, restore = _prepare(s)
    _check_within_period(s, period)
    flat = lambda x: np.asarray(exp_conv_gauss(x, tau, sigma)).ravel()
    out = flat(s) + flat(s + period) + flat(s - period)
    off, coeff = _geom_tail_coeff(tau, sigma, period)
    if coeff != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            tail = coeff * np.exp(off - s / tau)
        _check_tail(tail, tau, sigma, period)
        out = out + tail
    return restore(out)


def periodic_decay_mass(a, b, tau: float, sigma: float, period: float):
    """Integral of periodic_decay_value over [a, b]; bounds within one period.

    The per-period integral (b - a = period) is exactly tau: wrapping
    conserves the single-pulse mass.  Raises ValueError where the pile-up
    tail overflows, which takes an IRF far wider than tau.
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
    off, coeff = _geom_tail_coeff(tau, sigma, period)
    if coeff != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            tail = coeff * tau * (np.exp(off - a_arr / tau)
                                  - np.exp(off - b_arr / tau))
        _check_tail(tail, tau, sigma, period)
        out = out + tail
    return restore(out)


# ---------------------------------------------------------------------------
# partial derivatives of exp_conv_gauss
# ---------------------------------------------------------------------------

def exp_conv_gauss_dtau(t, tau: float, sigma: float):
    """d/d tau of exp_conv_gauss at fixed t, sigma."""
    t, restore = _prepare(t)
    if sigma == 0.0:
        out = np.zeros_like(t)
        m = t >= 0.0
        out[m] = np.exp(-t[m] / tau) * t[m] / tau**2
        return restore(out)
    _, kern, bump = _emg(t, tau, sigma)
    return restore(_kern_dtau(t, tau, sigma, kern, bump))


def exp_conv_gauss_dt(t, tau: float, sigma: float):
    """d/dt of exp_conv_gauss (sigma > 0 only; the bare kernel has a step)."""
    if sigma <= 0.0:
        raise ValueError("time derivative requires sigma > 0")
    t, restore = _prepare(t)
    _, kern, bump = _emg(t, tau, sigma)
    return restore(-kern / tau + bump / (sigma * _SQRT2PI))


def exp_conv_gauss_dsigma(t, tau: float, sigma: float):
    """d/d sigma of exp_conv_gauss (sigma > 0 only)."""
    if sigma <= 0.0:
        raise ValueError("sigma derivative requires sigma > 0")
    t, restore = _prepare(t)
    _, kern, bump = _emg(t, tau, sigma)
    return restore(_kern_dsigma(t, tau, sigma, kern, bump))


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
