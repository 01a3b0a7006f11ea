"""Closed-form kernels shared by synthesis, gating, fitting and spectra.

All times are in nanoseconds.  The building blocks are a unit-area Gaussian
(instrument response) and a causal exponential decay.  Their convolution and
its antiderivative have stable closed forms, so bin contents can be integrated
exactly instead of through discrete convolution grids.  The convolution is

    (exp(-t/tau) * step(t)) (*) N(0, sigma^2)
        = 0.5 * exp(sigma^2/(2 tau^2) - t/tau) * erfc((sigma/tau - t/sigma)/sqrt(2))

which is evaluated through erfcx to stay finite for every argument size.
The module exposes only what the model integrates: the Gaussian's and the
convolution's masses (the latter with its gradient, whose dF/dt is the
kernel itself) and the steady-state masses under pulsed excitation, each a
CDF difference on one edge array.  The Gaussian CDF also gives the
wavelength masses, through emission.SpectralProfile.cdf.
erfcx and the Gaussian CDF come from Cody's rational approximations in NumPy.
"""

from __future__ import annotations

import numpy as np

# Gaussian FWHM = 2*sqrt(2*ln 2)*sigma
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)

# below this erfc(z) = 2 - erfc(-z) is 2 to rounding (erfc(6) / 2 ~ 1e-17
# relative), so the kernel is exactly the pure exponential tail
# exp(sigma^2 / (2 tau^2) - t / tau); the erfcx form would carry exp's
# rounding of z^2, ~1e-13 relative by z = -25, and overflows below -26.6
_Z_SPLIT = -6.0

# Cody, Math. Comp. 23:631 (1969): erf(x) = x R(x^2) for |x| <= 0.46875,
# erfcx(x) = R(x) up to 4, then (1/sqrt(pi) - u R(u)) / x with u = 1/x^2; each
# R as (numerator, monic denominator without its leading 1) in Horner order
_CODY_SMALL = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03))
_CODY_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03))
_CODY_BIG = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3))


def _rational(x, num, den):
    p, q = num[0] * x, x
    for a, b in zip(num[1:-1], den[:-1]):
        p, q = (p + a) * x, (q + b) * x
    return (p + num[-1]) / (q + den[-1])


def erfcx(x):
    """exp(x^2) * erfc(x) on a flat float array, by Cody's approximations;
    below -0.46875 as 2 exp(x^2) - erfcx(-x), which overflows below -26.6."""
    y = np.abs(x)
    out = np.empty_like(y)
    small, big = y <= 0.46875, y > 4.0
    mid = ~(small | big)
    s = x[small]
    out[small] = np.exp(s * s) * (1.0 - s * _rational(s * s, *_CODY_SMALL))
    out[mid] = _rational(y[mid], *_CODY_MID)
    u = 1.0 / y[big] ** 2
    out[big] = (1.0 / np.sqrt(np.pi) - u * _rational(u, *_CODY_BIG)) / y[big]
    neg = x < -0.46875
    out[neg] = 2.0 * np.exp(x[neg] ** 2) - out[neg]
    return out


def _prepare(t):
    """Return (flat float array, restore) where restore() rebuilds the
    caller's shape on the last axis, collapsing a 0-d result to a float."""
    arr = np.asarray(t, dtype=float)
    shape = arr.shape

    def restore(out):
        out = out.reshape(out.shape[:-1] + shape)
        return float(out) if out.ndim == 0 else out

    return arr.ravel(), restore


def _causal_exp(t, tau):
    """exp(-t/tau) for t >= 0, zero before; overflow-safe for t << 0."""
    return np.where(t >= 0.0, np.exp(-np.maximum(t, 0.0) / tau), 0.0)


def _check_kernel_args(tau, sigma):
    if np.any(tau <= 0.0):
        raise ValueError("lifetime must be positive")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")


def _phi(w, bump, ex):
    # Gaussian CDF at sqrt(2) sigma w from exp(-w^2) and ex = erfcx(|w|)
    tail = 0.5 * bump * ex
    return np.where(w < 0.0, tail, 1.0 - tail)


def _emg(t, tau, sigma):
    """The exponential (x) Gaussian at flat float times t, sigma > 0.

    Returns (phi, kern, bump): the Gaussian CDF, the kernel, and the
    Gaussian bump exp(-t^2 / (2 sigma^2)) = sigma * sqrt(2 pi) * pdf.  The
    kernel's antiderivative is tau * (phi - kern); every kernel and
    derivative here with sigma > 0 is composed from these three arrays.
    A column of lifetimes gives kern a row each; one erfcx call serves all.
    """
    w = t / (sigma * _SQRT2)
    bump = np.exp(-0.5 * (t / sigma) ** 2)
    z = (sigma / tau - t / sigma) / _SQRT2
    kern = np.empty_like(z)
    near = z >= _Z_SPLIT
    ex = erfcx(np.concatenate([z[near], np.abs(w)]))
    n_near = ex.size - w.size
    kern[near] = 0.5 * ex[:n_near] * np.broadcast_to(bump, z.shape)[near]
    far = ~near
    if np.any(far):
        # erfc(z) = 2 - erfc(-z); the correction is below 1e-17 relative here
        t_far, tau_far = (np.broadcast_to(v, z.shape)[far] for v in (t, tau))
        kern[far] = np.exp(sigma**2 / (2.0 * tau_far**2) - t_far / tau_far)
    return _phi(w, bump, ex[n_near:]), kern, bump


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
    w = t / (sigma * _SQRT2)
    bump = np.exp(-0.5 * (t / sigma) ** 2)
    return restore(_phi(w, bump, erfcx(np.abs(w))))


def _bare_cdf(t, tau, kern):
    # sigma = 0: tau * (1 - exp(-t/tau)) above the step, zero up to it
    return np.where(t > 0.0, tau * (1.0 - kern), 0.0)


def exp_conv_gauss_cdf(t, tau, sigma: float):
    """Integral from -inf to t of the causal exponential (peak 1 before
    blur) convolved with the Gaussian.

    Equals tau * (gaussian_cdf(t) - kernel(t)); tends to tau as t -> +inf.
    sigma = 0 integrates the bare exponential.  A 1-d array of lifetimes
    gives one row per lifetime, each equal to its single-lifetime call.
    """
    col = np.asarray(tau, dtype=float)[..., None]
    _check_kernel_args(col, sigma)
    t, restore = _prepare(t)
    if sigma == 0.0:
        return restore(_bare_cdf(t, col, _causal_exp(t, col)))
    phi, kern, _ = _emg(t, col, sigma)
    return restore(col * (phi - kern))


def exp_conv_gauss_cdf_grad(t, tau, sigma: float):
    """F = exp_conv_gauss_cdf and its partial derivatives, from one kernel
    evaluation.

    Returns (F, dF/dt, dF/dtau, dF/dsigma); dF/dt is the kernel itself.  F
    depends on sigma only through sigma^2, so dF/dsigma is zero at sigma = 0.
    A 1-d array of lifetimes gives one row per lifetime in each part.
    """
    tau = np.asarray(tau, dtype=float)[..., None]
    _check_kernel_args(tau, sigma)
    t, restore = _prepare(t)
    if sigma == 0.0:
        kern = _causal_exp(t, tau)
        d_tau = np.where(t > 0.0, 1.0 - kern - (t / tau) * kern, 0.0)
        parts = (_bare_cdf(t, tau, kern), kern, d_tau, np.zeros_like(kern))
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


def periodic_decay_mass(edges, tau: float, sigma: float, period: float):
    """Steady-state kernel mass between consecutive edges under pulsed
    excitation: n masses from a 1-d array of n + 1 edges.

    The steady-state kernel is the sum over all pulse repetitions j of the
    kernel at s - j*period, exactly periodic in s; edges must lie within
    one period of the pulse.  The pulses one period either side are summed
    directly, the older ones as a geometric series.  The per-period
    integral (edges a period apart) is exactly tau: wrapping conserves the
    single-pulse mass.  Raises ValueError where the pile-up tail overflows,
    which takes an IRF far wider than tau.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    e = np.asarray(edges, dtype=float)
    if e.size and (e.min() < -period or e.max() > period):
        raise ValueError("times must lie within one period of the pulse")
    # this pulse and the pulses one period back and ahead, in one kernel call
    f = exp_conv_gauss_cdf(np.stack([e, e + period, e - period]), tau, sigma)
    out = (f[0, 1:] - f[0, :-1] + f[1, 1:] - f[1, :-1]
           + f[2, 1:] - f[2, :-1])
    # pulses two or more periods back sum to exp(off - s/tau) / (1 - q)
    # with q = exp(-period/tau); skipped once q underflows
    x = period / tau
    if x <= 690.0:
        off = sigma**2 / (2.0 * tau**2) - 2.0 * x
        coeff = 1.0 / (1.0 - np.exp(-x))
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.exp(off - e / tau)
            tail = coeff * tau * (g[:-1] - g[1:])
        # exp overflows once sigma^2/(2 tau^2) - period/tau passes ~709
        if not np.all(np.isfinite(tail)):
            raise ValueError(
                f"pile-up sum overflows: IRF sigma {sigma:g} ns is too wide "
                f"for lifetime {tau:g} ns at pulse period {period:g} ns")
        out = out + tail
    return out


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


def median_step(centers) -> float:
    """Median spacing of finite grid centers (at least two).

    The middle of the sorted spacings, bit for bit what np.median gives.
    np.median's NaN check imports numpy.ma, ~15 ms, more than a small fit
    takes.
    """
    d = np.sort(np.diff(np.asarray(centers, dtype=float)))
    return float(0.5 * (d[(d.size - 1) // 2] + d[d.size // 2]))
