"""Closed-form kernels shared by synthesis, gating, fitting and spectra.

All times are in nanoseconds.  The building blocks are a unit-area Gaussian
(instrument response) and a causal exponential decay.  Their convolution and
its antiderivative have stable closed forms, so bin contents can be integrated
exactly instead of through discrete convolution grids.  The convolution is

    (exp(-t/tau) * step(t)) (*) N(0, sigma^2)
        = 0.5 * exp(sigma^2/(2 tau^2) - t/tau) * erfc((sigma/tau - t/sigma)/sqrt(2))

which is evaluated through erfcx to stay finite for every argument size.
The module exposes only what the model integrates: the Gaussian's and the
convolution's masses (the latter with its gradient in t and tau, whose dF/dt
is the kernel itself) and the steady-state masses under pulsed excitation,
each a CDF difference on one edge array.  The Gaussian CDF also gives the
wavelength masses, through emission.SpectralProfile.cdf.
erfcx and the Gaussian CDF come from Cody's rational approximations in NumPy.

Lifetimes and the pulse period must be positive and finite, and sigma
nonnegative and finite; anything else, NaN included, raises ValueError
instead of returning NaN masses.  The convolution also refuses lifetimes
and sigma from 2**511 on, where their squares overflow.  A fit evaluates
these kernels once per parameter point on a few hundred times, where each
NumPy call costs more than its arithmetic.  So the Horner loops run in
place, shared subexpressions are computed once, and times wholly past the
pulse skip the sigma = 0 masking; each keeps the operation order of the
formula written out, so every value is the same bit for bit.
"""

from __future__ import annotations

import numpy as np

# Gaussian FWHM = 2*sqrt(2*ln 2)*sigma
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)

# the narrowest nonzero width and shortest lifetime, in ns or nm, that a
# model or a fit takes: the kernels divide t by tau and by sigma^2 and square
# t / sigma, all finite from this scale up for |t| below MAX_TIME_NS
MIN_SCALE = 1e-100
MAX_TIME_NS = 1e53
# lifetimes and sigma stay below this, so that 2 tau^2 and sigma^2 are finite
_MAX_SCALE = 2.0 ** 511

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
_INV_SQRTPI = 1.0 / np.sqrt(np.pi)


def _rational(x, num, den):
    # p = ((num_0 x + num_1) x + ...) x and q = ((x + den_0) x + ...) x, in
    # place on two fresh arrays; then (p + num_-1) / (q + den_-1)
    p, q = num[0] * x, x.copy()
    for a, b in zip(num[1:-1], den[:-1]):
        p += a
        p *= x
        q += b
        q *= x
    p += num[-1]
    q += den[-1]
    p /= q
    return p


def erfcx(x):
    """exp(x^2) * erfc(x) on a flat float array, by Cody's approximations;
    below -0.46875 as 2 exp(x^2) - erfcx(-x), which overflows below -26.6."""
    y = np.abs(x)
    out = np.empty_like(y)
    small, big = y <= 0.46875, y > 4.0
    mid = ~(small | big)
    s = x[small]
    s_sq = s * s
    out[small] = np.exp(s_sq) * (1.0 - s * _rational(s_sq, *_CODY_SMALL))
    out[mid] = _rational(y[mid], *_CODY_MID)
    y_big = y[big]
    u = 1.0 / y_big ** 2
    out[big] = (_INV_SQRTPI - u * _rational(u, *_CODY_BIG)) / y_big
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


def _bare(t, tau):
    """(F, kern, dF/dtau) for sigma = 0: kern = exp(-t/tau) from t = 0 on,
    zero before (overflow-safe for t << 0); F = tau * (1 - kern) and
    dF/dtau = 1 - kern - (t / tau) * kern above the step, zero up to it.
    Times all past the step need no masking: there -t/tau is -(t/tau)."""
    if (t > 0.0).all():
        ratio = t / tau
        kern = np.exp(-ratio)
        rest = 1.0 - kern
        return tau * rest, kern, rest - ratio * kern
    kern = np.where(t >= 0.0, np.exp(-np.maximum(t, 0.0) / tau), 0.0)
    after, rest = t > 0.0, 1.0 - kern
    return (np.where(after, tau * rest, 0.0), kern,
            np.where(after, rest - (t / tau) * kern, 0.0))


def _check_sigma(sigma):
    # NaN fails every comparison, so it is refused with inf
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")


def _check_kernel_args(tau, sigma):
    # NaN fails every comparison, so it is refused with inf
    if not ((tau > 0.0) & (tau < _MAX_SCALE)).all():
        raise ValueError(
            "lifetime must be positive and finite, below 2**511 ns")
    if not 0.0 <= sigma < _MAX_SCALE:
        raise ValueError(
            "sigma must be nonnegative and finite, below 2**511 ns")


def check_scale(name: str, value: float, unit: str,
                kernel_factor: float | None = None) -> None:
    """Refuse a width or lifetime above 0 and below MIN_SCALE.  Given the
    factor that turns it into a convolution kernel argument (1 for a
    lifetime, FWHM_TO_SIGMA for an IRF FWHM), also refuse one whose argument
    is not below 2**511 ns (or is NaN), as the kernels would, but naming
    the value."""
    if 0.0 < value < MIN_SCALE:
        raise ValueError(f"{name} {value:g} {unit} is below {MIN_SCALE:g} "
                         f"{unit}, where the closed forms overflow")
    if kernel_factor is not None and not value * kernel_factor < _MAX_SCALE:
        raise ValueError(f"{name} {value:g} {unit} is not below "
                         f"{_MAX_SCALE / kernel_factor:.6g} {unit}, where "
                         "its square in the decay kernels overflows")


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
    t_sigma = t / sigma
    w = t / (sigma * _SQRT2)
    bump = np.exp(-0.5 * t_sigma ** 2)
    z = (sigma / tau - t_sigma) / _SQRT2
    near = z >= _Z_SPLIT
    ex = erfcx(np.concatenate([z[near], np.abs(w)]))
    n_near = ex.size - w.size
    # 0.5 * erfcx(z) * bump where z is near, zero elsewhere until the far
    # form below replaces it
    kern = np.zeros_like(z)
    kern[near] = 0.5 * ex[:n_near]
    kern *= bump
    far = ~near
    if far.any():
        # erfc(z) = 2 - erfc(-z); the correction is below 1e-17 relative here
        kern[far] = np.exp((sigma**2 / (2.0 * tau**2) - t / tau)[far])
    return _phi(w, bump, ex[n_near:]), kern, bump


def gaussian_cdf(t, sigma: float):
    """Kernel mass below t.  sigma = 0 degenerates to a step at 0.

    The delta sits at t = 0 and its mass accrues just above 0, so a bin whose
    left edge is exactly 0 still collects the photon.
    """
    _check_sigma(sigma)
    t, restore = _prepare(t)
    if sigma == 0.0:
        return restore((t > 0.0).astype(float))
    w = t / (sigma * _SQRT2)
    bump = np.exp(-0.5 * (t / sigma) ** 2)
    return restore(_phi(w, bump, erfcx(np.abs(w))))


def exp_conv_gauss_cdf(t, tau, sigma: float):
    """Integral from -inf to t of the causal exponential (peak 1 before
    blur) convolved with the Gaussian.

    Equals tau * (gaussian_cdf(t) - kernel(t)); tends to tau as t -> +inf.
    sigma = 0 integrates the bare exponential.  A 1-d array of lifetimes
    gives one row per lifetime, each equal to its single-lifetime call.
    Raises ValueError for a lifetime that is not positive and finite, or a
    sigma that is negative or not finite.
    """
    col = np.asarray(tau, dtype=float)[..., None]
    _check_kernel_args(col, sigma)
    t, restore = _prepare(t)
    if sigma == 0.0:
        return restore(_bare(t, col)[0])
    phi, kern, _ = _emg(t, col, sigma)
    return restore(col * (phi - kern))


def exp_conv_gauss_cdf_grad(t, tau, sigma: float):
    """F = exp_conv_gauss_cdf and its partial derivatives in t and tau, from
    one kernel evaluation.

    Returns (F, dF/dt, dF/dtau); dF/dt is the kernel itself.  A 1-d array
    of lifetimes gives one row per lifetime in each part.  Each
    shared subexpression is computed once, in the operation order of the
    formulas written out below, so every part is bit for bit the same.
    """
    tau = np.asarray(tau, dtype=float)[..., None]
    _check_kernel_args(tau, sigma)
    t, restore = _prepare(t)
    if sigma == 0.0:
        parts = _bare(t, tau)
    else:
        phi, kern, bump = _emg(t, tau, sigma)
        # dkern/dtau = kern * (t - sigma^2/tau) / tau^2 + g * sigma / tau^2
        # with g = bump / sqrt(2 pi); F = tau * (phi - kern), so
        # dF/dtau = phi - kern - tau * dkern/dtau
        g, tau_sq, f = bump / _SQRT2PI, tau**2, phi - kern
        d_kern_tau = kern * (t - sigma**2 / tau) / tau_sq + g * sigma / tau_sq
        parts = (tau * f, kern, f - tau * d_kern_tau)
    return tuple(map(restore, parts))


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
    if not 0.0 < period < np.inf:
        raise ValueError("period must be positive and finite")
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
        q = np.exp(-x)
        if q == 1.0:
            raise ValueError(
                f"lifetime {tau:g} ns is too long for pulse period "
                f"{period:g} ns: exp(-period/tau) rounds to 1, so the "
                "pile-up series diverges")
        off = sigma**2 / (2.0 * tau**2) - 2.0 * x
        coeff = 1.0 / (1.0 - q)
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
