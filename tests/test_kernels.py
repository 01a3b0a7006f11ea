"""Closed-form kernel checks against independently computed values.

Expected numbers were produced with a 50-digit arbitrary-precision evaluation
of the defining integrals (series summation for the periodic sums) and are
frozen here.
"""

import math
import warnings

import numpy as np
import pytest

from spdclum import kernels

TAU = 0.73
SIGMA_015 = kernels.FWHM_TO_SIGMA * 0.15


def density(t, tau, sigma):
    """The kernel itself: dF/dt of exp_conv_gauss_cdf."""
    return kernels.exp_conv_gauss_cdf_grad(t, tau, sigma)[1]


# exp(-t/tau) (x) gaussian(sigma) for tau=0.73, IRF FWHM 0.15
EMG_SPOTS = {
    -0.2: 0.00082569692975704987,
    0.0: 0.46700733763469709,
    0.1: 0.81483527819640838,
    0.73: 0.36928265491678132,
    2.0: 0.064834399948157706,
}


def test_fwhm_sigma_conversion():
    assert SIGMA_015 == pytest.approx(0.063699135021601428, rel=1e-14)


def test_emg_spot_values():
    for t, expected in EMG_SPOTS.items():
        got = density(t, TAU, SIGMA_015)
        assert got == pytest.approx(expected, rel=1e-12), t


def test_emg_vectorized_matches_scalars():
    ts = np.array(sorted(EMG_SPOTS))
    got = density(ts, TAU, SIGMA_015)
    want = np.array([EMG_SPOTS[t] for t in sorted(EMG_SPOTS)])
    assert np.allclose(got, want, rtol=1e-12)


def test_emg_integral_is_tau():
    # the convolution must preserve the decay's time integral
    hi = kernels.exp_conv_gauss_cdf(1e4, TAU, SIGMA_015)
    lo = kernels.exp_conv_gauss_cdf(-1e4, TAU, SIGMA_015)
    assert hi - lo == pytest.approx(TAU, rel=1e-12)


def test_emg_integral_preserved_across_widths():
    for fwhm in (0.0, 0.05, 0.15, 0.5):
        sigma = kernels.FWHM_TO_SIGMA * fwhm
        mass = (kernels.exp_conv_gauss_cdf(500.0, TAU, sigma)
                - kernels.exp_conv_gauss_cdf(-500.0, TAU, sigma))
        assert mass == pytest.approx(TAU, rel=1e-6)


def test_emg_sigma_zero_is_bare_exponential():
    t = np.array([-1.0, 0.5, 2.0])
    got = density(t, TAU, 0.0)
    want = np.where(t >= 0.0, np.exp(-t / TAU), 0.0)
    assert np.allclose(got, want, rtol=1e-14)


def test_emg_far_negative_underflows_to_zero():
    # deep in the Gaussian's left tail both branches must agree and vanish
    assert density(-30.0, TAU, SIGMA_015) == 0.0
    assert np.isfinite(density(-1e6, 1e6, 1.0))


@pytest.mark.parametrize("tau, sigma", [(1.0, 0.1), (TAU, SIGMA_015)],
                         ids=["tau1-sigma0.1", "irf-0.15"])
def test_emg_left_tail_matches_mpmath(tau, sigma):
    # z = (sigma/tau - t/sigma)/sqrt(2) from -25 to -0.5 spans both sides
    # of the far-branch switch; the kernel is exact to rounding on each
    import mpmath

    rng = np.random.default_rng(20261019)
    z = np.concatenate([rng.uniform(-25.0, -0.5, 300),
                        [-25.0, kernels._Z_SPLIT, -0.5]])
    t = sigma * (sigma / tau - np.sqrt(2.0) * z)
    with mpmath.workdps(40):
        s, u = mpmath.mpf(sigma), mpmath.mpf(tau)
        ref = np.array([float(
            mpmath.exp(s**2 / (2 * u**2) - v / u)
            * mpmath.erfc((s / u - v / s) / mpmath.sqrt(2)) / 2)
            for v in map(mpmath.mpf, t)])
    got = density(t, tau, sigma)
    assert np.max(np.abs(got - ref) / ref) <= 2e-14
    # far side of the switch stays finite for extreme arguments
    assert np.isfinite(density(1e6, 1e4, 0.1))


def test_gaussian_cdf_matches_erf():
    ts = np.linspace(-3.0, 3.0, 13)
    want = 0.5 * (1.0 + np.vectorize(math.erf)(ts / math.sqrt(2.0)))
    got = kernels.gaussian_cdf(ts, 1.0)
    assert np.allclose(got, want, rtol=1e-14)


def test_gaussian_cdf_sigma_zero_step():
    assert kernels.gaussian_cdf(-1.0, 0.0) == 0.0
    assert kernels.gaussian_cdf(0.0, 0.0) == 0.0
    assert kernels.gaussian_cdf(1e-12, 0.0) == 1.0


def test_periodic_mass_single_period_is_tau():
    period = 1000.0
    mass = kernels.periodic_decay_mass([-period / 2, period / 2], 1850.0,
                                       0.0, period)
    # steady-state: every period collects exactly one pulse's integral
    assert mass.shape == (1,)
    assert mass[0] == pytest.approx(1850.0, rel=1e-9)


def test_periodic_mass_oracle_values():
    # gate [-5, 5] ns, tau = 0.73 ns, 1 kHz: no pile-up contribution
    frac = kernels.periodic_decay_mass([-5.0, 5.0], 0.73, 0.0, 1e6)[0] / 0.73
    assert frac == pytest.approx(0.99893981840393962, rel=1e-12)
    # same gate, tau = 1850 ns at 100 kHz: pile-up raises the in-gate share
    frac2 = kernels.periodic_decay_mass([-5.0, 5.0], 1850.0, 0.0,
                                        1e4)[0] / 1850.0
    assert frac2 == pytest.approx(0.0027234456335098377, rel=1e-12)
    # and without pile-up the share is smaller
    frac3 = kernels.periodic_decay_mass([-5.0, 5.0], 1850.0, 0.0,
                                        1e9)[0] / 1850.0
    assert frac3 == pytest.approx(0.0026990536898923045, rel=1e-9)
    assert frac2 > frac3


def test_periodic_mass_positive_and_periodic():
    # the same short bin one period apart holds the same steady-state mass;
    # the bins at -period and +period need the pulses one period either side
    tau, sigma, period, width = 1850.0, SIGMA_015, 1e4, 1.0
    for lo in (-period, -period / 2, -width):
        left = kernels.periodic_decay_mass([lo, lo + width], tau, sigma,
                                           period)[0]
        right = kernels.periodic_decay_mass(
            [lo + period, lo + period + width], tau, sigma, period)[0]
        assert left > 0.0
        assert left == pytest.approx(right, rel=1e-9), lo


def test_periodic_outside_period_rejected():
    with pytest.raises(ValueError):
        kernels.periodic_decay_mass([0.0, 2e4], 1850.0, 0.0, 1e4)
    with pytest.raises(ValueError):
        kernels.periodic_decay_mass([-2e4, 0.0], 1850.0, 0.0, 1e4)
    with pytest.raises(ValueError):
        kernels.periodic_decay_mass([-5.0, 0.0, 1e4 + 1.0], 1850.0, 0.0, 1e4)


def _six_row_masses(edges, tau, sigma, period):
    """The per-interval form: the kernel CDF at both bounds of every bin
    for this pulse and the pulses one period back and ahead, and the tail
    of older pulses from one exponential per bound."""
    a, b = edges[:-1], edges[1:]
    f = kernels.exp_conv_gauss_cdf(np.stack(
        [b, a, b + period, a + period, b - period, a - period]), tau, sigma)
    out = f[0] - f[1] + f[2] - f[3] + f[4] - f[5]
    x = period / tau
    if x <= 690.0:
        off = sigma**2 / (2.0 * tau**2) - 2.0 * x
        coeff = 1.0 / (1.0 - np.exp(-x))
        out = out + coeff * tau * (np.exp(off - a / tau)
                                   - np.exp(off - b / tau))
    return out


@pytest.mark.parametrize("sigma",
                         [0.0, SIGMA_015, kernels.FWHM_TO_SIGMA * 2.0],
                         ids=["bare", "irf0.15", "irf2"])
@pytest.mark.parametrize("rate_hz", [10.0, 1e3, 1e5, 1e7])
def test_periodic_mass_matches_per_interval_form(sigma, rate_hz):
    # one edge array gives, bit for bit, the masses of the six-row form
    period = 1e9 / rate_hz
    edge_sets = (np.linspace(-period, 0.0, 201), np.linspace(0.0, period, 201),
                 np.linspace(-period / 2, period / 2, 1001),
                 np.linspace(-2.0, 8.0, 201), np.array([-period, period]))
    for tau in (0.73, 1850.0, 9950.0):
        for edges in edge_sets:
            got = kernels.periodic_decay_mass(edges, tau, sigma, period)
            want = _six_row_masses(edges, tau, sigma, period)
            assert got.tobytes() == want.tobytes(), (tau, edges[[0, -1]])


def _central(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_kernel_derivatives_match_finite_differences():
    # dF/dtau and dF/dsigma of exp_conv_gauss_cdf_grad against central
    # differences of exp_conv_gauss_cdf
    rng = np.random.default_rng(20240817)
    cdf = kernels.exp_conv_gauss_cdf
    for _ in range(10):
        tau = float(rng.uniform(0.2, 5.0))
        sigma = float(rng.uniform(0.02, 0.5))
        t = float(rng.uniform(-0.5, 3.0))
        _, _, d_tau, d_sigma = kernels.exp_conv_gauss_cdf_grad(t, tau, sigma)
        h_tau = 1e-5 * tau
        num = _central(lambda x: cdf(t, x, sigma), tau, h_tau)
        assert d_tau == pytest.approx(num, rel=1e-4, abs=1e-9)

        h_s = 1e-5 * sigma
        num = _central(lambda x: cdf(t, tau, x), sigma, h_s)
        assert d_sigma == pytest.approx(num, rel=1e-4, abs=1e-8)

    # the bare exponential: dF/dtau by differences, dF/dsigma exactly zero
    for t in (-0.5, 0.3, 2.0):
        _, _, d_tau, d_sigma = kernels.exp_conv_gauss_cdf_grad(t, TAU, 0.0)
        num = _central(lambda x: cdf(t, x, 0.0), TAU, 1e-5 * TAU)
        assert d_tau == pytest.approx(num, rel=1e-4, abs=1e-9)
        assert d_sigma == 0.0


def test_cdf_is_antiderivative():
    ts = np.linspace(-1.0, 5.0, 7)
    h = 1e-6
    for t in ts:
        num = (kernels.exp_conv_gauss_cdf(t + h, TAU, SIGMA_015)
               - kernels.exp_conv_gauss_cdf(t - h, TAU, SIGMA_015)) / (2 * h)
        ana = density(t, TAU, SIGMA_015)
        assert num == pytest.approx(ana, rel=1e-7, abs=1e-12)
    # the gradient's F is exp_conv_gauss_cdf itself
    F = kernels.exp_conv_gauss_cdf_grad(ts, TAU, SIGMA_015)[0]
    assert np.array_equal(F, kernels.exp_conv_gauss_cdf(ts, TAU, SIGMA_015))


def test_periodic_pileup_overflow_raises():
    # IRF 100 ns FWHM against the 0.73 ns lifetime at 10 MHz: the pile-up
    # tail's exponential overflows; no overflow warning may escape either
    sigma = kernels.FWHM_TO_SIGMA * 100.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            kernels.periodic_decay_mass([-40.0, 40.0], 0.73, sigma, 100.0)
    message = str(err.value)
    assert "pile-up" in message
    assert f"IRF sigma {sigma:g} ns" in message
    assert "lifetime 0.73 ns" in message
    assert "period 100 ns" in message


# Cody's three ranges, split at 0.46875 and 4, and the reflection below
# -0.46875; the kernel switches to its far branch at _Z_SPLIT = -6
_ERFCX_RANGES = [(-0.46875, 0.46875), (0.46875, 4.0), (4.0, 50.0),
                 (50.0, 1e6), (-4.0, -0.46875), (-26.0, -4.0)]
_ERFCX_EDGES = [-0.46875, 0.46875, -4.0, 4.0, kernels._Z_SPLIT, 50.0, 1e6]


def _erfcx_reference(x):
    import mpmath

    with mpmath.workdps(40):
        return np.array([float(mpmath.erfc(v) * mpmath.exp(v * v))
                         for v in map(mpmath.mpf, x)])


def _erfcx_bar(x):
    # 2 exp(x^2) - erfcx(-x) carries exp's rounding of x^2 below -4
    return np.where(x < -4.0, 1e-13, 2e-15)


@pytest.mark.parametrize("lo, hi", _ERFCX_RANGES)
def test_erfcx_accuracy(lo, hi):
    from scipy.special import erfcx as scipy_erfcx

    rng = np.random.default_rng(20261018)
    x = np.concatenate([rng.uniform(lo, hi, 200),
                        [e for e in _ERFCX_EDGES if lo <= e <= hi]])
    x = np.concatenate([x, np.nextafter(x, lo), np.nextafter(x, hi)])
    got = kernels.erfcx(x)
    for ref in (_erfcx_reference(x), scipy_erfcx(x)):
        assert np.all(np.abs(got - ref) <= _erfcx_bar(x) * ref)


def test_gaussian_cdf_absolute_accuracy():
    # bin masses are differences of the CDF, so its absolute error counts
    import mpmath
    from scipy.special import ndtr

    rng = np.random.default_rng(20261018)
    edges = np.sqrt(2.0) * np.array(_ERFCX_EDGES[:4])
    t = np.concatenate([rng.uniform(-40.0, 40.0, 400), edges, [0.0]])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.ncdf(v)) for v in map(mpmath.mpf, t)])
    got = kernels.gaussian_cdf(t, 1.0)
    assert np.max(np.abs(got - ref)) <= 5e-16
    assert np.max(np.abs(got - ndtr(t))) <= 5e-16


@pytest.mark.parametrize("sigma", [0.0, SIGMA_015, 0.4],
                         ids=["bare", "irf-0.15", "wide"])
def test_grad_lifetime_axis_rows_match_single_calls(sigma):
    # a 1-d lifetime array gives one row per lifetime in each part, equal
    # bit for bit to the single-lifetime call
    rng = np.random.default_rng(7)
    ts = np.sort(rng.uniform(-3.0, 12.0, 301))
    taus = np.array([0.0025, 0.73, 1.9, 40.0])
    batched = kernels.exp_conv_gauss_cdf_grad(ts, taus, sigma)
    for k, tau in enumerate(taus):
        single = kernels.exp_conv_gauss_cdf_grad(ts, tau, sigma)
        for rows, part in zip(batched, single):
            assert rows.shape == (taus.size, ts.size)
            assert np.array_equal(rows[k], part)
    parts = kernels.exp_conv_gauss_cdf_grad(0.5, taus, sigma)
    assert all(p.shape == (taus.size,) for p in parts)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_kernel_arguments_rejected(bad):
    # NaN passes a <= or < test, so each argument needs a check that NaN
    # and inf fail; a NaN width would give all-NaN masses, not an error
    ts = np.linspace(-1.0, 5.0, 7)
    for fn in (kernels.exp_conv_gauss_cdf, kernels.exp_conv_gauss_cdf_grad):
        with pytest.raises(ValueError, match="lifetime must be positive "
                                             "and finite"):
            fn(ts, bad, 0.1)
        with pytest.raises(ValueError, match="lifetime must be positive "
                                             "and finite"):
            fn(ts, np.array([1.0, bad]), 0.1)
        with pytest.raises(ValueError, match="sigma must be nonnegative "
                                             "and finite"):
            fn(ts, 1.0, bad)
    with pytest.raises(ValueError, match="sigma must be nonnegative "
                                         "and finite"):
        kernels.gaussian_cdf(ts, bad)
    edges = np.linspace(-1.0, 5.0, 7)
    with pytest.raises(ValueError, match="period must be positive and "
                                         "finite"):
        kernels.periodic_decay_mass(edges, 1.0, 0.1, bad)
    with pytest.raises(ValueError, match="lifetime must be positive and "
                                         "finite"):
        kernels.periodic_decay_mass(edges, bad, 0.1, 100.0)


def _written_rational(x, num, den):
    # Cody's rational function term by term, one new array per operation
    p, q = num[0] * x, x
    for a, b in zip(num[1:-1], den[:-1]):
        p, q = (p + a) * x, (q + b) * x
    return (p + num[-1]) / (q + den[-1])


@pytest.mark.parametrize("sigma", [0.0, SIGMA_015, 0.4],
                         ids=["bare", "irf-0.15", "wide"])
def test_kernels_are_the_written_formulas_bit_for_bit(sigma):
    # the kernels share subexpressions and work in place; every part must
    # still equal, bit for bit, its formula written out in full
    for coeffs in (kernels._CODY_SMALL, kernels._CODY_MID, kernels._CODY_BIG):
        x = np.linspace(0.0, 30.0, 3001)
        got = kernels._rational(x, *coeffs)
        assert got.tobytes() == _written_rational(x, *coeffs).tobytes()
    taus = np.array([0.0025, 0.73, 40.0])[:, None]
    for ts in (np.linspace(-3.0, 12.0, 301), np.linspace(0.05, 12.0, 240)):
        got = kernels.exp_conv_gauss_cdf_grad(ts, taus[:, 0], sigma)
        if sigma == 0.0:
            kern = np.where(ts >= 0.0, np.exp(-np.maximum(ts, 0.0) / taus),
                            0.0)
            want = (np.where(ts > 0.0, taus * (1.0 - kern), 0.0), kern,
                    np.where(ts > 0.0, 1.0 - kern - (ts / taus) * kern, 0.0),
                    np.zeros_like(kern))
        else:
            phi, kern, bump = kernels._emg(ts, taus, sigma)
            root = kernels._SQRT2PI
            d_kern_tau = (kern * (ts - sigma**2 / taus) / taus**2
                          + bump / root * sigma / taus**2)
            d_kern_sigma = (kern * sigma / taus**2
                            - bump / root * (1.0 / taus + ts / sigma**2))
            d_phi = -bump / root * ts / sigma**2
            want = (taus * (phi - kern), kern,
                    phi - kern - taus * d_kern_tau,
                    taus * (d_phi - d_kern_sigma))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
