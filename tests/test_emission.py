"""Emission model: spectra, decay, rates, pump coupling."""

import inspect

import numpy as np
import pytest

from spdclum import emission
from spdclum.emission import (DecayModel, EmissionModel, PumpConfig,
                              SpectralProfile, WavelengthGrid, band_mass,
                              luminescence_decay_intensity, make_model,
                              retarget_pump, spdc_center_wavelength,
                              spectral_bin_masses)


def test_degenerate_center_exact_across_pump_range():
    for w in np.linspace(240.0, 300.0, 61):
        model = make_model(float(w))
        assert model.spdc_spectrum.center_nm == 2.0 * w


def test_pump_out_of_range_rejected():
    with pytest.raises(ValueError):
        PumpConfig(wavelength_nm=200.0)
    with pytest.raises(ValueError):
        PumpConfig(wavelength_nm=310.0)
    with pytest.raises(ValueError):
        make_model(239.9)


def test_spdc_center_helper():
    assert spdc_center_wavelength(PumpConfig(267.0)) == 534.0


def test_luminescence_density_pump_independent():
    edges = np.linspace(300.0, 700.0, 802)
    base = make_model(267.0)
    masses = spectral_bin_masses(base.lum_spectrum, base.grid, edges)
    for w, rate in ((250.0, 1000.0), (280.0, 5.0), (300.0, 1e6)):
        other = make_model(w, repetition_rate_hz=rate)
        assert other.lum_spectrum == base.lum_spectrum
        assert np.array_equal(
            spectral_bin_masses(other.lum_spectrum, other.grid, edges), masses)


def test_densities_normalized_on_grid():
    model = make_model()
    grid = model.grid
    half = 0.5 * grid.step_nm
    edges = np.append(grid.centers() - half, grid.max_nm + half)
    for profile in (model.lum_spectrum, model.spdc_spectrum):
        assert band_mass(profile, grid, (grid.min_nm, grid.max_nm)) == \
            pytest.approx(1.0, abs=1e-6)
        assert spectral_bin_masses(profile, grid, edges).sum() == \
            pytest.approx(1.0, abs=1e-6)


def test_luminescence_shape_oracle_values():
    model = make_model()
    lum = model.lum_spectrum
    # skewed log-width shape, center 430 nm, FWHM 60 nm, skew 0.4: density
    # in 1/nm, as the mass of a narrow bin over its width
    for lam, density, rel in ((430.0, 0.015176787710969184, 1e-5),
                              (490.0, 0.0031961213065784195, 1e-5),
                              (370.0, 3.930539826098347e-8, 1e-4)):
        mass = band_mass(lum, model.grid, (lam - 1e-3, lam + 1e-3))
        assert mass / 2e-3 == pytest.approx(density, rel=rel)
    assert lum.shape(430.0) == 1.0
    # the shape vanishes at and below the finite support edge near 357 nm
    assert lum.shape(356.0) == 0.0
    assert lum.shape(250.0) == 0.0
    assert band_mass(lum, model.grid, (300.0, 356.0)) == 0.0


def test_luminescence_realized_fwhm_is_nominal():
    model = make_model()
    lam = np.linspace(300.0, 700.0, 400001)
    vals = model.lum_spectrum.shape(lam)
    peak = vals.max()
    above = lam[vals >= 0.5 * peak]
    fwhm = above[-1] - above[0]
    assert fwhm == pytest.approx(60.0, abs=1e-2)
    # mode sits at the nominal center
    assert lam[np.argmax(vals)] == pytest.approx(430.0, abs=1e-2)


def test_luminescence_skew_long_tail_red():
    model = make_model()
    lum = model.lum_spectrum
    assert lum.shape(430.0 + 60.0) > lum.shape(430.0 - 60.0)
    assert band_mass(lum, model.grid, (430.0, 490.0)) > \
        band_mass(lum, model.grid, (370.0, 430.0))


def test_band_masses_oracle_values():
    model = make_model()
    lum = model.lum_spectrum
    grid = model.grid
    assert band_mass(lum, grid, (524.0, 544.0)) == pytest.approx(
        0.010484904946946757, rel=1e-5)
    assert band_mass(lum, grid, (460.0, 700.0)) == pytest.approx(
        0.25039881578486748, rel=1e-5)
    assert band_mass(lum, grid, (400.0, 460.0)) == pytest.approx(
        0.7206590343313215, rel=1e-5)
    assert band_mass(model.spdc_spectrum, grid, (460.0, 700.0)) == \
        pytest.approx(1.0, abs=1e-9)
    assert band_mass(model.lum_spectrum, model.grid,
                     (524.0, 544.0)) == pytest.approx(0.010484904946946757,
                                                      rel=1e-5)


def test_band_mass_validation():
    model = make_model()
    with pytest.raises(ValueError):
        band_mass(model.lum_spectrum, model.grid, (500.0, 400.0))


def test_band_mass_is_one_synthesis_bin():
    # filters and synthesis integrate the spectrum with the same rule
    model = make_model()
    edges = np.array([400.0, 433.25, 466.5, 499.75, 533.0])
    for profile in (model.lum_spectrum, model.spdc_spectrum):
        masses = emission.spectral_bin_masses(profile, model.grid, edges)
        for k in range(edges.size - 1):
            assert band_mass(profile, model.grid,
                             (edges[k], edges[k + 1])) == masses[k]


_SPECTRA = {
    "spdc": SpectralProfile(534.0, 10.0),
    "lum": SpectralProfile(430.0, 60.0, 0.4),
    "lum-skew-1e-3": SpectralProfile(430.0, 60.0, 1e-3),
    "lum-skew-1.5": SpectralProfile(430.0, 60.0, 1.5),
}


def _mp_shape_and_cdf(profile):
    """The shape and its antiderivative in mpmath, with the constant that
    scales the antiderivative of SpectralProfile.cdf to the shape's."""
    import mpmath

    c, f, b = (mpmath.mpf(v) for v in (profile.center_nm, profile.fwhm_nm,
                                       profile.skew))
    ln2 = mpmath.log(2)
    if b == 0:
        sigma = f / (2 * mpmath.sqrt(2 * ln2))
        return (lambda lam: mpmath.exp(-4 * ln2 * ((lam - c) / f) ** 2),
                lambda lam: mpmath.ncdf((lam - c) / sigma),
                sigma * mpmath.sqrt(2 * mpmath.pi))
    delta = f * b / mpmath.sinh(b)
    s = b / mpmath.sqrt(2 * ln2)

    def arg(lam):
        return 1 + 2 * b * (lam - c) / delta

    def shape(lam):
        a = arg(lam)
        return mpmath.exp(-ln2 * (mpmath.log(a) / b) ** 2) if a > 0 else 0

    def cdf(lam):
        a = arg(lam)
        return mpmath.ncdf((mpmath.log(a) - s * s) / s) if a > 0 else 0

    return shape, cdf, delta / (2 * b) * mpmath.exp(s * s / 2) * s \
        * mpmath.sqrt(2 * mpmath.pi)


@pytest.mark.parametrize("name", list(_SPECTRA))
def test_spectral_bin_masses_match_mpmath(name):
    # default grid and synthesis edges; the 40-digit reference is the same
    # antiderivative, itself checked against quadrature of the shape
    import mpmath

    profile = _SPECTRA[name]
    grid = WavelengthGrid()
    edges = np.append(grid.centers() - 0.5, grid.max_nm + 0.5)
    clipped = np.clip(edges, grid.min_nm, grid.max_nm)
    with mpmath.workdps(40):
        shape, cdf, scale = _mp_shape_and_cdf(profile)
        f = [cdf(mpmath.mpf(v)) for v in clipped]
        ref = np.array([float((hi - lo) / (f[-1] - f[0]))
                        for lo, hi in zip(f[:-1], f[1:])])
        for k in np.flatnonzero(ref > 1e-3)[::20]:
            lo, hi = (mpmath.mpf(v) for v in clipped[k:k + 2])
            assert mpmath.quad(shape, [lo, hi]) == pytest.approx(
                scale * (f[k + 1] - f[k]), rel=1e-25)
    got = spectral_bin_masses(profile, grid, edges)
    big = ref > 1e-4
    assert np.all(np.abs(got[big] - ref[big]) <= 1e-11 * ref[big])
    assert np.max(np.abs(got - ref)) <= 1e-15
    assert got.sum() == pytest.approx(1.0, abs=1e-15)


def test_decay_intensity_strictly_decreasing():
    model = make_model()
    t = np.linspace(0.0, 30000.0, 2000)
    vals = luminescence_decay_intensity(model, t)
    assert np.all(np.diff(vals) < 0.0)
    with pytest.raises(ValueError):
        luminescence_decay_intensity(model, -1.0)


def test_decay_intensity_oracle_value():
    model = make_model()
    assert luminescence_decay_intensity(model, 5000.0) == pytest.approx(
        0.022841947288718135, rel=1e-12)
    single = make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,))
    assert luminescence_decay_intensity(single, 0.73) == pytest.approx(
        np.exp(-1.0), rel=1e-12)


def test_decay_model_validation():
    with pytest.raises(ValueError):
        DecayModel(amplitudes=(0.5, 0.6), lifetimes_ns=(1.0, 2.0))  # sum > 1
    with pytest.raises(ValueError):
        DecayModel(amplitudes=(0.5, 0.5), lifetimes_ns=(2.0, 1.0))  # order
    with pytest.raises(ValueError):
        DecayModel(amplitudes=(0.5, 0.5), lifetimes_ns=(1.0,))  # pairing
    with pytest.raises(ValueError):
        DecayModel(amplitudes=(1.0,), lifetimes_ns=(1.0,), irf_fwhm_ns=-0.1)
    model = DecayModel()
    assert model.mean_mass_ns == pytest.approx(
        0.9 * 0.73 + 0.07 * 1850.0 + 0.03 * 9950.0)


def test_retarget_pump_moves_only_spdc():
    model = make_model(267.0)
    moved = retarget_pump(model, 290.0)
    assert moved.spdc_spectrum.center_nm == 580.0
    assert moved.lum_spectrum == model.lum_spectrum
    assert moved.lum_decay == model.lum_decay
    with pytest.raises(ValueError):
        retarget_pump(model, 301.0)


def test_emission_model_center_consistency_enforced():
    with pytest.raises(ValueError):
        EmissionModel(spdc_spectrum=SpectralProfile(500.0, 10.0))


def test_spectral_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile(534.0, -1.0)
    with pytest.raises(ValueError):
        SpectralProfile(430.0, 60.0, skew=-0.1)
    with pytest.raises(ValueError, match="the SPDC line cannot be skewed"):
        EmissionModel(spdc_spectrum=SpectralProfile(534.0, 10.0, skew=0.2))


def test_wavelength_grid():
    grid = WavelengthGrid(300.0, 700.0, 1.0)
    centers = grid.centers()
    assert centers[0] == 300.0
    assert centers[-1] == 700.0
    assert centers.size == 401
    with pytest.raises(ValueError):
        WavelengthGrid(700.0, 300.0, 1.0)
    with pytest.raises(ValueError):
        WavelengthGrid(300.0, 700.0, 0.0)


def test_wavelength_grid_bin_limit():
    limit = emission.MAX_AXIS_BINS
    assert WavelengthGrid(0.0, limit - 1.0, 1.0).centers().size == limit
    for step in (0.5, 1e-12, 5e-324):
        with pytest.raises(ValueError, match=f"wavelength axis .* limit of "
                                             f"{limit}"):
            WavelengthGrid(0.0, limit - 1.0, step)


def test_density_zero_outside_grid():
    # the grid clips the profile: bins beyond either end carry no mass
    lum = SpectralProfile(430.0, 60.0, 0.4)
    grid = WavelengthGrid(400.0, 450.0, 1.0)
    masses = spectral_bin_masses(lum, grid,
                                 np.array([380.0, 390.0, 399.5, 450.5,
                                           460.0, 470.0]))
    assert masses[0] == masses[1] == masses[3] == masses[4] == 0.0
    assert masses[2] > 0.0
    assert lum.shape(395.0) > 0.0 and lum.shape(455.0) > 0.0
    assert band_mass(lum, grid, (380.0, 399.5)) == 0.0
    assert band_mass(lum, grid, (450.5, 470.0)) == 0.0
    # so do bins that only touch the grid edge from outside, and bins
    # spanning the grid partition it
    masses = spectral_bin_masses(lum, grid,
                                 np.array([390.0, 400.0, 450.0, 460.0]))
    assert masses[0] == masses[2] == 0.0
    assert masses.sum() == pytest.approx(1.0, abs=1e-15)
    assert band_mass(lum, grid, (390.0, 400.0)) == 0.0
    assert band_mass(lum, grid, (450.0, 460.0)) == 0.0
    assert band_mass(lum, grid, (390.0, 460.0)) == pytest.approx(1.0,
                                                                abs=1e-15)


def test_model_fingerprint_stable_and_sensitive():
    base = make_model()
    a = emission.model_fingerprint(base)
    assert a == emission.model_fingerprint(make_model())
    # one perturbation per make_model parameter, each visible in the text
    perturbed = {
        "pump_wavelength_nm": make_model(260.0),
        "repetition_rate_hz": make_model(repetition_rate_hz=2000.0),
        "spdc_fwhm_nm": make_model(spdc_fwhm_nm=12.0),
        "lum_center_nm": make_model(lum_center_nm=440.0),
        "lum_fwhm_nm": make_model(lum_fwhm_nm=50.0),
        "lum_skew": make_model(lum_skew=0.3),
        "amplitudes": make_model(amplitudes=(0.8, 0.15, 0.05)),
        "lifetimes_ns": make_model(lifetimes_ns=(0.7, 1850.0, 9950.0)),
        "irf_fwhm_ns": make_model(irf_fwhm_ns=0.2),
        "spdc_rate_hz": make_model(spdc_rate_hz=2e5),
        "lum_rate_hz": make_model(lum_rate_hz=7e4),
        "spdc_polarized": make_model(spdc_polarized=False),
        "grid": make_model(grid=WavelengthGrid(300.0, 700.0, 0.5)),
    }
    assert set(perturbed) == set(inspect.signature(make_model).parameters)
    prints = {name: emission.model_fingerprint(m)
              for name, m in perturbed.items()}
    assert [name for name, p in prints.items() if p == a] == []
    assert len(set(prints.values())) == len(prints)
    # NumPy scalars print like the Python floats they equal
    assert emission.model_fingerprint(make_model(np.float64(260.0))) == \
        prints["pump_wavelength_nm"]
