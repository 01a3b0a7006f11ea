"""Emission model: pump, SPDC line, crystal luminescence spectrum and decay.

The model is deliberately scalar: photon rates per collected mode, spectral
shapes normalized on a fixed wavelength grid and integrated per bin through
their closed-form CDFs, and a multi-exponential decay law.  Degenerate
type-I phase matching pins the SPDC line at twice the pump wavelength; the
luminescence spectrum and decay do not depend on the pump at all.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernels
from ._record import record

PUMP_RANGE_NM = (240.0, 300.0)
MAX_AXIS_BINS = 1_000_000  # bins on one wavelength or time axis


def uniform_bin_count(min_v: float, max_v: float, step: float,
                      axis: str) -> int:
    """Number of uniform bin centers from min to max inclusive.

    Raises ValueError before anything is allocated when the axis would
    exceed MAX_AXIS_BINS.
    """
    n = (max_v - min_v) / step + 1.0
    if not n < MAX_AXIS_BINS + 0.5:
        raise ValueError(f"{axis} axis would have {n:.10g} bins, more than "
                         f"the limit of {MAX_AXIS_BINS}")
    return int(round((max_v - min_v) / step)) + 1


@record
class PumpConfig:
    """Ultraviolet pump pulse train.

    Phase matching on/off is expressed through the SPDC rate; the pump
    power and polarization are not modeled (the rates are set directly).
    """

    wavelength_nm: float = 267.0
    repetition_rate_hz: float = 1000.0

    def __post_init__(self):
        lo, hi = PUMP_RANGE_NM
        if not lo <= self.wavelength_nm <= hi:
            raise ValueError(
                f"pump wavelength {self.wavelength_nm} nm outside the "
                f"supported {lo:.0f}-{hi:.0f} nm range")
        if self.repetition_rate_hz <= 0.0:
            raise ValueError("repetition rate must be positive")

    @property
    def period_ns(self) -> float:
        return 1e9 / self.repetition_rate_hz


def spdc_center_wavelength(pump: PumpConfig) -> float:
    """Degenerate collinear SPDC line: twice the pump wavelength."""
    return 2.0 * pump.wavelength_nm


@record
class SpectralProfile:
    """Normalized spectral density shape.

    skew = 0 is a symmetric bell with the given FWHM (the SPDC line).  skew
    > 0 is a log-normal-style peak (the luminescence): mode at center_nm,
    realized FWHM equal to fwhm_nm, and a heavier tail toward long
    wavelengths.
    """

    center_nm: float
    fwhm_nm: float
    skew: float = 0.0

    def __post_init__(self):
        if self.fwhm_nm <= 0.0:
            raise ValueError("spectral FWHM must be positive")
        if self.skew < 0.0:
            raise ValueError("skew must be nonnegative")

    def shape(self, wavelength_nm) -> np.ndarray:
        """Unnormalized shape (peak value 1 at center_nm)."""
        lam = np.asarray(wavelength_nm, dtype=float)
        x = lam.ravel() - self.center_nm
        ln2 = np.log(2.0)
        if self.skew == 0.0:
            return np.exp(-4.0 * ln2 * (x / self.fwhm_nm) ** 2).reshape(lam.shape)
        b = self.skew
        # internal width chosen so the realized FWHM equals fwhm_nm
        delta = self.fwhm_nm * b / np.sinh(b)
        arg = 1.0 + 2.0 * b * x / delta
        out = np.zeros_like(arg)
        ok = arg > 0.0
        out[ok] = np.exp(-ln2 * (np.log(arg[ok]) / b) ** 2)
        return out.reshape(lam.shape)

    def cdf(self, wavelength_nm) -> np.ndarray:
        """Integral of shape up to each wavelength, up to a constant factor
        (only differences are meaningful).

        The skewed shape is exp(-u^2 / (2 s^2)) in u = ln(1 + 2 b x / delta)
        with s = b / sqrt(2 ln 2); since dx is proportional to exp(u) du, its
        integral is the Gaussian CDF of u - s^2 with width s.
        """
        lam = np.asarray(wavelength_nm, dtype=float)
        x = lam.ravel() - self.center_nm
        if self.skew == 0.0:
            return kernels.gaussian_cdf(
                x, self.fwhm_nm * kernels.FWHM_TO_SIGMA).reshape(lam.shape)
        b = self.skew
        delta = self.fwhm_nm * b / np.sinh(b)
        arg = 2.0 * b * x / delta
        s = b / np.sqrt(2.0 * np.log(2.0))
        out = np.zeros_like(arg)
        ok = arg > -1.0
        out[ok] = kernels.gaussian_cdf(np.log1p(arg[ok]) - s * s, s)
        return out.reshape(lam.shape)


@record
class WavelengthGrid:
    """Uniform wavelength bins; centers run from min_nm to max_nm inclusive."""

    min_nm: float = 300.0
    max_nm: float = 700.0
    step_nm: float = 1.0

    def __post_init__(self):
        if self.step_nm <= 0.0:
            raise ValueError("grid step must be positive")
        if self.max_nm <= self.min_nm:
            raise ValueError("grid max must exceed min")
        uniform_bin_count(self.min_nm, self.max_nm, self.step_nm,
                          "wavelength")

    def centers(self) -> np.ndarray:
        return self.min_nm + self.step_nm * np.arange(uniform_bin_count(
            self.min_nm, self.max_nm, self.step_nm, "wavelength"))


@record
class DecayModel:
    """Multi-exponential luminescence decay plus instrument response width.

    Amplitudes are decay-curve weights at t = 0 and must sum to 1; lifetimes
    are strictly increasing, in nanoseconds.
    """

    amplitudes: tuple[float, ...] = (0.90, 0.07, 0.03)
    lifetimes_ns: tuple[float, ...] = (0.73, 1850.0, 9950.0)
    irf_fwhm_ns: float = 0.15

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amplitudes)
        taus = tuple(float(t) for t in self.lifetimes_ns)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "lifetimes_ns", taus)
        if len(amps) != len(taus) or not amps:
            raise ValueError("amplitudes and lifetimes must pair up")
        if any(a <= 0.0 for a in amps):
            raise ValueError("decay amplitudes must be positive")
        if abs(sum(amps) - 1.0) > 1e-9:
            raise ValueError("decay amplitudes must sum to 1")
        if any(t <= 0.0 for t in taus):
            raise ValueError("lifetimes must be positive")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("lifetimes must be strictly increasing")
        if self.irf_fwhm_ns < 0.0:
            raise ValueError("IRF FWHM must be nonnegative")

    @property
    def components(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.amplitudes, self.lifetimes_ns))

    @property
    def mean_mass_ns(self) -> float:
        """Time integral of the decay curve, sum(a_i * tau_i)."""
        return float(sum(a * t for a, t in self.components))


@record
class EmissionModel:
    """Everything the synthesizer and the filter pipeline need.

    Rates are photons per second per collected mode, set directly rather
    than derived from the pump power.  Luminescence polarization is fully
    mixed (a polarizer passes half of it); SPDC light is linearly polarized
    unless spdc_polarized is cleared.
    """

    pump: PumpConfig = PumpConfig()
    spdc_spectrum: SpectralProfile = SpectralProfile(534.0, 10.0)
    lum_spectrum: SpectralProfile = SpectralProfile(430.0, 60.0, 0.4)
    lum_decay: DecayModel = DecayModel()
    spdc_rate_hz: float = 1.0e5
    lum_rate_hz: float = 6.036e4
    spdc_polarized: bool = True
    grid: WavelengthGrid = WavelengthGrid()

    def __post_init__(self):
        center = spdc_center_wavelength(self.pump)
        if abs(self.spdc_spectrum.center_nm - center) > 1e-9:
            raise ValueError(
                f"SPDC spectrum center {self.spdc_spectrum.center_nm} nm must "
                f"equal twice the pump wavelength ({center} nm)")
        if self.spdc_spectrum.skew != 0.0:
            raise ValueError("the SPDC line cannot be skewed")
        if self.spdc_rate_hz < 0.0 or self.lum_rate_hz < 0.0:
            raise ValueError("rates must be nonnegative")


def make_model(
    pump_wavelength_nm: float = PumpConfig.wavelength_nm,
    *,
    repetition_rate_hz: float = PumpConfig.repetition_rate_hz,
    spdc_fwhm_nm: float = EmissionModel.spdc_spectrum.fwhm_nm,
    lum_center_nm: float = EmissionModel.lum_spectrum.center_nm,
    lum_fwhm_nm: float = EmissionModel.lum_spectrum.fwhm_nm,
    lum_skew: float = EmissionModel.lum_spectrum.skew,
    amplitudes: tuple[float, ...] = DecayModel.amplitudes,
    lifetimes_ns: tuple[float, ...] = DecayModel.lifetimes_ns,
    irf_fwhm_ns: float = DecayModel.irf_fwhm_ns,
    spdc_rate_hz: float = EmissionModel.spdc_rate_hz,
    lum_rate_hz: float = EmissionModel.lum_rate_hz,
    spdc_polarized: bool = EmissionModel.spdc_polarized,
    grid: WavelengthGrid | None = None,
) -> EmissionModel:
    """Build a consistent EmissionModel; the SPDC line is derived from the pump."""
    pump = PumpConfig(pump_wavelength_nm, repetition_rate_hz)
    return EmissionModel(
        pump=pump,
        spdc_spectrum=SpectralProfile(spdc_center_wavelength(pump),
                                      spdc_fwhm_nm),
        lum_spectrum=SpectralProfile(lum_center_nm, lum_fwhm_nm, lum_skew),
        lum_decay=DecayModel(tuple(amplitudes), tuple(lifetimes_ns), irf_fwhm_ns),
        spdc_rate_hz=spdc_rate_hz,
        lum_rate_hz=lum_rate_hz,
        spdc_polarized=spdc_polarized,
        grid=grid if grid is not None else WavelengthGrid(),
    )


def retarget_pump(model: EmissionModel, pump_wavelength_nm: float) -> EmissionModel:
    """Move the pump line; the SPDC center follows, everything else is kept."""
    pump = dataclasses.replace(model.pump, wavelength_nm=pump_wavelength_nm)
    spdc = dataclasses.replace(model.spdc_spectrum,
                               center_nm=spdc_center_wavelength(pump))
    return dataclasses.replace(model, pump=pump, spdc_spectrum=spdc)


def luminescence_decay_intensity(model: EmissionModel, t_ns):
    """Multi-exponential decay curve, normalized to 1 at t = 0.

    Negative times are a domain error: the curve is defined from the pulse on.
    """
    t = np.asarray(t_ns, dtype=float)
    if t.size and t.min() < 0.0:
        raise ValueError("decay intensity is defined for t >= 0 only")
    out = np.zeros_like(t)
    for a, tau in model.lum_decay.components:
        out = out + a * np.exp(-t / tau)
    return float(out) if out.shape == () else out


def model_fingerprint(model: EmissionModel) -> str:
    """Canonical flat text of every model parameter, one `path = str(value)`
    line per leaf field, hashed into synthesized-image metadata so analysis
    can tell which model produced a file.  A NumPy scalar prints like the
    Python float it equals."""
    def leaves(obj, prefix):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from leaves(value, f"{prefix}{f.name}.")
            else:
                yield f"{prefix}{f.name} = {value!s}"
    return "\n".join(leaves(model, ""))


def spectral_bin_masses(profile: SpectralProfile, grid: WavelengthGrid,
                        edges: np.ndarray) -> np.ndarray:
    """Integral of the normalized density over each wavelength bin.

    Differences of profile.cdf at the edges clipped to the grid span, over
    the CDF across that span: the density is normalized on the grid and
    vanishes outside it.  One cdf call serves both.
    """
    f = profile.cdf(np.concatenate([[grid.min_nm, grid.max_nm], np.clip(
        edges, grid.min_nm, grid.max_nm)]))
    span = f[1] - f[0]
    if not span > 0.0:
        raise ValueError("spectral profile has no mass on the wavelength grid")
    return np.diff(f[2:]) / span


def decay_bin_masses(decay: DecayModel, edges, sigma: float,
                     period: float) -> np.ndarray:
    """Share of a period's decay mass between consecutive time edges, with
    pile-up and a Gaussian IRF of width sigma: sum(a_i * periodic mass_i)
    over sum(a_i * tau_i)."""
    mass = np.zeros(np.size(edges) - 1)
    for a, tau in decay.components:
        mass = mass + a * kernels.periodic_decay_mass(edges, tau, sigma,
                                                      period)
    return mass / decay.mean_mass_ns


def band_mass(profile: SpectralProfile, grid: WavelengthGrid,
              band: tuple[float, float]) -> float:
    """Integral of the normalized density over `band`, clipped to the grid:
    spectral_bin_masses of that one bin."""
    lo, hi = float(band[0]), float(band[1])
    if hi < lo:
        raise ValueError(f"inverted wavelength band ({lo}, {hi})")
    return float(spectral_bin_masses(profile, grid, np.array([lo, hi]))[0])
