"""Scalar filter pipeline: polarization, spectral, and temporal selection.

Filters act on integrated rates, not per-photon states.  Each filter
contributes one transmission factor in [0, 1] per emission kind and the
chain's transmission is the product, so filters commute.  The two kinds see
different physics:

  * SPDC is linearly polarized, spectrally a narrow line at twice the pump
    wavelength, and temporally an IRF-width pulse at the trigger.
  * Luminescence is fully mixed in polarization (a polarizer passes 0.5 on
    either axis), spectrally broad, and temporally a multi-exponential decay
    with pile-up from previous pulses.

Scenario reports combine baseline counts with chain or measured pass
fractions into SNR = C_S/C_L and the heralded-state fidelity.  Filters see
the pump only through the model: to follow a pump scan, evaluate the chain
on emission.retarget_pump(model, wavelength) per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .emission import EmissionModel, band_mass, decay_bin_masses
from .herald import fidelity_from_snr

POLARIZER_AXES = ("aligned_to_spdc", "orthogonal")

# mixed polarization: half the luminescence passes on any axis
_MIXED_PASS = 0.5


@dataclass(frozen=True)
class Polarizer:
    """Linear polarizer, specified relative to the SPDC polarization."""

    axis: str = "aligned_to_spdc"

    def __post_init__(self):
        if self.axis not in POLARIZER_AXES:
            raise ValueError(
                f"polarizer axis must be one of {POLARIZER_AXES},"
                f" got {self.axis!r}")

    def spdc_factor(self, model: EmissionModel) -> float:
        if not model.spdc_polarized:
            return _MIXED_PASS
        return 1.0 if self.axis == "aligned_to_spdc" else 0.0

    def lum_factor(self, model: EmissionModel) -> float:
        return _MIXED_PASS


def _check_on_grid(name: str, value: float, model: EmissionModel):
    grid = model.grid
    if not grid.min_nm <= value <= grid.max_nm:
        raise ValueError(
            f"{name} = {value:g} nm lies outside the wavelength grid "
            f"[{grid.min_nm:g}, {grid.max_nm:g}] nm")


@dataclass(frozen=True)
class LongpassFilter:
    """Idealized edge filter: step at the cutoff with a flat plateau.

    Real edge filters transmit less than unity even in their plateau, so the
    default is 0.95; use 1.0 when the baseline counts already embed the
    physical filter response.
    """

    cutoff_nm: float
    transmission: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.transmission <= 1.0:
            raise ValueError("transmission must be in (0, 1]")

    def _band(self, profile, model: EmissionModel) -> float:
        _check_on_grid("longpass cutoff", self.cutoff_nm, model)
        mass = band_mass(profile, model.grid,
                         (self.cutoff_nm, model.grid.max_nm))
        return self.transmission * mass

    def spdc_factor(self, model: EmissionModel) -> float:
        return self._band(model.spdc_spectrum, model)

    def lum_factor(self, model: EmissionModel) -> float:
        return self._band(model.lum_spectrum, model)


@dataclass(frozen=True)
class BandpassFilter:
    """Idealized interference filter: top-hat of width fwhm_nm."""

    center_nm: float
    fwhm_nm: float
    peak_transmission: float = 0.95

    def __post_init__(self):
        if self.fwhm_nm <= 0.0:
            raise ValueError("bandpass width must be positive")
        if not 0.0 < self.peak_transmission <= 1.0:
            raise ValueError("peak transmission must be in (0, 1]")

    def _band(self, profile, model: EmissionModel) -> float:
        _check_on_grid("bandpass center", self.center_nm, model)
        half = 0.5 * self.fwhm_nm
        mass = band_mass(profile, model.grid,
                         (self.center_nm - half, self.center_nm + half))
        return self.peak_transmission * mass

    def spdc_factor(self, model: EmissionModel) -> float:
        return self._band(model.spdc_spectrum, model)

    def lum_factor(self, model: EmissionModel) -> float:
        return self._band(model.lum_spectrum, model)


@dataclass(frozen=True)
class TemporalGate:
    """Detection gate centered on the pulse arrival.

    The gate interval is [latency - window/2, latency + window/2] in time
    relative to the trigger, so a zero-latency gate much wider than the IRF
    transmits the whole SPDC pulse.  Luminescence transmission is the in-gate
    share of the decay including pile-up at the gate's repetition rate
    (emission.decay_bin_masses without IRF blur); the interval must fit
    within one period on either side of the trigger.
    """

    window_ns: float
    repetition_rate_hz: float
    latency_ns: float = 0.0

    def __post_init__(self):
        if self.window_ns <= 0.0:
            raise ValueError("gate window must be positive")
        if self.repetition_rate_hz <= 0.0:
            raise ValueError("repetition rate must be positive")
        period = self.period_ns
        lo, hi = self.interval_ns
        if lo < -period or hi > period:
            raise ValueError(
                f"gate [{lo:g}, {hi:g}] ns does not fit within one pulse "
                f"period ({period:g} ns) around the trigger")

    @property
    def period_ns(self) -> float:
        return 1e9 / self.repetition_rate_hz

    @property
    def interval_ns(self) -> tuple[float, float]:
        half = 0.5 * self.window_ns
        return (self.latency_ns - half, self.latency_ns + half)

    def spdc_factor(self, model: EmissionModel) -> float:
        sigma = kernels.FWHM_TO_SIGMA * model.lum_decay.irf_fwhm_ns
        below_lo, below_hi = kernels.gaussian_cdf(self.interval_ns, sigma)
        return float(below_hi - below_lo)

    def lum_factor(self, model: EmissionModel) -> float:
        return float(decay_bin_masses(model.lum_decay, self.interval_ns, 0.0,
                                      self.period_ns)[0])


FilterSpec = Polarizer | LongpassFilter | BandpassFilter | TemporalGate


@dataclass(frozen=True)
class FilterChain:
    """Ordered filter list; at most one temporal gate (the detection gate)."""

    filters: tuple[FilterSpec, ...] = ()

    def __post_init__(self):
        filters = tuple(self.filters)
        object.__setattr__(self, "filters", filters)
        for f in filters:
            if not isinstance(f, (Polarizer, LongpassFilter, BandpassFilter,
                                  TemporalGate)):
                raise TypeError(f"not a filter: {f!r}")
        n_gates = sum(isinstance(f, TemporalGate) for f in filters)
        if n_gates > 1:
            raise ValueError("a chain carries at most one temporal gate")

    def __iter__(self):
        return iter(self.filters)

    def __len__(self) -> int:
        return len(self.filters)


def _clip01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def transmit_spdc(chain: FilterChain, model: EmissionModel) -> float:
    """Fraction of the SPDC rate surviving the chain (empty chain -> 1)."""
    out = 1.0
    for f in chain:
        out *= _clip01(f.spdc_factor(model))
    return _clip01(out)


def transmit_luminescence(chain: FilterChain, model: EmissionModel) -> float:
    """Fraction of the luminescence rate surviving the chain."""
    out = 1.0
    for f in chain:
        out *= _clip01(f.lum_factor(model))
    return _clip01(out)


@dataclass(frozen=True)
class RateAlert:
    """Pile-up guidance for a pulsed measurement."""

    repetition_rate_hz: float
    period_ns: float
    slowest_lifetime_ns: float
    ok: bool
    message: str


# period >= this many lifetimes of the slowest component: deliberately
# stricter than the common rule of thumb of one lifetime per period, because
# the slow tail dominates gated luminescence leakage
MIN_PERIODS = 5.0


def repetition_rate_alert(repetition_rate_hz: float, decay) -> RateAlert:
    """Flag repetition rates whose period crowds the slowest decay."""
    if repetition_rate_hz <= 0.0:
        raise ValueError("repetition rate must be positive")
    period = 1e9 / repetition_rate_hz
    slowest = max(decay.lifetimes_ns)
    ok = period >= MIN_PERIODS * slowest
    if ok:
        message = (f"period {period:g} ns covers {period / slowest:.2f} "
                   f"lifetimes of the slowest component ({slowest:g} ns)")
    else:
        message = (f"period {period:g} ns is below {MIN_PERIODS:g} x slowest "
                   f"lifetime ({slowest:g} ns): previous-pulse pile-up will "
                   f"not have decayed")
    return RateAlert(repetition_rate_hz, period, slowest, ok, message)


@dataclass(frozen=True)
class ScenarioSpec:
    """One table row: baseline counts plus how to obtain pass fractions.

    Explicit fractions (e.g. measured pass fractions) take precedence over
    the chain; with use_chain the fractions come from the filter model; with
    neither the baseline counts are used as-is.  reference_snr is an external
    value to cross-check against the counts quotient.
    """

    label: str
    c_spdc: float
    c_lum: float
    spdc_fraction: float | None = None
    lum_fraction: float | None = None
    use_chain: bool = False
    reference_snr: float | None = None

    def __post_init__(self):
        if self.c_spdc < 0.0 or self.c_lum < 0.0:
            raise ValueError("baseline counts must be nonnegative")
        for name, frac in (("spdc_fraction", self.spdc_fraction),
                           ("lum_fraction", self.lum_fraction)):
            if frac is not None and not 0.0 <= frac <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class ScenarioResult:
    """Post-filter counts, SNR, and fidelity for one scenario.

    flags mark degenerate outcomes (dead source, no counts); notes carry
    informational discrepancies such as a reference SNR that disagrees with
    the counts quotient.
    """

    label: str
    c_spdc: float
    c_lum: float
    snr: float
    f_exact: float
    f_approx: float
    spdc_fraction: float
    lum_fraction: float
    reference_snr: float | None = None
    flags: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


# relative disagreement between a reference SNR and the counts quotient
# above which the mismatch is reported
_REFERENCE_RTOL = 1e-3


def scenario_fidelity(model: EmissionModel, chain: FilterChain,
                      spec: ScenarioSpec, *, window_ns: float = 10.0,
                      spdc_rate_hz: float = 1.0e5) -> ScenarioResult:
    """Evaluate one scenario: transmitted counts, SNR, fidelity.

    window_ns and spdc_rate_hz feed the fidelity formula's t_w * R_S
    correction term.  A scenario with zero transmitted SPDC is flagged
    (source dead) rather than raising.
    """
    if spec.spdc_fraction is not None:
        f_s = spec.spdc_fraction
    elif spec.use_chain:
        f_s = transmit_spdc(chain, model)
    else:
        f_s = 1.0
    if spec.lum_fraction is not None:
        f_l = spec.lum_fraction
    elif spec.use_chain:
        f_l = transmit_luminescence(chain, model)
    else:
        f_l = 1.0
    c_s = spec.c_spdc * f_s
    c_l = spec.c_lum * f_l

    flags: list[str] = []
    notes: list[str] = []
    if c_s == 0.0:
        flags.append("spdc-blocked")
    if c_l == 0.0 and c_s == 0.0:
        flags.append("no-counts")
        snr = 0.0
    elif c_l == 0.0:
        snr = math.inf
        notes.append("no luminescence counts: SNR unbounded")
    else:
        snr = c_s / c_l
    est = fidelity_from_snr(snr, window_ns, spdc_rate_hz)
    if est.flagged:
        flags.append("nonpositive-fidelity")
    if spec.reference_snr is not None and math.isfinite(snr):
        ref = spec.reference_snr
        if abs(snr - ref) > _REFERENCE_RTOL * abs(ref):
            notes.append(
                f"reference SNR {ref:g} differs from counts quotient "
                f"{snr:.6g} by {abs(snr - ref) / abs(ref):.2%}")
    return ScenarioResult(
        label=spec.label, c_spdc=c_s, c_lum=c_l, snr=snr,
        f_exact=est.f_exact, f_approx=est.f_approx,
        spdc_fraction=f_s, lum_fraction=f_l,
        reference_snr=spec.reference_snr,
        flags=tuple(flags), notes=tuple(notes))


def run_scenarios(model: EmissionModel, chain: FilterChain,
                  specs, *, window_ns: float = 10.0,
                  spdc_rate_hz: float = 1.0e5) -> list[ScenarioResult]:
    return [scenario_fidelity(model, chain, spec, window_ns=window_ns,
                              spdc_rate_hz=spdc_rate_hz) for spec in specs]
