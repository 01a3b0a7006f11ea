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
from dataclasses import field

from . import kernels
from ._record import record
from .emission import EmissionModel, band_mass, decay_bin_masses
from .herald import HeraldParams, fidelity_from_snr

POLARIZER_AXES = ("aligned_to_spdc", "orthogonal")

# mixed polarization: half the luminescence passes on any axis
_MIXED_PASS = 0.5


@record
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


class _SpectralFilter:
    """A filter passing the share of each emission's spectrum that falls in
    its band, through the subclass's _band(profile, model)."""

    def spdc_factor(self, model: EmissionModel) -> float:
        return self._band(model.spdc_spectrum, model)

    def lum_factor(self, model: EmissionModel) -> float:
        return self._band(model.lum_spectrum, model)


@record
class LongpassFilter(_SpectralFilter):
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


@record
class BandpassFilter(_SpectralFilter):
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


@record
class TemporalGate:
    """Detection gate centered on the pulse arrival, once per pump pulse.

    The gate interval is [latency - window/2, latency + window/2] in time
    relative to the trigger, so a zero-latency gate much wider than the IRF
    transmits the whole SPDC pulse.  Luminescence transmission is the in-gate
    share of the decay including pile-up at the pump's repetition rate
    (emission.decay_bin_masses without IRF blur); the interval must be no
    wider than one pump period and lie within one period of the trigger.
    """

    window_ns: float
    latency_ns: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        if self.window_ns <= 0.0:
            raise ValueError("gate window must be positive")

    @property
    def interval_ns(self) -> tuple[float, float]:
        half = 0.5 * self.window_ns
        return (self.latency_ns - half, self.latency_ns + half)

    def spdc_factor(self, model: EmissionModel) -> float:
        sigma = kernels.FWHM_TO_SIGMA * model.lum_decay.irf_fwhm_ns
        below_lo, below_hi = kernels.gaussian_cdf(self.interval_ns, sigma)
        return float(below_hi - below_lo)

    def lum_factor(self, model: EmissionModel) -> float:
        period = model.pump.period_ns
        lo, hi = self.interval_ns
        if lo < -period or hi > period or self.window_ns > period:
            raise ValueError(
                f"gate [{lo:g}, {hi:g}] ns does not fit within one pulse "
                f"period ({period:g} ns) around the trigger")
        return float(decay_bin_masses(model.lum_decay, self.interval_ns, 0.0,
                                      period)[0])


FilterSpec = Polarizer | LongpassFilter | BandpassFilter | TemporalGate


@record
class FilterChain:
    """Ordered filter list; at most one temporal gate (the detection gate)."""

    filters: tuple[FilterSpec, ...] = ()

    def __post_init__(self):
        filters = tuple(self.filters)
        object.__setattr__(self, "filters", filters)
        for f in filters:
            if not isinstance(f, FilterSpec):
                raise TypeError(f"not a filter: {f!r}")
        n_gates = sum(isinstance(f, TemporalGate) for f in filters)
        if n_gates > 1:
            raise ValueError("a chain carries at most one temporal gate")

    def __iter__(self):
        return iter(self.filters)

    def __len__(self) -> int:
        return len(self.filters)


def _transmit(factors) -> float:
    """Product of the factors, each clipped to [0, 1]."""
    return math.prod((min(max(f, 0.0), 1.0) for f in factors), start=1.0)


def transmit_spdc(chain: FilterChain, model: EmissionModel) -> float:
    """Fraction of the SPDC rate surviving the chain (empty chain -> 1)."""
    return _transmit(f.spdc_factor(model) for f in chain)


def transmit_luminescence(chain: FilterChain, model: EmissionModel) -> float:
    """Fraction of the luminescence rate surviving the chain."""
    return _transmit(f.lum_factor(model) for f in chain)


@record
class RateAlert:
    """Pile-up guidance for a pulsed measurement."""

    ok: bool
    message: str


# period >= this many lifetimes of the slowest component: deliberately
# stricter than the common rule of thumb of one lifetime per period, because
# the slow tail dominates gated luminescence leakage
MIN_PERIODS = 5.0


def repetition_rate_alert(model: EmissionModel) -> RateAlert:
    """Flag a pump whose period crowds the slowest decay."""
    period = model.pump.period_ns
    slowest = max(model.lum_decay.lifetimes_ns)
    ok = period >= MIN_PERIODS * slowest
    if ok:
        message = (f"period {period:g} ns covers {period / slowest:.2f} "
                   f"lifetimes of the slowest component ({slowest:g} ns)")
    else:
        message = (f"period {period:g} ns is below {MIN_PERIODS:g} x slowest "
                   f"lifetime ({slowest:g} ns): previous-pulse pile-up will "
                   f"not have decayed")
    return RateAlert(ok, message)


@record
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


@record
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
                      spec: ScenarioSpec, *,
                      window_ns: float = HeraldParams.window_ns,
                      spdc_rate_hz: float = EmissionModel.spdc_rate_hz
                      ) -> ScenarioResult:
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


def run_scenarios(model: EmissionModel, chain: FilterChain, specs, *,
                  window_ns: float = HeraldParams.window_ns,
                  spdc_rate_hz: float = EmissionModel.spdc_rate_hz
                  ) -> list[ScenarioResult]:
    """scenario_fidelity per spec; a chain the model refuses fails first."""
    transmit_spdc(chain, model)
    transmit_luminescence(chain, model)
    return [scenario_fidelity(model, chain, spec, window_ns=window_ns,
                              spdc_rate_hz=spdc_rate_hz) for spec in specs]
