"""Luminescence noise in SPDC heralded single-photon sources.

Library layout:

  emission   parametric emission model: pump, spectra, decay, rates
  kernels    exponential-Gaussian convolution closed forms and pile-up sums
  synth      expected counts and Poisson streak-image synthesis
  streak     image/trace containers and the CSV exchange format
  analysis   ROI count separation, traces, spectra, SNR
  fitting    multi-exponential least squares with IRF convolution
  herald     heralded-state outcome probabilities, fidelity, Monte Carlo
  filters    polarization/spectral/temporal filter chains and scenarios
  config     flat key-value run configuration
  cli        spdclum command line tool
"""

from .analysis import (CountSummary, default_rois, extract_spectrum,
                       extract_time_trace, normalize_spectrum, roi_integrate,
                       separate_counts, trace_fwhm)
from .config import ConfigError, RunConfig, resolve_config
from .emission import (DecayModel, EmissionModel, PumpConfig, SpectralProfile,
                       WavelengthGrid, band_mass, luminescence_decay_intensity,
                       make_model, retarget_pump, spdc_center_wavelength)
from .filters import (BandpassFilter, FilterChain, LongpassFilter, Polarizer,
                      ScenarioResult, ScenarioSpec, TemporalGate,
                      repetition_rate_alert, run_scenarios, scenario_fidelity,
                      transmit_luminescence, transmit_spdc)
from .fitting import (DecayFit, FitComponent, IndependenceReport,
                      decay_independence_report, fit_multiexp)
from .herald import (FidelityEstimate, HeraldOutcome, HeraldParams,
                     MonteCarloHerald, fidelity_from_snr, monte_carlo_herald,
                     outcome_probabilities, pair_probability)
from .streak import (RegionOfInterest, StreakImage, StreakParseError,
                     read_streak_csv, read_trace_csv, write_streak_csv,
                     write_trace_csv)
from .synth import expected_counts, synthesize, time_grid

__version__ = "0.1.0"

__all__ = [
    "BandpassFilter", "ConfigError", "CountSummary", "DecayFit",
    "DecayModel", "EmissionModel", "FidelityEstimate", "FilterChain",
    "FitComponent", "HeraldOutcome", "HeraldParams", "IndependenceReport",
    "LongpassFilter", "MonteCarloHerald", "Polarizer", "PumpConfig",
    "RegionOfInterest", "RunConfig", "ScenarioResult", "ScenarioSpec",
    "SpectralProfile", "StreakImage", "StreakParseError", "TemporalGate",
    "WavelengthGrid", "band_mass", "decay_independence_report",
    "default_rois", "expected_counts", "extract_spectrum",
    "extract_time_trace", "fidelity_from_snr", "fit_multiexp",
    "luminescence_decay_intensity", "make_model", "monte_carlo_herald",
    "normalize_spectrum", "outcome_probabilities", "pair_probability",
    "read_streak_csv", "read_trace_csv", "repetition_rate_alert",
    "resolve_config", "retarget_pump", "roi_integrate", "run_scenarios",
    "scenario_fidelity", "separate_counts", "spdc_center_wavelength",
    "synthesize", "time_grid", "trace_fwhm", "transmit_luminescence",
    "transmit_spdc", "write_streak_csv", "write_trace_csv",
]
