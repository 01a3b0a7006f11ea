"""Heralded-source fidelity budget under luminescence contamination.

Within one detection window of width t_w, a pair is born with probability
P_S = R_S * t_w and a luminescence photon lands in each collected mode
independently with probability P_L = R_L * t_w.  The model is first order in
these probabilities: windows with more than one photon per mode are neglected,
which is why both probabilities are capped at 0.05.

Heralded outcomes split into signal-mode photon numbers

    p0 = P_L (1 - P_S)     false herald by idler luminescence, signal vacuum
    p1 = P_S (1 - P_L)     clean heralded single photon
    p2 = P_S P_L           heralded photon plus a luminescence companion

with herald probability N = p0 + p1 + p2 = P_S (1 - P_L) + P_L and fidelity
F = p1 / N.  Expressed through the measured count quotient SNR = R_S / R_L:

    F = (SNR - t_w R_S) / (1 + SNR - t_w R_S)  ~  SNR / (1 + SNR)

The Monte Carlo estimator tallies simulated windows under the same
bookkeeping, drawing all windows at once from the multinomial over the
heralded outcomes: a false herald counts as signal vacuum even if a
(second-order) luminescence photon sits in the signal mode, because
luminescence photons do not arrive in pairs.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .emission import EmissionModel

VALIDITY_BOUND = 0.05

_VALIDITY_MSG = (
    "{name} = {value:g} exceeds the validity bound {bound}: the model "
    "neglects windows with two photons in one mode (probability ~ {name}^2), "
    "which is no longer a small correction")


def _check_probability(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise ValueError(f"{name} = {value!r} is not a probability")
    if value > VALIDITY_BOUND:
        raise ValueError(_VALIDITY_MSG.format(name=name, value=value,
                                              bound=VALIDITY_BOUND))
    return value


def pair_probability(rate_hz: float, window_ns: float) -> float:
    """Per-window event probability P = rate * window.

    Guards the first-order model: probabilities above 0.05 are a domain error
    naming the neglected double-event assumption.
    """
    if rate_hz < 0.0:
        raise ValueError("rate must be nonnegative")
    if window_ns <= 0.0:
        raise ValueError("detection window must be positive")
    return _check_probability("P", rate_hz * window_ns * 1e-9)


@record
class HeraldParams:
    """Rates (per collected mode) and the detection window.

    The rates are the emission model's: lum_rate_hz is the luminescence rate
    in the idler (heralding) mode; the signal mode defaults to the same rate
    and can be set separately via lum_rate_signal_hz.
    """

    spdc_rate_hz: float = EmissionModel.spdc_rate_hz
    lum_rate_hz: float = EmissionModel.lum_rate_hz
    window_ns: float = 10.0
    lum_rate_signal_hz: float | None = None

    def __post_init__(self):
        if self.window_ns <= 0.0:
            raise ValueError("detection window must be positive")
        # evaluates every probability, enforcing the validity bound
        _check_probability("P_S", self.p_s)
        _check_probability("P_L", self.p_l)
        _check_probability("P_L_signal", self.p_l_signal)

    def _prob(self, rate_hz: float) -> float:
        if rate_hz < 0.0:
            raise ValueError("rate must be nonnegative")
        return rate_hz * self.window_ns * 1e-9

    @property
    def p_s(self) -> float:
        return self._prob(self.spdc_rate_hz)

    @property
    def p_l(self) -> float:
        return self._prob(self.lum_rate_hz)

    @property
    def p_l_signal(self) -> float:
        rate = self.lum_rate_signal_hz
        return self._prob(self.lum_rate_hz if rate is None else rate)


@record
class HeraldOutcome:
    """Analytic per-window outcome probabilities."""

    p0: float
    p1: float
    p2: float
    n_herald: float
    fidelity: float


def outcome_probabilities(p_s: float, p_l: float,
                          p_l_signal: float | None = None) -> HeraldOutcome:
    """Signal-mode photon-number probabilities for given P_S, P_L.

    p_l is the idler-mode (false-herald) probability; the signal mode uses
    the same value unless p_l_signal is given.  All probabilities must
    respect the 0.05 validity bound; a source and luminescence both at zero
    rate never heralds and is a domain error.
    """
    p_s = _check_probability("P_S", p_s)
    p_l = _check_probability("P_L", p_l)
    p_ls = p_l if p_l_signal is None else _check_probability(
        "P_L_signal", p_l_signal)
    p0 = p_l * (1.0 - p_s)
    p1 = p_s * (1.0 - p_ls)
    p2 = p_s * p_ls
    n = p0 + p1 + p2
    if n == 0.0:
        raise ValueError("no herald events: both probabilities are zero")
    return HeraldOutcome(p0, p1, p2, n, p1 / n)


@record
class FidelityEstimate:
    """Exact and first-order heralded-single-photon fidelity.

    flagged marks a nonpositive exact fidelity (SNR at or below t_w * R_S),
    where the heralded output is dominated by contamination.
    """

    f_exact: float
    f_approx: float
    flagged: bool


def fidelity_from_snr(snr: float, window_ns: float,
                      spdc_rate_hz: float) -> FidelityEstimate:
    """Fidelity from a measured count quotient.

    f_exact = (snr - g)/(1 + snr - g) with g = window * spdc_rate;
    f_approx = snr/(1 + snr) drops the g correction.  An infinite SNR
    (no luminescence counts) gives fidelity 1.  The two values always differ
    by at most g, with f_exact <= f_approx.
    """
    if math.isnan(snr) or snr < 0.0:
        raise ValueError("SNR must be nonnegative")
    if math.isinf(snr):
        return FidelityEstimate(1.0, 1.0, False)
    g = pair_probability(spdc_rate_hz, window_ns)
    f_exact = (snr - g) / (1.0 + snr - g)
    f_approx = snr / (1.0 + snr)
    return FidelityEstimate(f_exact, f_approx, f_exact <= 0.0)


@record
class MonteCarloHerald:
    """Empirical outcome tally; fidelity_hat is the heralded fraction
    k1 / (k0 + k1 + k2), with its Wald standard error.
    """

    n_windows: int
    n_heralded: int
    k0: int
    k1: int
    k2: int
    fidelity_hat: float
    fidelity_se: float
    seed: int
    flags: tuple[str, ...] = ()


def monte_carlo_herald(params: HeraldParams, n_windows: int,
                       seed: int) -> MonteCarloHerald:
    """Simulate detection windows and tally heralded outcomes.

    Each window draws three independent Bernoulli events: pair emission
    (P_S) and a luminescence photon in the signal and idler modes (P_L each).
    A herald is a pair or an idler-luminescence click.  Heralded windows are
    classified by the source bookkeeping: pair and signal-luminescence give
    photon number 2, a bare pair gives 1, and a false herald counts as
    vacuum.

    Windows are independent and identically distributed, so the tally over
    all of them is one exact multinomial draw over the outcome cells (k2, k1,
    k0, not heralded) with probabilities P_S P_Ls, P_S (1 - P_Ls),
    (1 - P_S) P_L and the rest, P_Ls being the signal-mode luminescence
    probability.  The cost does not grow with n_windows, and the tally is
    reproducible per seed.
    """
    if n_windows < 1:
        raise ValueError("need at least one window")
    if n_windows > 2**63 - 1:
        raise ValueError(f"{n_windows} windows exceed the multinomial draw's "
                         "64-bit count, 2**63 - 1")
    p_s, p_l, p_ls = params.p_s, params.p_l, params.p_l_signal
    cells = [p_s * p_ls, p_s * (1.0 - p_ls), (1.0 - p_s) * p_l]
    rng = np.random.default_rng(int(seed))
    k2, k1, k0, _ = map(int, rng.multinomial(
        n_windows, cells + [max(1.0 - sum(cells), 0.0)]))
    heralded = k0 + k1 + k2
    flags: tuple[str, ...] = ()
    if heralded == 0:
        fid = float("nan")
        fid_se = float("nan")
        flags = ("no-heralds",)
    else:
        fid = k1 / heralded
        fid_se = math.sqrt(max(fid * (1.0 - fid), 0.0) / heralded)
    return MonteCarloHerald(
        n_windows=int(n_windows), n_heralded=heralded, k0=k0, k1=k1, k2=k2,
        fidelity_hat=fid, fidelity_se=fid_se, seed=int(seed), flags=flags)
