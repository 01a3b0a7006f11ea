"""Heralded-photon outcome probabilities, fidelity, and the Monte Carlo check."""

import math
import time

import numpy as np
import pytest

from spdclum.emission import make_model
from spdclum.herald import (
    VALIDITY_BOUND,
    HeraldParams,
    fidelity_from_snr,
    monte_carlo_herald,
    outcome_probabilities,
    pair_probability,
)

# frozen reference values, derived once from the closed-form expressions
P_S_REF = 1e-3
P_L_REF = 0.00060350030175015088   # 1e-3 / 1.657
OUT_P0 = 0.00060289680144840072
OUT_P1 = 0.00099939649969824985
OUT_P2 = 6.0350030175015088e-7
OUT_N = 0.0016028968014484007
OUT_F = 0.62349397590361446
SNR_F_EXACT = 0.62349397590361446
SNR_F_APPROX = 0.6236356793375988


def test_pair_probability_reference_case():
    # 100 kHz source, 10 ns window
    assert pair_probability(1e5, 10.0) == 1e-3
    assert pair_probability(6.036e4, 10.0) == pytest.approx(6.036e-4, rel=1e-12)
    assert pair_probability(0.0, 10.0) == 0.0


def test_pair_probability_validity_guard():
    # 0.05 keeps neglected multi-photon windows below the percent level
    with pytest.raises(ValueError) as err:
        pair_probability(1e7, 10.0)
    msg = str(err.value)
    assert "0.05" in msg
    assert "window" in msg.lower()
    # the bound itself is allowed
    assert pair_probability(5e6, 10.0) == VALIDITY_BOUND
    with pytest.raises(ValueError):
        pair_probability(-1.0, 10.0)
    with pytest.raises(ValueError):
        pair_probability(1e5, 0.0)


def test_outcome_probabilities_reference_values():
    out = outcome_probabilities(P_S_REF, P_L_REF)
    assert out.p0 == pytest.approx(OUT_P0, rel=1e-12)
    assert out.p1 == pytest.approx(OUT_P1, rel=1e-12)
    assert out.p2 == pytest.approx(OUT_P2, rel=1e-12)
    assert out.n_herald == pytest.approx(OUT_N, rel=1e-12)
    assert out.fidelity == pytest.approx(OUT_F, rel=1e-12)


def test_outcome_identity_on_random_grid():
    # p0 + p1 + p2 == P_S(1 - P_L) + P_L for every probability pair
    rng = np.random.default_rng(7)
    for _ in range(200):
        p_s = 10.0 ** rng.uniform(-5, np.log10(0.05))
        p_l = 10.0 ** rng.uniform(-5, np.log10(0.05))
        out = outcome_probabilities(p_s, p_l)
        lhs = out.p0 + out.p1 + out.p2
        rhs = p_s * (1.0 - p_l) + p_l
        assert lhs == pytest.approx(rhs, rel=1e-14)
        assert lhs == pytest.approx(out.n_herald, rel=1e-14)


def test_outcome_trivial_limits():
    pure = outcome_probabilities(1e-3, 0.0)
    assert pure.fidelity == 1.0
    assert pure.p0 == 0.0 and pure.p2 == 0.0
    noise = outcome_probabilities(0.0, 1e-3)
    assert noise.fidelity == 0.0
    assert noise.p1 == 0.0 and noise.p2 == 0.0
    with pytest.raises(ValueError):
        outcome_probabilities(0.0, 0.0)
    with pytest.raises(ValueError):
        outcome_probabilities(0.06, 1e-3)
    with pytest.raises(ValueError):
        outcome_probabilities(1e-3, 1.5)


def test_outcome_asymmetric_signal_luminescence():
    out = outcome_probabilities(1e-3, 5e-4, p_l_signal=2e-3)
    assert out.p2 == pytest.approx(1e-3 * 2e-3, rel=1e-14)
    assert out.p1 == pytest.approx(1e-3 * (1 - 2e-3), rel=1e-14)
    # false heralds still use the idler probability
    assert out.p0 == pytest.approx(5e-4 * (1 - 1e-3), rel=1e-14)


def test_fidelity_from_snr_reference():
    est = fidelity_from_snr(1.657, 10.0, 1e5)
    assert est.f_exact == pytest.approx(SNR_F_EXACT, rel=1e-12)
    assert est.f_approx == pytest.approx(SNR_F_APPROX, rel=1e-12)
    assert not est.flagged


def test_fidelity_from_snr_edge_cases():
    inf = fidelity_from_snr(math.inf, 10.0, 1e5)
    assert inf.f_exact == 1.0 and inf.f_approx == 1.0
    zero = fidelity_from_snr(0.0, 10.0, 1e5)
    assert zero.flagged
    assert zero.f_exact < 0.0
    with pytest.raises(ValueError):
        fidelity_from_snr(-0.5, 10.0, 1e5)
    with pytest.raises(ValueError):
        fidelity_from_snr(math.nan, 10.0, 1e5)


def test_fidelity_approximation_bounds():
    # F_exact <= F_approx, and the gap never exceeds g = t_w * R_S
    rng = np.random.default_rng(21)
    count = 0
    while count < 1000:
        snr = 10.0 ** rng.uniform(-2, 3)
        rate = 10.0 ** rng.uniform(2, 6)
        window = 10.0 ** rng.uniform(-1, 2)
        g = rate * window * 1e-9
        # valid draws only: within the probability bound and above the
        # degenerate regime (snr < g drives f_exact negative and flagged)
        if g > VALIDITY_BOUND or snr < g:
            continue
        est = fidelity_from_snr(snr, window, rate)
        assert not est.flagged or est.f_exact == 0.0
        assert est.f_exact <= est.f_approx
        assert est.f_approx - est.f_exact <= g + 1e-15
        count += 1


def test_fidelity_monotone_in_snr():
    vals = [fidelity_from_snr(s, 10.0, 1e5).f_exact
            for s in np.linspace(0.5, 100.0, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_fidelity_decreasing_in_p_l():
    vals = [outcome_probabilities(1e-3, pl).fidelity
            for pl in np.linspace(1e-5, 1e-2, 30)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_params_derive_probabilities():
    params = HeraldParams()
    assert params.p_s == 1e-3
    assert params.p_l == pytest.approx(6.036e-4, rel=1e-12)
    assert params.p_l_signal == params.p_l
    with pytest.raises(ValueError):
        HeraldParams(window_ns=0.0)
    with pytest.raises(ValueError):
        HeraldParams(spdc_rate_hz=1e9)
    # the defaults are the emission model's rates
    model = make_model()
    assert (params.spdc_rate_hz, params.lum_rate_hz) == (
        model.spdc_rate_hz, model.lum_rate_hz)


def test_monte_carlo_matches_analytic():
    params = HeraldParams(spdc_rate_hz=1e5, lum_rate_hz=6.036e4)
    out = outcome_probabilities(params.p_s, params.p_l)
    mc = monte_carlo_herald(params, 2_000_000, seed=5)
    se = mc.fidelity_se
    assert se > 0
    assert abs(mc.fidelity_hat - out.fidelity) <= 3.0 * se
    # per-outcome shares too, per window with their Wald errors
    for want, k in ((out.p0, mc.k0), (out.p1, mc.k1), (out.p2, mc.k2)):
        got = k / mc.n_windows
        got_se = np.sqrt(got * (1.0 - got) / mc.n_windows)
        assert abs(got - want) <= max(3.0 * got_se, 1e-7)
    assert mc.k0 + mc.k1 + mc.k2 == mc.n_heralded


def test_monte_carlo_deterministic():
    params = HeraldParams()
    a = monte_carlo_herald(params, 1_500_000, seed=9)
    b = monte_carlo_herald(params, 1_500_000, seed=9)
    assert (a.k0, a.k1, a.k2) == (b.k0, b.k1, b.k2)
    c = monte_carlo_herald(params, 1_500_000, seed=10)
    assert (a.k0, a.k1, a.k2) != (c.k0, c.k1, c.k2)


def test_monte_carlo_cost_independent_of_window_count():
    start = time.monotonic()
    mc = monte_carlo_herald(HeraldParams(), 10**12, seed=1)
    assert time.monotonic() - start < 5.0
    assert mc.n_windows == 10**12
    assert mc.k0 + mc.k1 + mc.k2 == mc.n_heralded


def test_monte_carlo_pure_source():
    params = HeraldParams(lum_rate_hz=0.0)
    mc = monte_carlo_herald(params, 200_000, seed=3)
    assert mc.fidelity_hat == 1.0
    assert mc.k0 == 0 and mc.k2 == 0


def test_monte_carlo_no_heralds():
    params = HeraldParams(spdc_rate_hz=1e-30, lum_rate_hz=1e-30)
    mc = monte_carlo_herald(params, 1000, seed=1)
    assert mc.n_heralded == 0
    assert "no-heralds" in mc.flags
    assert math.isnan(mc.fidelity_hat)


def test_monte_carlo_input_validation():
    with pytest.raises(ValueError):
        monte_carlo_herald(HeraldParams(), 0, seed=1)


def test_double_herald_ratio():
    # at P_S = P_L the double-to-single quotient equals P_L/(1 - P_L)
    out = outcome_probabilities(1e-3, 1e-3)
    assert out.p2 / out.p1 == pytest.approx(1e-3 / (1 - 1e-3), rel=1e-12)


@pytest.mark.parametrize("rates", [{"spdc_rate_hz": -1.0},
                                   {"lum_rate_hz": -1.0},
                                   {"lum_rate_signal_hz": -1.0}],
                         ids=["spdc", "lum", "lum-signal"])
def test_herald_params_refuse_negative_rates(rates):
    with pytest.raises(Exception) as err:
        HeraldParams(**rates)
    assert err.type is ValueError
    assert str(err.value).startswith("rate must be nonnegative")
