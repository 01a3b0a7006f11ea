"""Filter transmissions, chains, and scenario evaluation."""

import itertools

import numpy as np
import pytest

from spdclum.emission import make_model, retarget_pump
from spdclum.filters import (
    MIN_PERIODS,
    BandpassFilter,
    FilterChain,
    LongpassFilter,
    Polarizer,
    ScenarioSpec,
    TemporalGate,
    repetition_rate_alert,
    run_scenarios,
    scenario_fidelity,
    transmit_luminescence,
    transmit_spdc,
)

MODEL = make_model()


def test_polarizer_cases():
    aligned = Polarizer()
    crossed = Polarizer(axis="orthogonal")
    assert aligned.spdc_factor(MODEL) == 1.0
    assert crossed.spdc_factor(MODEL) == 0.0
    # the mixed-polarization glow loses half either way
    assert aligned.lum_factor(MODEL) == 0.5
    assert crossed.lum_factor(MODEL) == 0.5
    unpolarized = make_model(spdc_polarized=False)
    assert aligned.spdc_factor(unpolarized) == 0.5
    assert crossed.spdc_factor(unpolarized) == 0.5
    with pytest.raises(ValueError):
        Polarizer(axis="vertical")


def test_longpass_oracle_values():
    lp = LongpassFilter(cutoff_nm=460.0, transmission=1.0)
    # the 534 nm line lies entirely above the cutoff
    assert lp.spdc_factor(MODEL) == pytest.approx(1.0, abs=1e-9)
    assert lp.lum_factor(MODEL) == pytest.approx(0.25039881578486748, rel=1e-4)
    attenuated = LongpassFilter(cutoff_nm=460.0, transmission=0.95)
    assert attenuated.lum_factor(MODEL) == pytest.approx(
        0.95 * lp.lum_factor(MODEL), rel=1e-12)
    with pytest.raises(ValueError):
        # the cutoff must lie on the model's wavelength grid
        LongpassFilter(cutoff_nm=250.0).lum_factor(MODEL)
    with pytest.raises(ValueError):
        LongpassFilter(cutoff_nm=460.0, transmission=1.5)


def test_bandpass_oracle_values():
    bp = BandpassFilter(center_nm=534.0, fwhm_nm=20.0, peak_transmission=1.0)
    assert bp.lum_factor(MODEL) == pytest.approx(0.010484904946946757,
                                                 rel=1e-4)
    # 20 nm top-hat on a 10 nm FWHM Gaussian line: essentially everything
    assert bp.spdc_factor(MODEL) == pytest.approx(0.98146, rel=1e-3)
    with pytest.raises(ValueError):
        BandpassFilter(center_nm=290.0, fwhm_nm=5.0).spdc_factor(MODEL)
    with pytest.raises(ValueError):
        BandpassFilter(center_nm=534.0, fwhm_nm=0.0)


def test_temporal_gate_oracle_values():
    # 10 ns gate at 1 kHz: the prompt component is almost fully inside,
    # closed form 1 - exp(-5/0.73) for the in-gate half
    single = make_model(amplitudes=(1.0,), lifetimes_ns=(0.73,))
    gate = TemporalGate(window_ns=10.0)
    assert gate.lum_factor(single) == pytest.approx(0.99893981840393962,
                                                    rel=1e-12)
    # SPDC rides the IRF: a gate much wider than 0.15 ns passes everything
    assert gate.spdc_factor(single) == pytest.approx(1.0, abs=1e-12)

    # tau 1850 ns at 100 kHz: pile-up raises the in-gate share
    slow = make_model(amplitudes=(1.0,), lifetimes_ns=(1850.0,),
                      repetition_rate_hz=1e5)
    assert gate.lum_factor(slow) == pytest.approx(
        0.0027234456335098377, rel=1e-12)


def test_temporal_gate_runs_at_the_pump_rate():
    # the default three-component decay piles up more at 100 kHz
    gate = TemporalGate(window_ns=10.0)
    fast = gate.lum_factor(make_model(repetition_rate_hz=1e5))
    assert fast == 0.0031077634700259803
    assert gate.lum_factor(MODEL) < fast


def test_temporal_gate_validation():
    with pytest.raises(ValueError):
        TemporalGate(window_ns=0.0)
    with pytest.raises(ValueError, match="repetition rate must be positive"):
        # the gate's period is the pump's, which refuses a zero rate
        make_model(repetition_rate_hz=0.0)
    with pytest.raises(TypeError):
        # latency is keyword-only: a second positional is not a rate
        TemporalGate(10.0, 1000.0)
    fast = make_model(repetition_rate_hz=1e6)
    with pytest.raises(ValueError, match="does not fit within one pulse"):
        # interval [995, 1005] pokes beyond the 1000 ns period
        TemporalGate(window_ns=10.0, latency_ns=1000.0).lum_factor(fast)
    wide = TemporalGate(window_ns=1500.0)
    assert wide.interval_ns == (-750.0, 750.0)


def test_temporal_gate_wider_than_a_period_is_refused():
    # a gate can collect at most one period's luminescence: 1500 ns at 1 MHz
    # once gave 1.4978 and 2000 ns gave 2.0
    fast = make_model(repetition_rate_hz=1e6)
    for window in (1500.0, 2000.0):
        with pytest.raises(ValueError, match="does not fit within one pulse"):
            TemporalGate(window_ns=window).lum_factor(fast)
    # exactly one period, wherever it sits, collects the whole period
    assert TemporalGate(window_ns=1000.0).lum_factor(fast) == \
        pytest.approx(1.0, rel=1e-12)
    assert TemporalGate(window_ns=1000.0, latency_ns=400.0).lum_factor(
        fast) == pytest.approx(1.0, rel=1e-12)
    # the scenario table refuses it even for rows that do not use the chain
    with pytest.raises(ValueError, match="does not fit within one pulse"):
        run_scenarios(fast, FilterChain((TemporalGate(window_ns=1500.0),)),
                      [ScenarioSpec("plain", 1.0, 1.0)])


def test_chain_permutation_invariance():
    rng = np.random.default_rng(31)
    pool = [
        Polarizer(),
        LongpassFilter(cutoff_nm=460.0),
        BandpassFilter(center_nm=534.0, fwhm_nm=30.0),
        LongpassFilter(cutoff_nm=400.0, transmission=0.9),
        TemporalGate(window_ns=10.0),
    ]
    for _ in range(10):
        k = int(rng.integers(2, len(pool) + 1))
        subset = list(rng.choice(len(pool), size=k, replace=False))
        filters = [pool[i] for i in subset]
        base_s = transmit_spdc(FilterChain(tuple(filters)), MODEL)
        base_l = transmit_luminescence(FilterChain(tuple(filters)), MODEL)
        for perm in itertools.permutations(filters):
            chain = FilterChain(tuple(perm))
            assert transmit_spdc(chain, MODEL) == pytest.approx(
                base_s, rel=1e-12)
            assert transmit_luminescence(chain, MODEL) == pytest.approx(
                base_l, rel=1e-12)


def test_chain_bounds_and_monotone_attenuation():
    chain = FilterChain(())
    assert transmit_spdc(chain, MODEL) == 1.0
    assert transmit_luminescence(chain, MODEL) == 1.0
    grow = []
    for f in (Polarizer(), LongpassFilter(cutoff_nm=460.0),
              BandpassFilter(center_nm=534.0, fwhm_nm=30.0),
              TemporalGate(window_ns=10.0)):
        grow.append(f)
        c = FilterChain(tuple(grow))
        ts, tl = transmit_spdc(c, MODEL), transmit_luminescence(c, MODEL)
        assert 0.0 <= ts <= 1.0
        assert 0.0 <= tl <= 1.0
    # adding a filter never increases either transmission
    partial = FilterChain(tuple(grow[:-1]))
    assert transmit_spdc(c, MODEL) <= transmit_spdc(partial, MODEL)
    assert transmit_luminescence(c, MODEL) <= transmit_luminescence(
        partial, MODEL)


def test_chain_allows_single_gate_only():
    g = TemporalGate(window_ns=10.0)
    with pytest.raises(ValueError):
        FilterChain((g, g))
    chain = FilterChain((Polarizer(), g))
    assert chain.filters == (Polarizer(), g)
    assert len(chain) == 2


def test_scenario_reference_table():
    # quotients of the published count totals, with their rounded SNRs
    # attached as references; rows where the reference disagrees with the
    # quotient get an informational note, never a flag
    specs = (
        ScenarioSpec("no filtering", 2.225e10, 1.343e10,
                     reference_snr=1.657),
        ScenarioSpec("longpass", 2.225e10, 1.343e10, spdc_fraction=1.0,
                     lum_fraction=0.489 / 1.343, reference_snr=4.450),
        ScenarioSpec("longpass and gate", 2.225e10, 1.343e10,
                     spdc_fraction=1.0, lum_fraction=0.024 / 1.343,
                     reference_snr=96.572),
    )
    results = run_scenarios(MODEL, FilterChain(()), specs,
                            window_ns=10.0, spdc_rate_hz=1e5)
    snrs = [r.snr for r in results]
    assert snrs[0] == pytest.approx(1.65673864483, rel=1e-9)
    assert snrs[1] == pytest.approx(4.55010224949, rel=1e-9)
    assert snrs[2] == pytest.approx(92.7083333333, rel=1e-9)
    fs = [r.f_exact for r in results]
    assert fs[0] == pytest.approx(0.623456923388, rel=1e-9)
    assert fs[1] == pytest.approx(0.819790669726, rel=1e-9)
    assert fs[2] == pytest.approx(0.989328476604, rel=1e-9)
    # row one's reference rounds to the quotient; the others disagree
    assert results[0].notes == ()
    assert any("reference SNR" in n for n in results[1].notes)
    assert any("reference SNR" in n for n in results[2].notes)
    assert not any(r.flagged for r in results)


def test_scenario_chain_fractions():
    chain = FilterChain((LongpassFilter(cutoff_nm=460.0, transmission=1.0),))
    spec = ScenarioSpec("chain", 2.225e10, 1.343e10, use_chain=True)
    r = scenario_fidelity(MODEL, chain, spec)
    assert r.spdc_fraction == pytest.approx(1.0, abs=1e-9)
    assert r.lum_fraction == pytest.approx(0.25039881578486748, rel=1e-4)
    assert r.snr == pytest.approx(1.65673864483 / r.lum_fraction, rel=1e-6)


def test_scenario_explicit_fraction_wins_over_chain():
    chain = FilterChain((Polarizer(axis="orthogonal"),))
    spec = ScenarioSpec("override", 1e10, 1e10, spdc_fraction=1.0,
                        lum_fraction=1.0, use_chain=True)
    r = scenario_fidelity(MODEL, chain, spec)
    assert r.spdc_fraction == 1.0
    assert not r.flagged


def test_scenario_degenerate_flags():
    blocked = scenario_fidelity(
        MODEL, FilterChain((Polarizer(axis="orthogonal"),)),
        ScenarioSpec("blocked", 1e10, 1e10, use_chain=True))
    assert "spdc-blocked" in blocked.flags
    assert blocked.snr == 0.0

    nothing = scenario_fidelity(
        MODEL, FilterChain(()),
        ScenarioSpec("empty", 0.0, 0.0))
    assert "spdc-blocked" in nothing.flags
    assert "no-counts" in nothing.flags

    low = scenario_fidelity(MODEL, FilterChain(()),
                            ScenarioSpec("weak", 1e3, 1e10),
                            window_ns=10.0, spdc_rate_hz=1e5)
    assert "nonpositive-fidelity" in low.flags


def test_scenario_no_luminescence_note():
    r = scenario_fidelity(MODEL, FilterChain(()),
                          ScenarioSpec("clean", 1e10, 0.0))
    assert r.snr == np.inf
    assert r.f_exact == 1.0
    assert not r.flagged
    assert any("luminescence" in n for n in r.notes)


def test_scenario_efficiency_invariance():
    # a detector efficiency common to both channels cancels in SNR and F
    base = scenario_fidelity(MODEL, FilterChain(()),
                             ScenarioSpec("a", 2.225e10, 1.343e10))
    scaled = scenario_fidelity(MODEL, FilterChain(()),
                               ScenarioSpec("b", 2.225e10 * 0.37,
                                            1.343e10 * 0.37))
    assert scaled.snr == pytest.approx(base.snr, rel=1e-12)
    assert scaled.f_exact == pytest.approx(base.f_exact, rel=1e-12)


def test_scenario_snr_monotone_under_filtering():
    # appending a filter that passes less luminescence than SPDC raises SNR
    base_chain = FilterChain(())
    better_chain = FilterChain((LongpassFilter(cutoff_nm=460.0),))
    spec = ScenarioSpec("x", 2.225e10, 1.343e10, use_chain=True)
    a = scenario_fidelity(MODEL, base_chain, spec)
    b = scenario_fidelity(MODEL, better_chain, spec)
    assert b.snr > a.snr
    assert b.f_exact > a.f_exact


def test_pump_scan_bandpass_selects_degenerate():
    # a bandpass parked at 534 nm transmits more SPDC as the pump approaches
    # 267 nm, while the pump-independent luminescence fraction never moves
    chain = FilterChain((BandpassFilter(center_nm=534.0, fwhm_nm=20.0),))
    models = [retarget_pump(MODEL, p) for p in (250.0, 260.0, 267.0)]
    assert [m.spdc_spectrum.center_nm for m in models] == [500.0, 520.0,
                                                           534.0]
    fracs = [transmit_spdc(chain, m) for m in models]
    assert fracs[0] < fracs[1] < fracs[2]
    assert len({transmit_luminescence(chain, m) for m in models}) == 1


def test_repetition_rate_alert():
    ok = repetition_rate_alert(MODEL)
    assert ok.ok
    assert "period" in ok.message
    slow = repetition_rate_alert(make_model(repetition_rate_hz=1e5))
    assert not slow.ok
    assert "9950" in slow.message
    # the period must cover MIN_PERIODS lifetimes of the slowest component
    edge = 1e9 / (MIN_PERIODS * 9950.0)
    assert repetition_rate_alert(make_model(repetition_rate_hz=edge)).ok
    assert not repetition_rate_alert(
        make_model(repetition_rate_hz=edge * 1.001)).ok


@pytest.mark.parametrize("call, error, start", [
    (lambda: BandpassFilter(534.0, 10.0, peak_transmission=0.0), ValueError,
     "peak transmission must be in (0, 1]"),
    (lambda: FilterChain(("longpass",)), TypeError,
     "not a filter: 'longpass'"),
    (lambda: ScenarioSpec("a", -1.0, 1.0), ValueError,
     "baseline counts must be nonnegative"),
], ids=["bandpass-transmission", "not-a-filter", "negative-counts"])
def test_filter_records_refuse(call, error, start):
    with pytest.raises(Exception) as err:
        call()
    assert err.type is error
    assert str(err.value).startswith(start)
