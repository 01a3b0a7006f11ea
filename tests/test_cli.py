"""End-to-end command-line runs, in process."""

import contextlib
import csv
import io
import os
import re
from pathlib import Path

import pytest

from spdclum.cli import _resolve, build_parser, main
from spdclum.herald import fidelity_from_snr
from spdclum.streak import read_streak_csv

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_deterministic_image(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, out, _ = run(capsys, "synth", "--out", str(out_a), "--seed", "4",
                       "--exposure", "2000")
    assert code == 0
    assert "wrote" in out
    code, _, _ = run(capsys, "synth", "--out", str(out_b), "--seed", "4",
                     "--exposure", "2000")
    assert code == 0
    a = (out_a / "streak.csv").read_bytes()
    b = (out_b / "streak.csv").read_bytes()
    assert a == b
    assert (out_a / "resolved.cfg").exists()


def test_synth_requires_out(capsys):
    code, _, err = run(capsys, "synth")
    assert code == 2
    assert "out" in err.lower()


def test_synth_custom_wavelength_grid(tmp_path, capsys):
    out = tmp_path / "o"
    code, text, _ = run(capsys, "synth", "--out", str(out), "--exposure",
                        "1000", "--set", "synth.wavelength_min_nm=450",
                        "--set", "synth.wavelength_max_nm=620",
                        "--set", "synth.wavelength_step_nm=1")
    assert code == 0
    assert "201 time x 171 wavelength bins" in text
    image = read_streak_csv(out / "streak.csv")
    assert image.counts.shape == (201, 171)
    assert image.wavelength_axis_nm[[0, -1]].tolist() == [450.0, 620.0]


def test_flags_accepted_before_subcommand(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, _ = run(capsys, "--seed", "4", "synth", "--out", str(out),
                     "--exposure", "1000")
    assert code == 0


def test_analyze_happy_and_csv(tmp_path, capsys):
    out = tmp_path / "img"
    run(capsys, "synth", "--out", str(out), "--seed", "4",
        "--exposure", "20000")
    image = str(out / "streak.csv")

    code, out_text, _ = run(capsys, "analyze", image)
    assert code == 0
    assert "snr" in out_text.lower()

    code, csv_text, _ = run(capsys, "analyze", image, "--format", "csv")
    assert code == 0
    head, row = csv_text.strip().splitlines()[:2]
    assert head.split(",")[:3] == ["c_spdc", "c_lum", "snr"]
    c_spdc, c_lum = float(row.split(",")[0]), float(row.split(",")[1])
    assert c_spdc > 0 and c_lum > 0


def test_analyze_flagged_image_exits_5(tmp_path, capsys):
    # both emission terms off: the image carries no counts at all
    out = tmp_path / "img"
    run(capsys, "synth", "--out", str(out), "--seed", "4",
        "--exposure", "2000", "--spdc-rate", "0", "--lum-rate", "0")
    code, text, _ = run(capsys, "analyze", str(out / "streak.csv"))
    assert code == 5
    assert "no-counts" in text


def test_analyze_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "x.csv"
    bad.write_text("not a streak image\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 3


@pytest.mark.parametrize("header, rows, span", [
    # the default pair line is 514..554 nm and the SPDC gate -0.45..0.45 ns
    ("500.0,501.0", "0.0,1,2\n1.0,3,4\n", "500..501 nm"),
    ("520.0,530.0,540.0", "-2.0,1,2,3\n-1.0,1,2,3\n0.0,3,4,5\n",
     "-2..0 ns"),
], ids=["wavelength", "time"])
def test_analyze_image_missing_pair_line_exits_3(tmp_path, capsys, header,
                                                 rows, span):
    # an image whose axes miss the SPDC window is an input error, and the
    # message names the image's span and the window it misses
    image = tmp_path / "x.csv"
    image.write_text(f"# streak-image/v1\n# exposure = 5\n{header}\n{rows}")
    code, _, err = run(capsys, "analyze", str(image))
    assert code == 3
    assert err.startswith("input error: ")
    assert span in err
    assert "514..554 nm" in err and "-0.45..0.45 ns" in err


def test_fit_trace_roundtrip(tmp_path, capsys):
    # pure single-lifetime luminescence so one component describes the trace
    out = tmp_path / "img"
    run(capsys, "synth", "--out", str(out), "--seed", "4",
        "--exposure", "20000", "--spdc-rate", "0",
        "--set", "lum_decay.amplitudes=1.0",
        "--set", "lum_decay.lifetimes_ns=0.73")
    fit_out = tmp_path / "fit"
    code, text, _ = run(capsys, "fit", str(out / "streak.csv"),
                        "--components", "1", "--irf", "0.15",
                        "--band", "514,554", "--out", str(fit_out))
    assert code == 0
    assert "lifetime" in text.lower() or "tau" in text.lower()
    assert (fit_out / "fit.csv").exists()
    assert (fit_out / "residuals.csv").exists()


def test_fit_zero_irf_is_the_bare_fit(tmp_path, capsys):
    out = tmp_path / "img"
    run(capsys, "synth", "--out", str(out), "--seed", "4",
        "--exposure", "20000")
    image = str(out / "streak.csv")
    bare = run(capsys, "fit", image, "--band", "514,554")
    zero = run(capsys, "fit", image, "--irf", "0", "--band", "514,554")
    assert zero == bare
    assert "lifetime" in bare[1]


def test_fit_decay_trace_file(tmp_path, capsys):
    # a plain two-column trace is also accepted
    import numpy as np

    from spdclum.streak import write_trace_csv

    rng = np.random.default_rng(3)
    t = np.arange(0.0, 5000.0, 10.0)
    y = rng.poisson(4000.0 * np.exp(-t / 500.0) + 10.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), t, y)
    code, text, _ = run(capsys, "fit", str(path), "--components", "1")
    assert code == 0
    m = re.search(r"lifetime ([0-9.eE+-]+) ns", text)
    assert m is not None
    assert abs(float(m.group(1)) - 500.0) / 500.0 < 0.05


def test_fit_takes_the_images_pulse_arrival(tmp_path, capsys):
    # a decay whose pulse arrives at 3 ns: fitting it from t0 = 0 once ended
    # at the lifetime bound (0.0025 ns, exit 5)
    out = tmp_path / "img"
    run(capsys, "synth", "--out", str(out), "--seed", "2",
        "--set", "synth.t0_ns=3", "--set", "synth.time_max_ns=20",
        "--set", "lum_decay.amplitudes=1", "--set", "lum_decay.lifetimes_ns=2",
        "--set", "spdc_rate_hz=0")
    image = str(out / "streak.csv")
    code, text, _ = run(capsys, "fit", image, "--components", "1",
                        "--irf", "0.15", "--format", "csv")
    assert code == 0
    rows = {r["term"]: r for r in csv.DictReader(io.StringIO(text))}
    assert float(rows["component_1"]["lifetime_ns"]) == pytest.approx(
        2.0, rel=1e-3)
    # an explicit fit.t0_ns still wins
    code, text, _ = run(capsys, "fit", image, "--components", "1",
                        "--irf", "0.15", "--format", "csv",
                        "--set", "fit.t0_ns=2.5", "--set", "fit.fit_t0=false")
    rows = {r["term"]: r for r in csv.DictReader(io.StringIO(text))}
    assert rows["t0_ns"]["value"] == "2.5"


def test_fit_bad_pulse_arrival_exits_3(tmp_path, capsys):
    import numpy as np

    from spdclum.streak import write_trace_csv

    t = np.arange(0.0, 50.0, 1.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), t, 100.0 * np.exp(-t / 5.0),
                    metadata={"pulse_arrival_ns": "nan"})
    code, _, err = run(capsys, "fit", str(path), "--components", "1")
    assert code == 3
    assert "pulse_arrival_ns" in err


def test_fit_trace_too_short_exits_3(tmp_path, capsys):
    # too few bins for the fit's parameters is a fault of the input
    import numpy as np

    from spdclum.streak import write_trace_csv

    t = np.arange(5) * 0.1
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), t, 100.0 * np.exp(-t))
    code, text, err = run(capsys, "fit", str(path))
    assert (code, text, err) == (
        3, "", "input error: trace too short: 5 bins for 3 parameters\n")


def test_fit_t0_without_irf_width_exits_2(tmp_path, capsys):
    # fitting t0 needs an IRF width: a fault of the settings, not the input
    import numpy as np

    from spdclum.streak import write_trace_csv

    t = np.arange(50) * 0.1
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), t, 100.0 * np.exp(-t))
    code, text, err = run(capsys, "fit", str(path), "--irf", "0",
                          "--set", "fit.fit_t0=true")
    assert (code, text, err) == (
        2, "", "configuration error: t0 can only be fitted with a nonzero "
               "IRF width\n")


def test_fit_missing_file_exits_3(capsys):
    code, _, _ = run(capsys, "fit", "/no/such/file.csv")
    assert code == 3


def test_herald_reference_numbers(capsys):
    code, text, _ = run(capsys, "herald", "--rs", "1e5", "--rl", "6.036e4",
                        "--tw", "10")
    assert code == 0
    assert "0.001" in text          # P_S
    assert "0.623" in text          # fidelity


def test_herald_csv_row(capsys):
    code, text, _ = run(capsys, "herald", "--format", "csv")
    assert code == 0
    head, row = text.strip().splitlines()
    assert head.split(",")[0] == "p_s"
    values = row.split(",")
    assert float(values[0]) == 1e-3


def test_herald_snr_in_csv(tmp_path, capsys):
    # the measured-SNR fidelity goes into the table; its cells stay empty
    # without --snr
    est = fidelity_from_snr(1.657, 10.0, 1e5)
    code, text, _ = run(capsys, "herald", "--snr", "1.657", "--format", "csv",
                        "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "herald.csv").read_text() == text
    row = next(csv.DictReader(io.StringIO(text)))
    assert float(row["f_snr_exact"]) == est.f_exact
    assert float(row["f_snr_approx"]) == est.f_approx
    _, text, _ = run(capsys, "herald", "--format", "csv")
    row = next(csv.DictReader(io.StringIO(text)))
    assert row["f_snr_exact"] == row["f_snr_approx"] == ""


def test_herald_probability_flags(capsys):
    code, text, _ = run(capsys, "herald", "--ps", "1e-3", "--pl", "0")
    assert code == 0
    assert "F          1" in text
    code, _, err = run(capsys, "herald", "--rs", "1e9")
    assert code == 2
    assert "not a probability" in err or "probability" in err


def test_herald_monte_carlo(capsys):
    code, text, _ = run(capsys, "herald", "--monte-carlo", "200000",
                        "--seed", "12")
    assert code == 0
    assert "monte carlo" in text
    assert "standard errors" in text


def test_herald_snr_flagged_exits_5(capsys):
    code, _, err = run(capsys, "herald", "--snr", "0.0005")
    assert code == 5
    assert "flag" in err


def test_scenario_table_and_reruns(tmp_path, capsys):
    cfg = tmp_path / "table.cfg"
    cfg.write_text(
        "scenario.1.label = no filtering\n"
        "scenario.1.reference_snr = 1.657\n"
        "scenario.2.label = spectral filtering\n"
        "scenario.2.spdc_fraction = 1.0\n"
        "scenario.2.lum_fraction = 0.3641102011913626\n"
        "scenario.2.reference_snr = 4.450\n"
        "scenario.3.label = spectral and time filtering\n"
        "scenario.3.spdc_fraction = 1.0\n"
        "scenario.3.lum_fraction = 0.017870439315010425\n"
        "scenario.3.reference_snr = 96.572\n")
    out1 = tmp_path / "r1"
    code, text, _ = run(capsys, "scenario", "--config", str(cfg),
                        "--out", str(out1))
    assert code == 0
    assert "no filtering" in text
    assert "1.65674" in text
    assert "0.6235" in text     # exact fidelity column
    assert "0.6236" in text     # approximation column
    assert "reference SNR" in text   # informational note, not a failure

    # rerunning from the resolved config reproduces the table byte for byte
    out2 = tmp_path / "r2"
    code, _, _ = run(capsys, "scenario", "--config",
                     str(out1 / "resolved.cfg"), "--out", str(out2))
    assert code == 0
    assert (out1 / "scenarios.csv").read_bytes() == \
        (out2 / "scenarios.csv").read_bytes()


def test_scenario_empty_config_prints_header(capsys):
    code, text, _ = run(capsys, "scenario", "--format", "csv")
    assert code == 0
    assert text.strip().splitlines()[0].startswith("label,")


def test_scenario_flagged_exits_5(tmp_path, capsys):
    cfg = tmp_path / "blocked.cfg"
    cfg.write_text(
        "filter.1.kind = polarizer\n"
        "filter.1.axis = orthogonal\n"
        "scenario.1.use_chain = true\n")
    code, text, _ = run(capsys, "scenario", "--config", str(cfg))
    assert code == 5
    assert "spdc-blocked" in text


def test_set_override_and_env(tmp_path, capsys, monkeypatch):
    out = tmp_path / "e"
    monkeypatch.setenv("SPDCLUM_SYNTH__EXPOSURE", "1500")
    code, text, _ = run(capsys, "synth", "--out", str(out))
    assert code == 0
    assert "1500" not in ""  # env applied silently; check the config echo
    resolved = (out / "resolved.cfg").read_text()
    assert "synth.exposure = 1500" in resolved
    # --set beats the environment
    out2 = tmp_path / "e2"
    code, _, _ = run(capsys, "synth", "--out", str(out2),
                     "--set", "synth.exposure=800")
    assert (out2 / "resolved.cfg").read_text().count("synth.exposure = 800") == 1


def test_unknown_config_key_exits_2(capsys):
    code, _, err = run(capsys, "synth", "--set", "nope=1")
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("header, bad_time", [
    ("500.0,nan,502.0", "1.0"),
    ("nan,501.0,502.0", "1.0"),
    ("500.0,501.0,502.0", "nan"),
], ids=["mid-wavelength", "first-wavelength", "time"])
def test_analyze_nonfinite_axis_exits_3(tmp_path, capsys, header, bad_time):
    bad = tmp_path / "x.csv"
    bad.write_text(f"# streak-image/v1\n# exposure = 5\n{header}\n"
                   f"0.0,1,2,3\n{bad_time},2,2,2\n2.0,1,1,1\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 3
    assert "axis must be finite" in err


def test_fit_nonfinite_trace_exits_3(tmp_path, capsys):
    bad = tmp_path / "trace.csv"
    bad.write_text("# decay-trace/v1\ntime_ns,counts\n0.0,5.0\n0.1,nan\n"
                   "0.2,3.0\n")
    code, _, err = run(capsys, "fit", str(bad))
    assert code == 3
    assert "line 4" in err


@pytest.mark.parametrize("repeat", ["0.1", "0.05"], ids=["equal", "backward"])
def test_fit_trace_with_non_increasing_time_exits_3(tmp_path, capsys,
                                                    repeat):
    # the fault is in the input file, so the reader names its line
    rows = [f"{0.1 * i!r},{100.0 - i!r}" for i in range(30)]
    rows.insert(3, f"{repeat},50.0")
    bad = tmp_path / "trace.csv"
    bad.write_text("# decay-trace/v1\ntime_ns,counts\n" + "\n".join(rows))
    code, _, err = run(capsys, "fit", str(bad))
    assert code == 3
    assert err == ("input error: line 6: time axis must be strictly "
                   "increasing\n")


@pytest.mark.parametrize("argv", [
    ["synth", "--set", "lum_spectrum.fwhm_nm=inf"],
    ["scenario", "--set", "pump.repetition_rate_hz=inf"],
], ids=["synth", "scenario"])
def test_infinite_config_float_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert argv[-1].split("=")[0] in err
    assert not (out / "streak.csv").exists()


@pytest.mark.parametrize("argv, key", [
    (["herald", "--monte-carlo", "-5"], "herald.n_windows"),
    (["synth", "--seed", "-1"], "seed"),
], ids=["herald-monte-carlo", "synth-seed"])
def test_negative_integer_exits_2(tmp_path, capsys, argv, key):
    # integer keys are counts or seeds: a negative one fails resolution,
    # naming the key, before resolved.cfg is written
    out = tmp_path / "o"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert f"{key}: must be nonnegative" in err
    assert not (out / "resolved.cfg").exists()


@pytest.mark.parametrize("key", ["pump.polarization_angle_deg",
                                 "spdc_power_exponent", "pump.power_mw",
                                 "herald.spdc_rate_hz", "herald.lum_rate_hz",
                                 "herald.efficiency"])
def test_removed_model_keys_are_unknown(tmp_path, capsys, key):
    code, _, err = run(capsys, "herald", "--set", f"{key}=1")
    assert code == 2
    assert f"unknown key: {key}" in err
    # a config file naming the key fails the same way
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 0\n")
    code, _, err = run(capsys, "herald", "--config", str(cfg))
    assert code == 2
    assert f"unknown key: {key}" in err


_GATED = ["scenario", "--set", "filter.1.kind=temporal_gate",
          "--set", "filter.1.window_ns=10", "--set", "scenario.1.use_chain=true"]


def test_gate_runs_at_the_pump_rate(capsys):
    code, out, _ = run(capsys, *_GATED, "--format", "csv",
                       "--set", "pump.repetition_rate_hz=1e5")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["snr"] == "533.0967626088894"


def test_probability_flags_set_the_model_rates():
    # --ps/--pl land on the model's rate keys, through the resolved window
    args = build_parser().parse_args(["herald", "--ps", "2e-3", "--pl",
                                      "1e-3", "--tw", "5"])
    cfg = _resolve(args)
    assert (cfg.get("spdc_rate_hz"), cfg.get("lum_rate_hz")) == \
        pytest.approx((4e5, 2e5), rel=1e-12)


@pytest.mark.parametrize("settings", [
    # a gate wider than one period, on a chain row: it once passed 1.4978 of
    # the luminescence, clipped to 1, and reported the ungated SNR
    ["filter.1.kind=temporal_gate", "filter.1.window_ns=1500",
     "pump.repetition_rate_hz=1e6", "scenario.1.use_chain=true"],
    # out-of-period gate, row with explicit fractions
    ["filter.1.kind=temporal_gate", "filter.1.window_ns=10",
     "filter.1.latency_ns=1000", "pump.repetition_rate_hz=1e6",
     "scenario.1.spdc_fraction=0.5", "scenario.1.lum_fraction=0.5"],
    # bandpass off the wavelength grid, plain row
    ["filter.1.kind=bandpass", "filter.1.center_nm=900",
     "filter.1.fwhm_nm=10", "scenario.1.label=plain"],
], ids=["wide-gate-chain-row", "gate-explicit-row", "bandpass-plain-row"])
def test_refused_filter_exits_2_whatever_the_rows(capsys, settings):
    code, out, err = run(capsys, "scenario",
                         *[a for s in settings for a in ("--set", s)])
    assert code == 2
    assert err.startswith("configuration error:")
    assert out == ""


def test_gate_repetition_rate_key_is_unknown(tmp_path, capsys):
    # the gate has no rate of its own: a config that still sets one fails
    cfg = tmp_path / "old.cfg"
    cfg.write_text("filter.1.kind = temporal_gate\nfilter.1.window_ns = 10\n"
                   "filter.1.repetition_rate_hz = 1000\n")
    code, _, err = run(capsys, "scenario", "--config", str(cfg))
    assert code == 2
    assert ("unknown key: filter.1.repetition_rate_hz (not a member of kind "
            "temporal_gate)") in err


def test_synth_pileup_overflow_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "o"),
                       "--set", "lum_decay.irf_fwhm_ns=100",
                       "--set", "pump.repetition_rate_hz=1e7")
    assert code == 2
    assert "pile-up sum overflows" in err


@pytest.mark.parametrize("irf", [[], ["--irf", "0.15"]], ids=["bare", "irf"])
def test_fit_all_zero_trace_exits_5(tmp_path, capsys, irf):
    path = tmp_path / "zeros.csv"
    path.write_text("# decay-trace/v1\ntime_ns,counts\n"
                    + "".join(f"{0.05 * i - 2.0:.2f},0\n" for i in range(201)))
    code, text, _ = run(capsys, "fit", str(path), "--components", "1", *irf)
    assert code == 5
    assert "flag: no-counts" in text


@pytest.mark.parametrize("key, value, axis", [
    ("synth.time_step_ns", "1e-9", "time axis"),
    ("grid.step_nm", "1e-6", "wavelength axis"),
    ("synth.wavelength_step_nm", "1e-9", "wavelength axis"),
    ("synth.time_step_ns", "0.00005", "200001 time x 401 wavelength"),
], ids=["time-axis", "grid-axis", "synth-wavelength-axis", "image"])
def test_synth_bin_limit_exits_2(tmp_path, capsys, key, value, axis):
    out = tmp_path / "o"
    extra = []
    if key.startswith("synth.wavelength"):
        extra = ["--set", "synth.wavelength_min_nm=300",
                 "--set", "synth.wavelength_max_nm=700"]
    code, _, err = run(capsys, "synth", "--out", str(out),
                       "--set", f"{key}={value}", *extra)
    assert code == 2
    assert axis in err and "limit of" in err
    assert not (out / "streak.csv").exists()


def test_fit_baseline_on_its_zero_bound_csv(tmp_path, capsys):
    out = tmp_path / "img"
    run(capsys, "synth", "--out", str(out), "--seed", "3",
        "--exposure", "20000", "--spdc-rate", "0",
        "--set", "lum_decay.amplitudes=1.0",
        "--set", "lum_decay.lifetimes_ns=0.73")
    code, text, _ = run(capsys, "fit", str(out / "streak.csv"),
                        "--components", "1", "--irf", "0.15",
                        "--band", "514,554", "--format", "csv")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in text.splitlines()}
    assert rows["baseline"][:2] == ["0.0", "inf"]


@pytest.mark.parametrize("shape", ["spike", "exp"])
def test_fit_overflowing_trace_exits_4(tmp_path, capfd, shape):
    import warnings

    import numpy as np

    from spdclum.streak import write_trace_csv

    t = 0.05 * np.arange(201) - 2.0
    if shape == "spike":
        y = np.zeros_like(t)
        y[60] = 1e300
    else:
        y = 1e308 * np.exp(-np.abs(t))
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), t, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", str(path), "--components", "1"])
    out, err = capfd.readouterr()
    assert code == 4
    assert "flag: not-converged" in out
    assert err == "fit did not converge\n"


@pytest.mark.parametrize("command", ["analyze", "fit"])
def test_binary_input_exits_3(tmp_path, capsys, command):
    path = tmp_path / "image.csv"
    path.write_bytes(b"\xff\xd8\xff\xe0 not text")
    code, _, err = run(capsys, command, str(path))
    assert code == 3
    assert "not a UTF-8 text file" in err


@pytest.mark.parametrize("command", ["analyze", "fit"])
def test_count_beyond_int64_exits_3(tmp_path, capsys, command):
    path = tmp_path / "image.csv"
    path.write_text("# streak-image/v1\n# exposure = 5\n500.0,501.0\n"
                    f"0.0,1,2\n1.0,3,{2**63}\n")
    code, _, err = run(capsys, command, str(path))
    assert code == 3
    assert "line 5: counts must fit in a 64-bit integer" in err


@pytest.mark.parametrize("command", ["analyze", "fit"])
def test_count_total_beyond_int64_exits_3(tmp_path, capsys, command):
    # 16 counts of 2**61 each fit in int64; their total, 2**65, does not
    path = tmp_path / "image.csv"
    rows = "".join(f"{t},{','.join([str(2**61)] * 4)}\n"
                   for t in (-1.0, 0.0, 1.0, 2.0))
    path.write_text("# streak-image/v1\n# exposure = 5\n"
                    f"500.0,530.0,540.0,600.0\n{rows}")
    code, _, err = run(capsys, command, str(path))
    assert code == 3
    assert err == ("input error: total counts do not fit in a 64-bit "
                   "integer\n")


@pytest.mark.parametrize("argv, message", [
    (["--exposure", "0"], "exposure must be at least one pulse"),
    (["--set", "synth.time_step_ns=0"], "time step must be positive"),
    # an expected total beyond 2**62 would wrap the int64 count total
    (["--exposure", "100000000000000000"], "lower synth.exposure"),
], ids=["exposure", "time-step", "exposure-total"])
def test_failed_synth_writes_nothing(tmp_path, capsys, argv, message):
    # the output directory and its resolved.cfg appear only once the image
    # is synthesized
    out = tmp_path / "o"
    code, _, err = run(capsys, "synth", "--out", str(out), *argv)
    assert code == 2
    assert message in err
    assert not out.exists()


# every named flag: a command line, the config key it stores under, the
# parsed value, and a different raw value for the same key via --set
FLAG_KEYS = [
    (["synth", "--seed", "7"], "seed", 7, "9"),
    (["synth", "--out", "d"], "out.dir", "d", "elsewhere"),
    (["synth", "--format", "csv"], "out.format", "csv", "pretty"),
    (["synth", "--exposure", "1500"], "synth.exposure", 1500, "800"),
    (["synth", "--spdc-rate", "5e4"], "spdc_rate_hz", 5e4, "1"),
    (["synth", "--lum-rate", "3e4"], "lum_rate_hz", 3e4, "1"),
    (["analyze", "i.csv", "--overlap-mode", "model-subtract"],
     "analyze.overlap_mode", "model-subtract", "none"),
    (["fit", "i.csv", "--components", "2"], "fit.n_components", 2, "3"),
    (["fit", "i.csv", "--irf", "0.2"], "fit.irf_fwhm_ns", 0.2, "none"),
    (["fit", "i.csv", "--baseline", "zero"], "fit.baseline_mode", "zero",
     "free"),
    (["fit", "i.csv", "--band", "500,560"], "fit.band_nm", (500.0, 560.0),
     "1,2"),
    (["herald", "--rs", "2e5"], "spdc_rate_hz", 2e5, "1"),
    (["herald", "--rl", "7e4"], "lum_rate_hz", 7e4, "1"),
    (["herald", "--tw", "5"], "herald.window_ns", 5.0, "1"),
    (["herald", "--snr", "1.5"], "herald.snr", 1.5, "2"),
    (["herald", "--monte-carlo", "1000"], "herald.n_windows", 1000, "5"),
]


@pytest.mark.parametrize("argv, key, value, other", FLAG_KEYS,
                         ids=[argv[-2] for argv, *_ in FLAG_KEYS])
def test_flag_lands_on_its_config_key(argv, key, value, other):
    parser = build_parser()
    assert _resolve(parser.parse_args(argv)).get(key) == value
    # a named flag beats --set for the same key, on either side of it
    extra = ["--set", f"{key}={other}"]
    for line in (argv + extra, argv[:1] + extra + argv[1:]):
        assert _resolve(parser.parse_args(line)).get(key) == value


@pytest.mark.parametrize("command", [[], ["synth"], ["analyze"], ["fit"],
                                     ["herald"], ["scenario"]],
                         ids=["spdclum", "synth", "analyze", "fit", "herald",
                              "scenario"])
def test_help_shows_no_config_key_as_metavar(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert re.search(r"[A-Z_]+\.[A-Z_]", text) is None
    # the help still names the key each flag sets
    for argv, key, _, _ in FLAG_KEYS:
        if argv[:1] == command:
            assert key in text


@pytest.mark.parametrize("argv, name", [
    (["analyze", "IMAGE", "--overlap-mode", "model-subtract"], "counts.csv"),
    (["fit", "IMAGE", "--components", "1", "--irf", "0.15", "--band",
      "560,700", "--baseline", "zero"], "fit.csv"),
    (["herald", "--ps", "1e-3", "--pl", "5e-4", "--monte-carlo", "10000"],
     "herald.csv"),
    (["scenario", "--config", str(ROOT / "demos" / "table.cfg")],
     "scenarios.csv"),
], ids=["analyze", "fit", "herald", "scenario"])
def test_csv_stdout_equals_written_file(tmp_path, capsys, argv, name):
    if "IMAGE" in argv:
        run(capsys, "synth", "--out", str(tmp_path / "img"), "--exposure",
            "20000")
        argv = [str(tmp_path / "img" / "streak.csv") if a == "IMAGE" else a
                for a in argv]
    out = tmp_path / "d"
    code, text, _ = run(capsys, *argv, "--format", "csv", "--out", str(out))
    assert code in (0, 5)
    assert text.encode("utf-8") == (out / name).read_bytes()
    assert (out / "resolved.cfg").exists()


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("img")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(out), "--exposure", "20000"]) == 0
    return str(out / "streak.csv")


def test_synth_prints_both_notes(tmp_path, capsys):
    # a pump period under 5 slowest lifetimes, and bins wider than the IRF
    code, text, _ = run(capsys, "synth", "--out", str(tmp_path / "o"),
                        "--exposure", "1000",
                        "--set", "pump.repetition_rate_hz=1e6",
                        "--set", "synth.time_step_ns=0.2")
    assert code == 0
    notes = text.splitlines()[1:]
    assert len(notes) == 2
    assert notes[0].startswith("note: period 1000 ns")
    assert notes[1].startswith("note: time bin width 0.2 ns")
    assert notes[1].endswith("under-resolved")


def test_analyze_reports_an_explicit_roi(image_path, capsys):
    code, text, _ = run(capsys, "analyze", image_path,
                        "--set", "analyze.spdc_roi=524,544,-0.5,0.5")
    assert code == 0
    assert text.splitlines()[0] == "SPDC ROI   524-544 nm, -0.5-0.5 ns"


def test_analyze_malformed_roi_exits_2(image_path, capsys):
    code, _, err = run(capsys, "analyze", image_path,
                       "--set", "analyze.lum_roi=1,2,3")
    assert code == 2
    assert "analyze.lum_roi" in err


@pytest.mark.parametrize("bad", ["abc", "nan"])
def test_analyze_bad_pulse_arrival_exits_3(tmp_path, capsys, bad):
    # the default ROIs read the pulse arrival as the fit does
    image = tmp_path / "x.csv"
    image.write_text("# streak-image/v1\n# exposure = 5\n"
                     f"# pulse_arrival_ns = {bad}\n500.0,530.0,540.0,600.0\n"
                     "-1.0,1,2,3,4\n0.0,1,2,3,4\n1.0,1,2,3,4\n2.0,1,2,3,4\n")
    code, _, err = run(capsys, "analyze", str(image))
    assert code == 3
    assert err == (f"input error: pulse_arrival_ns = '{bad}' is not a finite "
                   "number\n")


def test_herald_monte_carlo_without_heralds_exits_5(capsys):
    argv = ["herald", "--ps", "1e-9", "--pl", "1e-9", "--monte-carlo", "10",
            "--seed", "1"]
    code, text, _ = run(capsys, *argv)
    assert code == 5
    assert "monte carlo: 10 windows, 0 heralds" in text
    assert text.splitlines()[-1] == "flag: no-heralds"
    code, text, err = run(capsys, *argv, "--format", "csv")
    assert code == 5
    assert len(text.splitlines()) == 2 and "flag" not in text
    assert err == ""


def test_herald_monte_carlo_window_count_fits_int64(capsys):
    # the multinomial draw counts windows in 64-bit integers
    code, text, err = run(capsys, "herald", "--monte-carlo", "1e19")
    assert code == 2
    assert text == ""
    assert err.startswith("configuration error: 10000000000000000000 windows")
    code, text, _ = run(capsys, "herald", "--monte-carlo", "9e18")
    assert code == 0
    assert "monte carlo: 9000000000000000000 windows" in text


def test_herald_reports_the_signal_rate(capsys):
    code, text, _ = run(capsys, "herald",
                        "--set", "herald.lum_rate_signal_hz=1e4")
    assert code == 0
    assert "P_L signal 0.0001\n" in text


@pytest.mark.parametrize("argv", [["--set", "nokey"], ["--ps", "abc"]],
                         ids=["set-without-value", "bad-probability"])
def test_herald_bad_input_exits_2(capsys, argv):
    code, text, err = run(capsys, "herald", *argv)
    assert code == 2
    assert text == ""
    assert err.startswith("configuration error: ")


@pytest.mark.parametrize("argv, table, err", [
    (["analyze", "IMAGE"], "counts.csv", ""),
    (["fit", "IMAGE", "--components", "1", "--irf", "0.15", "--band",
      "560,700"], "fit.csv", ""),
    (["herald", "--monte-carlo", "10000", "--snr", "0.0005"], "herald.csv",
     "flag: nonpositive fidelity at this SNR\n"),
    (["scenario", "--config", str(ROOT / "demos" / "table.cfg")],
     "scenarios.csv", ""),
], ids=["analyze", "fit", "herald-flagged", "scenario"])
def test_csv_mode_prints_the_table_file_and_reruns(tmp_path, capsys,
                                                   image_path, argv, table,
                                                   err):
    # csv mode prints exactly the table file; a flag goes to stderr only;
    # a rerun from resolved.cfg gives the same bytes and files
    argv = [image_path if a == "IMAGE" else a for a in argv]
    positional = argv[:2] if argv[1] == image_path else argv[:1]
    d, d2 = tmp_path / "d", tmp_path / "d2"
    code, text, stderr = run(capsys, *argv, "--format", "csv",
                             "--out", str(d))
    assert code == (5 if err else 0)
    assert stderr == err
    assert text.encode("utf-8") == (d / table).read_bytes()
    rerun = run(capsys, *positional, "--config", str(d / "resolved.cfg"),
                "--out", str(d2))
    assert rerun == (code, text, err)
    names = sorted(p.name for p in d.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        if name != "resolved.cfg":
            assert (d / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("shape", ["spike", "exp"])
def test_fit_overflowing_trace_writes_finite_residuals(tmp_path, capsys,
                                                       shape):
    import numpy as np

    from spdclum.streak import read_trace_csv, write_trace_csv

    t = 0.05 * np.arange(201) - 2.0
    if shape == "spike":
        y = np.zeros_like(t)
        y[60] = 1e300
    else:
        y = 1e308 * np.exp(-np.abs(t))
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), t, y)
    out = tmp_path / "d"
    code, _, err = run(capsys, "fit", str(path), "--components", "1",
                       "--out", str(out))
    assert code == 4
    assert err == "fit did not converge\n"
    times, residuals, _ = read_trace_csv(out / "residuals.csv")
    assert np.array_equal(times, t) and np.isfinite(residuals).all()


@pytest.mark.parametrize("argv, message", [
    (["scenario", "--set", "filter.1.kind=longpass",
      "--set", "filter.1.cutoff_nm=460", "--set", "filter.1.transmission=2"],
     "filter.1: transmission must be in (0, 1]"),
    (["scenario", "--set", "filter.1.kind=temporal_gate",
      "--set", "filter.1.window_ns=10", "--set", "filter.2.kind=temporal_gate",
      "--set", "filter.2.window_ns=5"],
     "a chain carries at most one temporal gate"),
    (["scenario", "--set", "scenario.1.spdc_fraction=2"],
     "scenario.1: spdc_fraction must be in [0, 1]"),
    (["herald", "--set", "seed=1.5"], "seed: not an integer: '1.5'"),
    (["herald", "--set", "lum_decay.amplitudes="],
     "lum_decay.amplitudes: empty list"),
    (["scenario", "--set", "seed=x", "--set", "filter.1.cutoff_nm=460"],
     "seed: not an integer: 'x'"),
    (["synth", "--out", "OUT", "--set", "synth.wavelength_min_nm=450",
      "--set", "synth.wavelength_max_nm=620"],
     "set all three synth.wavelength_* keys or none"),
    (["fit", "IMAGE", "--set", "fit.band_nm=514,554,600"],
     "fit.band_nm: expected 2 numbers (lo, hi)"),
], ids=["refused-filter-member", "two-gates", "refused-row-member",
        "fractional-seed", "empty-list", "scalar-before-group",
        "two-wavelength-keys", "three-band-numbers"])
def test_configuration_errors_exit_2(tmp_path, capsys, image_path, argv,
                                     message):
    argv = [{"OUT": str(tmp_path / "o"), "IMAGE": image_path}.get(a, a)
            for a in argv]
    code, text, err = run(capsys, *argv)
    assert (code, text, err) == (2, "", f"configuration error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_config_file_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nFilter.1.kind = longpass\n")
    code, _, err = run(capsys, "scenario", "--config", str(cfg))
    assert code == 2
    assert err == (f"configuration error: {cfg} line 2: bad key "
                   "'Filter.1.kind'\n")
    missing = tmp_path / "no.cfg"
    code, _, err = run(capsys, "scenario", "--config", str(missing))
    assert code == 2
    assert err.startswith(
        f"configuration error: cannot read config file {missing}: ")


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
def test_unwritable_out_dir_exits_2(tmp_path, capsys, sub):
    # where results go is configuration; a missing input still exits 3
    taken = tmp_path / "taken"
    taken.write_text("x")
    out = os.path.join(taken, sub) if sub else str(taken)
    code, text, err = run(capsys, "herald", "--out", out)
    assert code == 2
    assert text == ""
    assert err.startswith("configuration error: out.dir: [Errno ")
    assert taken.read_text() == "x"
