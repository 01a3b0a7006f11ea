"""Layered run configuration: file, environment, and override parsing."""

import pytest

from spdclum.config import ENV_PREFIX, REGISTRY, ConfigError, resolve_config
from spdclum.filters import (BandpassFilter, LongpassFilter, Polarizer,
                             TemporalGate, run_scenarios)


def test_defaults_resolve():
    cfg = resolve_config(environ={})
    assert cfg.get("pump.wavelength_nm") == 267.0
    assert cfg.get("pump.repetition_rate_hz") == 1000.0
    assert cfg.get("lum_decay.lifetimes_ns") == (0.73, 1850.0, 9950.0)
    assert cfg.get("lum_decay.amplitudes") == (0.90, 0.07, 0.03)
    assert cfg.get("spdc_polarized") is True
    assert cfg.get("out.dir") is None
    assert cfg.get("seed") == 0
    assert cfg.group_indices("filter") == []
    assert cfg.group_indices("scenario") == []


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={"pump.wavelenth_nm": "267"}, environ={})
    assert "pump.wavelenth_nm" in str(err.value)
    cfg = resolve_config(environ={})
    with pytest.raises(ConfigError):
        cfg.get("no.such.key")


def test_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "\n"
        "pump.wavelength_nm = 250\n"
        "seed = 7\n"
        "lum_decay.amplitudes = 0.8, 0.15, 0.05\n"
        "spdc_polarized = false\n")
    cfg = resolve_config(str(p), environ={})
    assert cfg.get("pump.wavelength_nm") == 250.0
    assert cfg.get("seed") == 7
    assert cfg.get("lum_decay.amplitudes") == (0.8, 0.15, 0.05)
    assert cfg.get("spdc_polarized") is False


def test_file_errors_name_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("seed = 1\nnot an assignment\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(str(p), environ={})
    assert "line 2" in str(err.value)

    p2 = tmp_path / "dup.cfg"
    p2.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(str(p2), environ={})
    assert "seed" in str(err.value)


def test_type_errors():
    with pytest.raises(ConfigError):
        resolve_config(overrides={"lum_spectrum.fwhm_nm": "plenty"}, environ={})
    with pytest.raises(ConfigError):
        resolve_config(overrides={"seed": "1.5"}, environ={})
    with pytest.raises(ConfigError):
        resolve_config(overrides={"spdc_polarized": "yes"}, environ={})
    with pytest.raises(ConfigError):
        resolve_config(overrides={"lum_spectrum.fwhm_nm": "nan"}, environ={})
    with pytest.raises(ConfigError):
        resolve_config(overrides={"out.format": "json"}, environ={})


def test_int_scientific_shorthand():
    cfg = resolve_config(overrides={"herald.n_windows": "1e6"}, environ={})
    assert cfg.get("herald.n_windows") == 1_000_000
    with pytest.raises(ConfigError):
        resolve_config(overrides={"herald.n_windows": "1.5e-3"}, environ={})


def test_env_layer_overrides_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("pump.wavelength_nm = 250\nseed = 3\n")
    env = {
        ENV_PREFIX + "PUMP__WAVELENGTH_NM": "260",
        "UNRELATED": "x",
    }
    cfg = resolve_config(str(p), environ=env)
    assert cfg.get("pump.wavelength_nm") == 260.0
    assert cfg.get("seed") == 3


def test_overrides_beat_env(tmp_path):
    env = {ENV_PREFIX + "SEED": "5"}
    cfg = resolve_config(overrides={"seed": "9"}, environ=env)
    assert cfg.get("seed") == 9


def test_bad_env_key_rejected():
    # unknown-but-well-formed name: reported under its translated key
    with pytest.raises(ConfigError) as err:
        resolve_config(environ={ENV_PREFIX + "PUMP__NO_SUCH": "1"})
    assert "pump.no_such" in str(err.value)
    # malformed name: reported under the variable itself
    with pytest.raises(ConfigError) as err:
        resolve_config(environ={ENV_PREFIX + "PUMP__NO-SUCH": "1"})
    assert "PUMP__NO-SUCH" in str(err.value)


def test_filter_groups():
    cfg = resolve_config(overrides={
        "filter.1.kind": "polarizer",
        "filter.2.kind": "longpass",
        "filter.2.cutoff_nm": "460",
        "filter.3.kind": "bandpass",
        "filter.3.center_nm": "534",
        "filter.3.fwhm_nm": "20",
        "filter.4.kind": "temporal_gate",
        "filter.4.window_ns": "10",
    }, environ={})
    chain = cfg.build_chain()
    kinds = [type(f) for f in chain]
    assert kinds == [Polarizer, LongpassFilter, BandpassFilter, TemporalGate]
    assert chain.filters[1].cutoff_nm == 460.0
    assert chain.filters[1].transmission == 0.95
    assert chain.filters[3].window_ns == 10.0


def test_filter_group_errors():
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={"filter.1.cutoff_nm": "460"}, environ={})
    assert "kind" in str(err.value)
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={"filter.1.kind": "longpass"}, environ={})
    assert "cutoff_nm" in str(err.value)
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={
            "filter.1.kind": "polarizer",
            "filter.1.cutoff_nm": "460"}, environ={})
    assert "polarizer" in str(err.value)
    with pytest.raises(ConfigError):
        resolve_config(overrides={"filter.0.kind": "polarizer"}, environ={})
    with pytest.raises(ConfigError):
        resolve_config(overrides={"filter.1.kind": "prism"}, environ={})


def test_index_spellings_of_one_key_are_duplicates(tmp_path):
    # a lone padded index still names its group
    cfg = resolve_config(overrides={"filter.01.kind": "longpass",
                                    "filter.1.cutoff_nm": "460"}, environ={})
    assert cfg.get("filter.1.cutoff_nm") == 460.0
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={
            "filter.1.kind": "longpass", "filter.01.cutoff_nm": "460",
            "filter.001.cutoff_nm": "470"}, environ={})
    assert str(err.value) == ("duplicate key filter.1.cutoff_nm: given as "
                              "filter.01.cutoff_nm and filter.001.cutoff_nm")
    # across layers too: a file spelling is not overridden by another one
    p = tmp_path / "run.cfg"
    p.write_text("scenario.1.label = file\n")
    with pytest.raises(ConfigError, match="scenario.1.label.*scenario.01"):
        resolve_config(str(p), overrides={"scenario.01.label": "flag"},
                       environ={})


def test_scenario_groups_and_baselines():
    cfg = resolve_config(overrides={
        "scenario.1.reference_snr": "1.657",
        "scenario.2.label": "filtered",
        "scenario.2.lum_fraction": "0.3641102011913626",
        "scenario.2.spdc_fraction": "1.0",
    }, environ={})
    specs = cfg.build_scenarios()
    assert len(specs) == 2
    assert specs[0].label == "scenario-1"
    assert specs[0].c_spdc == 2.225e10
    assert specs[0].c_lum == 1.343e10
    assert specs[0].reference_snr == 1.657
    assert specs[1].label == "filtered"
    assert specs[1].lum_fraction == 0.3641102011913626


def test_scenario_requires_counts():
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={
            "scenario.1.reference_snr": "1.0",
            "scenario.baseline_c_spdc": "none",
            "scenario.baseline_c_lum": "none",
        }, environ={}).build_scenarios()
    assert "c_spdc" in str(err.value)


def test_serialize_roundtrip(tmp_path):
    cfg = resolve_config(overrides={
        "pump.wavelength_nm": "250",
        "filter.1.kind": "longpass",
        "filter.1.cutoff_nm": "460",
        "scenario.1.label": "row",
    }, environ={})
    text = cfg.serialize()
    p = tmp_path / "resolved.cfg"
    p.write_text(text)
    again = resolve_config(str(p), environ={})
    assert again.serialize() == text
    assert again.get("pump.wavelength_nm") == 250.0
    assert again.group("filter", 1) == cfg.group("filter", 1)
    assert again.group("scenario", 1) == cfg.group("scenario", 1)


def test_build_model_wraps_errors():
    cfg = resolve_config(overrides={"pump.wavelength_nm": "310"}, environ={})
    with pytest.raises(ConfigError) as err:
        cfg.build_model()
    assert "emission model" in str(err.value)
    good = resolve_config(environ={})
    model = good.build_model()
    assert model.spdc_spectrum.center_nm == 534.0


def test_build_herald():
    cfg = resolve_config(overrides={
        "herald.window_ns": "10",
        "spdc_rate_hz": "2e5",
        "lum_rate_hz": "6.036e4",
    }, environ={})
    params = cfg.build_herald()
    assert params.p_s == 2e-3
    # the herald reads the model's rates: one key each
    model = cfg.build_model()
    assert (params.spdc_rate_hz, params.lum_rate_hz) == (
        model.spdc_rate_hz, model.lum_rate_hz)
    bad = resolve_config(overrides={"herald.window_ns": "-1"}, environ={})
    with pytest.raises(ConfigError):
        bad.build_herald()


@pytest.mark.parametrize("key, text", [
    ("lum_spectrum.fwhm_nm", "inf"),
    ("pump.repetition_rate_hz", "-inf"),
    ("lum_decay.lifetimes_ns", "0.73, inf, 9950"),
])
def test_nonfinite_floats_rejected(key, text):
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={key: text}, environ={})
    assert key in str(err.value)


@pytest.mark.parametrize("key", [k for k, spec in REGISTRY.items()
                                 if spec.kind.__name__ == "_int"])
def test_negative_integers_rejected(key):
    # every integer key is a count or a seed
    assert resolve_config(overrides={key: "0"}, environ={}).get(key) == 0
    for text in ("-1", "-1e3"):
        with pytest.raises(ConfigError, match=f"^{key}: must be nonnegative"):
            resolve_config(overrides={key: text}, environ={})


@pytest.mark.parametrize("overrides, message", [
    ({"filter.1.kind": "longpass", "filter.1.cutoff_nm": "460",
      "filter.1.transmission": "2"},
     "filter.1: transmission must be in (0, 1]"),
    ({"filter.1.kind": "temporal_gate", "filter.1.window_ns": "10",
      "filter.2.kind": "temporal_gate", "filter.2.window_ns": "5"},
     "a chain carries at most one temporal gate"),
], ids=["refused-member", "two-gates"])
def test_build_chain_wraps_filter_errors(overrides, message):
    cfg = resolve_config(overrides=overrides, environ={})
    with pytest.raises(ConfigError) as err:
        cfg.build_chain()
    assert str(err.value) == message


def test_build_scenarios_wraps_row_errors():
    cfg = resolve_config(overrides={"scenario.1.spdc_fraction": "2"},
                         environ={})
    with pytest.raises(ConfigError) as err:
        cfg.build_scenarios()
    assert str(err.value) == "scenario.1: spdc_fraction must be in [0, 1]"


def test_malformed_key_names_file_and_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("seed = 1\nFilter.1.kind = longpass\n")
    with pytest.raises(ConfigError) as err:
        resolve_config(str(p), environ={})
    assert str(err.value) == f"{p} line 2: bad key 'Filter.1.kind'"


def test_unreadable_config_file(tmp_path):
    with pytest.raises(ConfigError, match="^cannot read config file "):
        resolve_config(str(tmp_path / "missing.cfg"), environ={})


@pytest.mark.parametrize("key, text, message", [
    ("seed", "x", "seed: not an integer: 'x'"),
    ("seed", "1.5", "seed: not an integer: '1.5'"),
    ("lum_decay.amplitudes", "", "lum_decay.amplitudes: empty list"),
])
def test_scalar_parse_messages(key, text, message):
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={key: text}, environ={})
    assert str(err.value) == message


def test_scalar_error_reported_before_group_error():
    # filter.1 lacks its kind, but the bad scalar is reported first
    with pytest.raises(ConfigError) as err:
        resolve_config(overrides={"seed": "x", "filter.1.cutoff_nm": "460"},
                       environ={})
    assert str(err.value) == "seed: not an integer: 'x'"


def test_get_answers_group_members():
    cfg = resolve_config(overrides={
        "filter.1.kind": "longpass", "filter.1.cutoff_nm": "460",
        "scenario.1.label": "row"}, environ={})
    assert cfg.get("filter.1.cutoff_nm") == 460.0
    assert cfg.get("filter.1.transmission") == 0.95
    assert cfg.get("scenario.1.label") == "row"
    assert cfg.get("scenario.1.use_chain") is False
    with pytest.raises(ConfigError, match="unknown key: filter.2.kind"):
        cfg.get("filter.2.kind")


def test_scenario_row_counts_times_fractions():
    # explicit counts are multiplied by the explicit fraction, not replaced
    cfg = resolve_config(overrides={
        "scenario.1.c_spdc": "100", "scenario.1.c_lum": "10",
        "scenario.1.spdc_fraction": "0.5"}, environ={})
    [row] = run_scenarios(cfg.build_model(), cfg.build_chain(),
                          cfg.build_scenarios())
    assert (row.c_spdc, row.c_lum, row.snr) == (50.0, 10.0, 5.0)
