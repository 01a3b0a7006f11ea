"""Flat key-value run configuration.

Format: one `key = value` assignment per line, `#` comment lines and blank
lines ignored.  Keys are dotted lowercase names (`lum_spectrum.center_nm`);
the full list lives in the registry below and in the README.  Unknown keys
and duplicate assignments are hard errors naming the offending key.

Filters and scenarios are declared as numbered groups:

    filter.1.kind = longpass
    filter.1.cutoff_nm = 460
    scenario.1.label = no filtering

Values are typed: floats, integers, booleans (`true`/`false`), strings,
comma-separated float lists, and `none` for optional keys.

Resolution order: registry defaults, then the config file, then environment
variables, then explicit overrides (CLI flags).  Environment variables use
the prefix SPDCLUM_ with `.` spelled as `__`, e.g.
SPDCLUM_LUM_SPECTRUM__CENTER_NM=435.  The resolved configuration is one
table in one order (registry keys, then filter and scenario groups by index,
a filter's kind first); it serializes in that order with every key explicit,
so a run can be reproduced from the file it wrote.
"""

from __future__ import annotations

import math
import os
import re

from ._record import record
from .emission import (DecayModel, EmissionModel, PumpConfig, WavelengthGrid,
                       make_model)
from .filters import (POLARIZER_AXES, BandpassFilter, FilterChain,
                      LongpassFilter, Polarizer, ScenarioSpec, TemporalGate)
from .herald import HeraldParams

ENV_PREFIX = "SPDCLUM_"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# value kinds: parse/format pairs. Optional kinds accept the literal none.
def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {value} is not allowed")
    return value


def _parse_int(key, text):
    """Every integer key is a count or a seed: nonnegative."""
    try:
        value = int(text, 10)
    except ValueError:
        # accept 1e7-style shorthand as long as the value is integral
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{key}: not an integer: {text!r}") from None
        if not value.is_integer():
            raise ConfigError(f"{key}: not an integer: {text!r}")
        value = int(value)
    if value < 0:
        raise ConfigError(f"{key}: must be nonnegative, got {value}")
    return value


def _parse_bool(key, text):
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"{key}: expected true or false, got {text!r}")


def _parse_floats(key, text):
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ConfigError(f"{key}: empty list")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_str(key, text):
    return text


_PARSERS = {
    "float": _parse_float,
    "int": _parse_int,
    "bool": _parse_bool,
    "floats": _parse_floats,
    "str": _parse_str,
}


def _format_value(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@record
class KeySpec:
    """A config key's value kind and default, and the values it accepts."""

    kind: str
    default: object
    optional: bool = False
    choices: tuple[str, ...] | None = None

    def parse(self, key: str, text: str):
        if self.optional and text == "none":
            return None
        value = _PARSERS[self.kind](key, text)
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"{key}: expected one of {', '.join(self.choices)}, "
                f"got {value!r}")
        return value


def _k(kind, default, optional=False, choices=None):
    return KeySpec(kind, default, optional, choices)


# Scalar keys, in serialization order; model defaults are the classes' own.
REGISTRY: dict[str, KeySpec] = {
    "seed": _k("int", 0),
    "out.dir": _k("str", None, optional=True),
    "out.format": _k("str", "pretty", choices=("csv", "pretty")),

    "pump.wavelength_nm": _k("float", PumpConfig.wavelength_nm),
    "pump.repetition_rate_hz": _k("float", PumpConfig.repetition_rate_hz),
    "spdc_spectrum.fwhm_nm": _k("float", EmissionModel.spdc_spectrum.fwhm_nm),
    "lum_spectrum.center_nm": _k("float", EmissionModel.lum_spectrum.center_nm),
    "lum_spectrum.fwhm_nm": _k("float", EmissionModel.lum_spectrum.fwhm_nm),
    "lum_spectrum.skew": _k("float", EmissionModel.lum_spectrum.skew),
    "lum_decay.amplitudes": _k("floats", DecayModel.amplitudes),
    "lum_decay.lifetimes_ns": _k("floats", DecayModel.lifetimes_ns),
    "lum_decay.irf_fwhm_ns": _k("float", DecayModel.irf_fwhm_ns),
    "spdc_rate_hz": _k("float", EmissionModel.spdc_rate_hz),
    "lum_rate_hz": _k("float", EmissionModel.lum_rate_hz),
    "spdc_polarized": _k("bool", EmissionModel.spdc_polarized),
    "grid.min_nm": _k("float", WavelengthGrid.min_nm),
    "grid.max_nm": _k("float", WavelengthGrid.max_nm),
    "grid.step_nm": _k("float", WavelengthGrid.step_nm),

    "synth.exposure": _k("int", 100000),
    "synth.time_min_ns": _k("float", -2.0),
    "synth.time_max_ns": _k("float", 8.0),
    "synth.time_step_ns": _k("float", 0.05),
    "synth.wavelength_min_nm": _k("float", None, optional=True),
    "synth.wavelength_max_nm": _k("float", None, optional=True),
    "synth.wavelength_step_nm": _k("float", None, optional=True),
    "synth.t0_ns": _k("float", 0.0),

    "analyze.overlap_mode": _k("str", "none",
                               choices=("none", "model-subtract")),
    "analyze.spdc_roi": _k("floats", None, optional=True),
    "analyze.lum_roi": _k("floats", None, optional=True),
    "analyze.t0_ns": _k("float", None, optional=True),

    "fit.n_components": _k("int", 1),
    "fit.irf_fwhm_ns": _k("float", None, optional=True),
    "fit.baseline_mode": _k("str", "free", choices=("free", "zero")),
    "fit.t0_ns": _k("float", None, optional=True),
    "fit.fit_t0": _k("bool", None, optional=True),
    "fit.band_nm": _k("floats", None, optional=True),

    "herald.window_ns": _k("float", HeraldParams.window_ns),
    "herald.lum_rate_signal_hz": _k("float", None, optional=True),
    "herald.n_windows": _k("int", 0),
    "herald.snr": _k("float", None, optional=True),

    "scenario.window_ns": _k("float", HeraldParams.window_ns),
    "scenario.spdc_rate_hz": _k("float", EmissionModel.spdc_rate_hz),
    "scenario.baseline_c_spdc": _k("float", 2.225e10, optional=True),
    "scenario.baseline_c_lum": _k("float", 1.343e10, optional=True),
}

# Numbered groups: filter.N.* and scenario.N.*, as member keys in
# serialization order.  A member that is neither optional nor defaulted is
# required.  Per filter kind: its class and members; member defaults are
# the filter classes' own.
_FILTER_KINDS = {
    "polarizer": (Polarizer, {
        "axis": _k("str", Polarizer.axis, choices=POLARIZER_AXES)}),
    "longpass": (LongpassFilter, {
        "cutoff_nm": _k("float", None),
        "transmission": _k("float", LongpassFilter.transmission)}),
    "bandpass": (BandpassFilter, {
        "center_nm": _k("float", None),
        "fwhm_nm": _k("float", None),
        "peak_transmission": _k("float", BandpassFilter.peak_transmission)}),
    "temporal_gate": (TemporalGate, {
        "window_ns": _k("float", None),
        "latency_ns": _k("float", TemporalGate.latency_ns)}),
}

_SCENARIO_MEMBERS = {
    "label": _k("str", None, optional=True),
    "c_spdc": _k("float", None, optional=True),
    "c_lum": _k("float", None, optional=True),
    "spdc_fraction": _k("float", None, optional=True),
    "lum_fraction": _k("float", None, optional=True),
    "use_chain": _k("bool", False),
    "reference_snr": _k("float", None, optional=True),
}

_GROUP_RE = re.compile(r"^(filter|scenario)\.([0-9]+)\.([a-z0-9_]+)$")
_KEY_RE = re.compile(r"^[a-z0-9_.]+$")

_FILTER_KIND_SPEC = _k("str", None, choices=tuple(_FILTER_KINDS))


class RunConfig:
    """Fully-resolved configuration: one table holding a value for every
    registry key and every member of each numbered group, in serialization
    order."""

    def __init__(self, values: dict):
        self._values = values

    def get(self, key: str):
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(f"unknown key: {key}") from None

    def group_indices(self, family: str) -> list[int]:
        return sorted({int(m[2]) for m in map(_GROUP_RE.match, self._values)
                       if m and m[1] == family})

    def group(self, family: str, index: int) -> dict:
        prefix = f"{family}.{index}."
        return {key[len(prefix):]: value for key, value in self._values.items()
                if key.startswith(prefix)}

    # -- serialization ----------------------------------------------------

    def serialize(self) -> str:
        lines = ["# resolved run configuration"]
        for key, value in self._values.items():
            lines.append(f"{key} = {_format_value(value)}")
        return "\n".join(lines) + "\n"

    # -- builders ----------------------------------------------------------

    def build_model(self):
        g = self.get
        grid = WavelengthGrid(g("grid.min_nm"), g("grid.max_nm"),
                              g("grid.step_nm"))
        try:
            return make_model(
                g("pump.wavelength_nm"),
                repetition_rate_hz=g("pump.repetition_rate_hz"),
                spdc_fwhm_nm=g("spdc_spectrum.fwhm_nm"),
                lum_center_nm=g("lum_spectrum.center_nm"),
                lum_fwhm_nm=g("lum_spectrum.fwhm_nm"),
                lum_skew=g("lum_spectrum.skew"),
                amplitudes=g("lum_decay.amplitudes"),
                lifetimes_ns=g("lum_decay.lifetimes_ns"),
                irf_fwhm_ns=g("lum_decay.irf_fwhm_ns"),
                spdc_rate_hz=g("spdc_rate_hz"),
                lum_rate_hz=g("lum_rate_hz"),
                spdc_polarized=g("spdc_polarized"),
                grid=grid,
            )
        except ValueError as exc:
            raise ConfigError(f"emission model: {exc}") from exc

    def build_chain(self) -> FilterChain:
        filters = []
        for index in self.group_indices("filter"):
            members = self.group("filter", index)
            cls = _FILTER_KINDS[members.pop("kind")][0]
            try:
                filters.append(cls(**members))
            except ValueError as exc:
                raise ConfigError(f"filter.{index}: {exc}") from exc
        try:
            return FilterChain(tuple(filters))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_scenarios(self) -> list[ScenarioSpec]:
        base_s = self.get("scenario.baseline_c_spdc")
        base_l = self.get("scenario.baseline_c_lum")
        specs = []
        for index in self.group_indices("scenario"):
            members = self.group("scenario", index)
            label = members.pop("label") or f"scenario-{index}"
            c_spdc = members.pop("c_spdc")
            c_lum = members.pop("c_lum")
            if c_spdc is None:
                c_spdc = base_s
            if c_lum is None:
                c_lum = base_l
            if c_spdc is None or c_lum is None:
                raise ConfigError(
                    f"scenario.{index}: no baseline counts (set "
                    f"scenario.{index}.c_spdc/c_lum or the "
                    f"scenario.baseline_c_* keys)")
            try:
                specs.append(ScenarioSpec(label=label, c_spdc=c_spdc,
                                          c_lum=c_lum, **members))
            except ValueError as exc:
                raise ConfigError(f"scenario.{index}: {exc}") from exc
        return specs

    def build_herald(self) -> HeraldParams:
        g = self.get
        try:
            return HeraldParams(
                spdc_rate_hz=g("spdc_rate_hz"),
                lum_rate_hz=g("lum_rate_hz"),
                window_ns=g("herald.window_ns"),
                lum_rate_signal_hz=g("herald.lum_rate_signal_hz"),
            )
        except ValueError as exc:
            raise ConfigError(f"herald: {exc}") from exc


def _parse_assignments(text: str, source: str) -> dict[str, str]:
    """Raw key -> text map; duplicate keys are an error."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source} line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{source} line {lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"{source} line {lineno}: duplicate key {key}")
        out[key] = value
    return out


def _env_assignments(environ) -> dict[str, str]:
    out: dict[str, str] = {}
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        if not _KEY_RE.match(key):
            raise ConfigError(f"environment variable {name}: bad key")
        out[key] = environ[name]
    return out


def resolve_config(path: str | None = None, *,
                   overrides: dict[str, str] | None = None,
                   environ=None) -> RunConfig:
    """Merge defaults, file, environment, and overrides into a RunConfig.

    overrides are raw key=value strings (e.g. from CLI flags) and win over
    everything; environment variables win over the file.  Every value is
    parsed and validated against the registry; unknown keys raise
    ConfigError.
    """
    if environ is None:
        environ = os.environ
    merged: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        merged.update(_parse_assignments(text, path))
    merged.update(_env_assignments(environ))
    merged.update(overrides or {})

    # every key is a registry key or a numbered group's member, whose index
    # is read as an integer; two spellings of one index name one key
    raw: dict[str, str] = {}
    spelled: dict[str, str] = {}
    indices: dict[str, set[int]] = {"filter": set(), "scenario": set()}
    for key, text in merged.items():
        m = _GROUP_RE.match(key)
        if m:
            if int(m[2]) < 1:
                raise ConfigError(f"{key}: group indices start at 1")
            indices[m[1]].add(int(m[2]))
            canonical = f"{m[1]}.{int(m[2])}.{m[3]}"
            if canonical in spelled:
                raise ConfigError(f"duplicate key {canonical}: given as "
                                  f"{spelled[canonical]} and {key}")
            spelled[canonical], key = key, canonical
        elif key not in REGISTRY:
            raise ConfigError(f"unknown key: {key}")
        raw[key] = text

    values = {}
    for key, spec in _key_specs(raw, indices, values):
        values[key] = (spec.parse(key, raw.pop(key)) if key in raw
                       else spec.default)
    for key in raw:
        # left over: a member that its group's family or kind lacks
        kind = values.get(key.rpartition(".")[0] + ".kind")
        why = f" (not a member of kind {kind})" if kind else ""
        raise ConfigError(f"unknown key: {key}{why}")
    return RunConfig(values)


def _key_specs(raw: dict, indices: dict, values: dict):
    """Yield (key, spec) in serialization order: the registry, then each
    numbered group's members, kind first, filter groups before scenario
    groups.  A filter group's members follow from its kind, which the
    caller has parsed into values before asking for them; a required
    member that raw lacks raises here."""
    yield from REGISTRY.items()
    for family in ("filter", "scenario"):
        for index in sorted(indices[family]):
            prefix = f"{family}.{index}"
            members = _SCENARIO_MEMBERS
            if family == "filter":
                if f"{prefix}.kind" not in raw:
                    raise ConfigError(f"{prefix}: missing {prefix}.kind")
                yield f"{prefix}.kind", _FILTER_KIND_SPEC
                kind = values[f"{prefix}.kind"]
                members = _FILTER_KINDS[kind][1]
            for member, spec in members.items():
                key = f"{prefix}.{member}"
                if key not in raw and spec.default is None and \
                        not spec.optional:
                    raise ConfigError(f"{key} is required for kind {kind}")
                yield key, spec
