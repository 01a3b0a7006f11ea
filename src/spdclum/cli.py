"""Command line front end.

Subcommands: synth, analyze, fit, herald, scenario; each subparser carries
its cmd_* function, called as cmd(cfg, args).  Global flags work before or
after the subcommand: --config PATH, --seed N, --out DIR, --format
{csv,pretty}, --set key=value (repeatable).  A named flag stores under the
config key it sets, so --seed is the seed key; named flags beat --set, which
beats environment variables (prefix SPDCLUM_), which beat the config file.
--ps/--pl are the exception: probabilities become rates only once the
window is resolved.

A cmd_* returns a Result and one driver, _finish, writes resolved.cfg and
every result file to out.dir before printing the table (csv mode, the
file's bytes) or the report, and a stderr line in both modes.  Rerunning
with --config resolved.cfg reproduces the outputs byte for byte.  Exit
codes: 0 success, 2 configuration or usage error, 3 input error, 4
numerical failure (a Result's explicit code), 5 flagged result.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from typing import Callable, Mapping, NamedTuple, Sequence

from . import analysis, herald
from .config import REGISTRY, ConfigError, RunConfig, resolve_config
from .emission import WavelengthGrid
from .filters import repetition_rate_alert, run_scenarios
from .fitting import ShortTraceError, fit_multiexp
from .streak import (RegionOfInterest, StreakParseError, pulse_arrival_ns,
                     read_streak_csv, read_trace_csv, write_streak_csv,
                     write_trace_csv)
from .synth import synthesize, time_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4
EXIT_FLAGGED = 5


def _fmt_g(x: float) -> str:
    """A number in the pretty report."""
    return f"{x:.6g}"


class Result(NamedTuple):
    """A subcommand's outcome: report lines (flag lines included), the
    table's file name, header and rows (none: csv mode prints the report),
    flags, further files by name with a writer taking the path, an explicit
    exit code, and a stderr line, which flags the result too."""

    report: list[str]
    table: str | None = None
    header: Sequence[str] = ()
    rows: Sequence[Sequence] = ()
    flags: Sequence[str] = ()
    files: Mapping[str, Callable[[str], None]] = {}
    code: int | None = None
    stderr: str | None = None


def _finish(cfg: RunConfig, result: Result) -> int:
    """Write, print and pick the exit code of a subcommand's result."""
    text = None
    if result.table is not None:
        buf = io.StringIO()
        # csv writes None as an empty cell and a float as str(), its repr
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(result.header)
        writer.writerows(result.rows)
        text = buf.getvalue()
    out_dir = cfg.get("out.dir")
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            for name, body in (("resolved.cfg", cfg.serialize()),
                               (result.table, text)):
                if body is not None:
                    with open(os.path.join(out_dir, name), "w",
                              encoding="utf-8", newline="") as fh:
                        fh.write(body)
            for name, write in result.files.items():
                write(os.path.join(out_dir, name))
        except OSError as exc:
            # where results go is configuration, not input
            raise ConfigError(f"out.dir: {exc}") from exc
    if text is not None and cfg.get("out.format") == "csv":
        sys.stdout.write(text)
    else:
        print(*result.report, sep="\n")
    if result.stderr is not None:
        print(result.stderr, file=sys.stderr)
    if result.code is None and (result.flags or result.stderr is not None):
        return EXIT_FLAGGED
    return EXIT_OK if result.code is None else result.code


# ----------------------------------------------------------------------
# subcommands

def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> Result:
    out_dir = cfg.get("out.dir")
    if out_dir is None:
        raise ConfigError("synth writes an image file: set --out DIR "
                          "(or the out.dir key)")
    model = cfg.build_model()
    t_grid = time_grid(cfg.get("synth.time_min_ns"),
                       cfg.get("synth.time_max_ns"),
                       cfg.get("synth.time_step_ns"))
    wl_keys = ("synth.wavelength_min_nm", "synth.wavelength_max_nm",
               "synth.wavelength_step_nm")
    wl_values = [cfg.get(k) for k in wl_keys]
    if all(v is None for v in wl_values):
        wl_grid = None
    elif any(v is None for v in wl_values):
        raise ConfigError("set all three synth.wavelength_* keys or none")
    else:
        wl_grid = WavelengthGrid(*wl_values).centers()
    image = synthesize(model, wl_grid, t_grid,
                       exposure=cfg.get("synth.exposure"),
                       seed=cfg.get("seed"), t0=cfg.get("synth.t0_ns"))
    alert = repetition_rate_alert(model)
    report = [f"wrote {os.path.join(out_dir, 'streak.csv')}: "
              f"{image.counts.shape[0]} time x "
              f"{image.counts.shape[1]} wavelength bins, "
              f"{image.total_counts} counts, seed {cfg.get('seed')}"]
    if not alert.ok:
        report.append(f"note: {alert.message}")
    if "warning" in image.metadata:
        report.append(f"note: {image.metadata['warning']}")
    return Result(report, files={
        "streak.csv": lambda path: write_streak_csv(image, path)})


def _roi_from_key(cfg: RunConfig, key: str, label: str):
    bounds = cfg.get(key)
    if bounds is None:
        return None
    if len(bounds) != 4:
        raise ConfigError(f"{key}: expected 4 numbers "
                          "(wavelength lo, hi, time lo, hi)")
    return RegionOfInterest((bounds[0], bounds[1]), (bounds[2], bounds[3]),
                            label=label)


def cmd_analyze(cfg: RunConfig, args: argparse.Namespace) -> Result:
    image = read_streak_csv(args.image)
    spdc_roi = _roi_from_key(cfg, "analyze.spdc_roi", "spdc")
    lum_roi = _roi_from_key(cfg, "analyze.lum_roi", "luminescence")
    if spdc_roi is None or lum_roi is None:
        model = cfg.build_model()
        try:
            d_spdc, d_lum = analysis.default_rois(
                model, image, t0=cfg.get("analyze.t0_ns"))
        except ValueError as exc:
            # the image's axes miss the pair line: an input error
            raise StreakParseError(str(exc)) from None
        spdc_roi = spdc_roi or d_spdc
        lum_roi = lum_roi or d_lum
    summary = analysis.separate_counts(
        image, spdc_roi, lum_roi, overlap_mode=cfg.get("analyze.overlap_mode"))

    header = ["c_spdc", "c_lum", "snr", "spdc_wl_lo", "spdc_wl_hi",
              "spdc_t_lo", "spdc_t_hi", "lum_wl_lo", "lum_wl_hi",
              "lum_t_lo", "lum_t_hi", "overlap_mode", "lum_under_spdc",
              "flags"]
    row = [summary.c_spdc, summary.c_lum, summary.snr,
           *summary.spdc_roi.wavelength_nm, *summary.spdc_roi.time_ns,
           *summary.lum_roi.wavelength_nm, *summary.lum_roi.time_ns,
           summary.overlap_mode, summary.lum_under_spdc,
           ";".join(summary.flags)]
    report = [f"{name} {roi.wavelength_nm[0]:.6g}-{roi.wavelength_nm[1]:.6g} "
              f"nm, {roi.time_ns[0]:.6g}-{roi.time_ns[1]:.6g} ns"
              for name, roi in (("SPDC ROI  ", summary.spdc_roi),
                                ("lum ROI   ", summary.lum_roi))]
    report += [f"C_S        {_fmt_g(summary.c_spdc)}",
               f"C_L        {_fmt_g(summary.c_lum)}",
               f"SNR        {_fmt_g(summary.snr)}"]
    if summary.overlap_mode != "none":
        report.append(f"subtracted {_fmt_g(summary.lum_under_spdc)} "
                      "estimated luminescence counts under the SPDC ROI")
    report += [f"flag: {flag}" for flag in summary.flags]
    return Result(report, "counts.csv", header, [row], summary.flags)


def _load_fit_input(cfg: RunConfig, path: str):
    """(times, counts, metadata) of a trace CSV, or of an image's band."""
    # the reader refuses a file that is not UTF-8 text
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        first = fh.readline().strip()
    if first == "# streak-image/v1":
        image = read_streak_csv(path)
        band = cfg.get("fit.band_nm")
        if band is None:
            axis = image.wavelength_axis_nm
            band = (float(axis[0]), float(axis[-1]))
        elif len(band) != 2:
            raise ConfigError("fit.band_nm: expected 2 numbers (lo, hi)")
        return (*analysis.extract_time_trace(image, tuple(band)),
                image.metadata)
    return read_trace_csv(path)


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> Result:
    times, counts, metadata = _load_fit_input(cfg, args.input)
    t0 = cfg.get("fit.t0_ns")
    if t0 is None:
        # the pulse arrival the input file records, as the default ROIs take
        t0 = pulse_arrival_ns(metadata)
    try:
        fit = fit_multiexp(
            times, counts, cfg.get("fit.n_components"),
            irf_fwhm_ns=cfg.get("fit.irf_fwhm_ns"),
            baseline_mode=cfg.get("fit.baseline_mode"),
            t0_ns=t0, fit_t0=cfg.get("fit.fit_t0"))
    except ShortTraceError as exc:
        # too few bins for the fit's parameters: an input error
        raise StreakParseError(str(exc)) from None

    header = ["term", "value", "value_rel_sigma", "lifetime_ns",
              "lifetime_rel_sigma"]
    rows = [[f"component_{i}", comp.amplitude, comp.amplitude_rel_sigma,
             comp.lifetime_ns, comp.lifetime_rel_sigma]
            for i, comp in enumerate(fit.components, start=1)]
    rows += [["baseline", fit.baseline, fit.baseline_rel_sigma, None, None],
             ["t0_ns", fit.t0_ns, None, None, None],
             ["reduced_chi_square", fit.reduced_chi_square, None, None, None]]
    report = [f"component {i}: lifetime {_fmt_g(comp.lifetime_ns)} ns "
              f"(rel sigma {_fmt_g(comp.lifetime_rel_sigma)}), "
              f"amplitude {_fmt_g(comp.amplitude)} "
              f"(rel sigma {_fmt_g(comp.amplitude_rel_sigma)})"
              for i, comp in enumerate(fit.components, start=1)]
    report += [f"baseline {_fmt_g(fit.baseline)} per bin, "
               f"t0 {_fmt_g(fit.t0_ns)} ns",
               f"reduced chi-square {_fmt_g(fit.reduced_chi_square)} "
               f"({fit.n_starts} starts ranked)",
               *(f"flag: {flag}" for flag in fit.flags)]
    failed = not fit.converged
    return Result(
        report, "fit.csv", header, rows, fit.flags,
        files={"residuals.csv": lambda path: write_trace_csv(
            path, times, fit.residual_trace, value_column="residual")},
        code=EXIT_NUMERICAL if failed else None,
        stderr="fit did not converge" if failed else None)


def cmd_herald(cfg: RunConfig, args: argparse.Namespace) -> Result:
    params = cfg.build_herald()
    outcome = herald.outcome_probabilities(params.p_s, params.p_l,
                                           params.p_l_signal)
    snr = params.p_s / params.p_l if params.p_l > 0.0 else math.inf
    f_approx = herald.fidelity_from_snr(snr, params.window_ns,
                                        params.spdc_rate_hz).f_approx
    n_windows = cfg.get("herald.n_windows")
    mc = None if n_windows == 0 else herald.monte_carlo_herald(
        params, n_windows, cfg.get("seed"))
    ref_snr = cfg.get("herald.snr")
    est = None if ref_snr is None else herald.fidelity_from_snr(
        ref_snr, params.window_ns, params.spdc_rate_hz)

    header = ["p_s", "p_l", "p0", "p1", "p2", "n_herald", "f_exact",
              "f_approx", "f_mc", "f_mc_se", "f_snr_exact", "f_snr_approx"]
    row = [params.p_s, params.p_l, outcome.p0, outcome.p1, outcome.p2,
           outcome.n_herald, outcome.fidelity, f_approx,
           mc.fidelity_hat if mc else None, mc.fidelity_se if mc else None,
           est.f_exact if est else None, est.f_approx if est else None]
    report = [f"P_S        {_fmt_g(params.p_s)}",
              f"P_L        {_fmt_g(params.p_l)}"]
    if params.lum_rate_signal_hz is not None:
        report.append(f"P_L signal {_fmt_g(params.p_l_signal)}")
    report += [
        f"p0         {_fmt_g(outcome.p0)}   (false herald, vacuum)",
        f"p1         {_fmt_g(outcome.p1)}   (heralded single photon)",
        f"p2         {_fmt_g(outcome.p2)}   (photon + luminescence)",
        f"N          {_fmt_g(outcome.n_herald)}",
        f"F          {_fmt_g(outcome.fidelity)}",
        f"F ~ SNR/(1+SNR) = {_fmt_g(f_approx)} at rate SNR {_fmt_g(snr)}"]
    if mc is not None:
        report.append(f"monte carlo: {mc.n_windows} windows, "
                      f"{mc.n_heralded} heralds, F = {_fmt_g(mc.fidelity_hat)}"
                      f" +- {_fmt_g(mc.fidelity_se)}")
        if mc.fidelity_se and not math.isnan(mc.fidelity_hat):
            z = abs(mc.fidelity_hat - outcome.fidelity) / mc.fidelity_se
            report.append(f"analytic vs monte carlo: {z:.2f} standard errors")
        report += [f"flag: {flag}" for flag in mc.flags]
    if est is not None:
        report.append(f"from measured SNR {_fmt_g(ref_snr)}: F_exact "
                      f"{_fmt_g(est.f_exact)}, F_approx {_fmt_g(est.f_approx)}")
    return Result(report, "herald.csv", header, [row], mc.flags if mc else (),
                  stderr="flag: nonpositive fidelity at this SNR"
                  if est is not None and est.flagged else None)


def cmd_scenario(cfg: RunConfig, args: argparse.Namespace) -> Result:
    results = run_scenarios(cfg.build_model(), cfg.build_chain(),
                            cfg.build_scenarios(),
                            window_ns=cfg.get("scenario.window_ns"),
                            spdc_rate_hz=cfg.get("scenario.spdc_rate_hz"))
    header = ["label", "c_spdc", "c_lum", "snr", "f_exact", "f_approx",
              "reference_snr", "flags", "notes"]
    rows = [[r.label, r.c_spdc, r.c_lum, r.snr, r.f_exact, r.f_approx,
             r.reference_snr, ";".join(r.flags), ";".join(r.notes)]
            for r in results]
    width = max([len(r.label) for r in results] + [5])
    report = [f"{'label':<{width}} {'C_S':>12} {'C_L':>12} {'SNR':>10} "
              f"{'F':>8} {'F~':>8}"]
    report += [f"{r.label:<{width}} {_fmt_g(r.c_spdc):>12} "
               f"{_fmt_g(r.c_lum):>12} {_fmt_g(r.snr):>10} "
               f"{r.f_exact:>8.4f} {r.f_approx:>8.4f}" for r in results]
    for r in results:
        report += [f"note [{r.label}]: {note}" for note in r.notes]
        report += [f"flag [{r.label}]: {flag}" for flag in r.flags]
    return Result(report, "scenarios.csv", header, rows,
                  [flag for r in results for flag in r.flags])


# ----------------------------------------------------------------------
# argument plumbing

def _flag(parser, name, key, text, **kwargs) -> None:
    """A named flag stored under config key `key`.  Its metavar stays the
    flag's own name (or its choices), never the dotted key."""
    if "choices" not in kwargs:
        kwargs.setdefault("metavar", name[2:].replace("-", "_").upper())
    parser.add_argument(name, dest=key, default=argparse.SUPPRESS, help=text,
                        **kwargs)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps unset flags out of the namespace so a flag before the
    # subcommand is not clobbered by the subparser's default
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="configuration file (key = value lines)")
    _flag(common, "--seed", "seed", "random seed (config key: seed)")
    _flag(common, "--out", "out.dir", "output directory (config key: out.dir)")
    _flag(common, "--format", "out.format",
          "stdout format (config key: out.format)", choices=("csv", "pretty"))
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        default=argparse.SUPPRESS, dest="set_overrides",
                        help="override any config key (repeatable)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="spdclum",
        description="Heralded-photon-source luminescence noise toolkit",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    p = command("synth", cmd_synth, "synthesize a streak image")
    _flag(p, "--exposure", "synth.exposure",
          "pump pulses to accumulate (synth.exposure)")
    _flag(p, "--spdc-rate", "spdc_rate_hz",
          "SPDC pair rate, Hz (spdc_rate_hz)")
    _flag(p, "--lum-rate", "lum_rate_hz",
          "luminescence rate, Hz (lum_rate_hz)")

    p = command("analyze", cmd_analyze,
                "separate SPDC and luminescence counts")
    p.add_argument("image", help="streak CSV file")
    _flag(p, "--overlap-mode", "analyze.overlap_mode",
          "luminescence-under-SPDC handling (analyze.overlap_mode)",
          choices=("none", "model-subtract"))

    p = command("fit", cmd_fit, "fit a multi-exponential decay")
    p.add_argument("input", help="trace CSV or streak CSV file")
    _flag(p, "--components", "fit.n_components",
          "number of decay components (fit.n_components)")
    _flag(p, "--irf", "fit.irf_fwhm_ns", "IRF FWHM in ns (fit.irf_fwhm_ns)")
    _flag(p, "--baseline", "fit.baseline_mode",
          "baseline handling (fit.baseline_mode)", choices=("free", "zero"))
    _flag(p, "--band", "fit.band_nm",
          "wavelength band lo,hi for image input (fit.band_nm)")

    p = command("herald", cmd_herald,
                "heralded-state probabilities and fidelity")
    _flag(p, "--rs", "spdc_rate_hz", "SPDC rate, Hz (spdc_rate_hz)")
    _flag(p, "--rl", "lum_rate_hz", "luminescence rate, Hz (lum_rate_hz)")
    _flag(p, "--tw", "herald.window_ns",
          "detection window, ns (herald.window_ns)")
    # probabilities need the resolved window to become rates (_resolve)
    _flag(p, "--ps", "ps",
          "pair probability per window (sets the rate from the window)")
    _flag(p, "--pl", "pl", "luminescence probability per window")
    _flag(p, "--snr", "herald.snr",
          "measured SNR to convert to fidelity (herald.snr)")
    _flag(p, "--monte-carlo", "herald.n_windows",
          "validate with N simulated windows (herald.n_windows)", metavar="N")

    command("scenario", cmd_scenario,
            "filter scenarios: counts, SNR, fidelity table")
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for entry in getattr(args, "set_overrides", []):
        key, sep, value = entry.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {entry!r}")
        overrides[key.strip()] = value.strip()
    # named flags store under their config keys and beat --set
    for key, value in vars(args).items():
        if key in REGISTRY:
            overrides[key] = str(value)
    return overrides


def _resolve(args: argparse.Namespace) -> RunConfig:
    overrides = _collect_overrides(args)
    config_path = getattr(args, "config", None)
    cfg = resolve_config(config_path, overrides=overrides)
    # probability shorthands need the resolved window to become rates
    if hasattr(args, "ps") or hasattr(args, "pl"):
        window_s = cfg.get("herald.window_ns") * 1e-9
        if not window_s > 0.0:
            # refused before the division, as HeraldParams refuses it
            raise ConfigError("herald: detection window must be positive")
        for attr, key in (("ps", "spdc_rate_hz"), ("pl", "lum_rate_hz")):
            if hasattr(args, attr):
                prob = REGISTRY[key].parse(f"--{attr}", getattr(args, attr))
                overrides[key] = repr(prob / window_s)
        cfg = resolve_config(config_path, overrides=overrides)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _finish(cfg, args.run(cfg, args))
    except (StreakParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
