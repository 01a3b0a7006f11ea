"""The two command-line workloads: cli-session and large-image.

Both run as a closed loop with one client: every subcommand starts when the
previous one has exited.  Untimed output checks run between commands.

cli-session  repeated user sessions on default-size inputs (201 time x 401
             wavelength bins); import dominates every command.
large-image  synth -> analyze -> fit on a 2001 x 4001 image; streak CSV
             writing and reading dominate.

The untraced run spawns `python -m spdclum` per command.  The traced run
replays the same commands in process through `spdclum.cli.main`, once
plainly and once with the tracer installed, alternating which goes first.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import re
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import common
import tracing

DEFAULT_SHAPE = (201, 401)
LARGE_SHAPE = (2001, 4001)
LARGE_SETTINGS = ["--set", "grid.step_nm=0.1",
                  "--set", "synth.time_step_ns=0.005"]
# the luminescence peak (430 nm, 60 nm FWHM) clear of the 534 nm pair line,
# so the large image's fit trace carries tens of counts per bin at its peak
LARGE_FIT_BAND = "380,480"
MC_WINDOWS = 1_000_000
# the command-line Monte Carlo check: |F_mc - F| <= 6 standard errors. At 6
# the false-alarm rate is 2e-9 per draw, so no seed trips it, while a
# broken estimator misses by far more
MC_Z_LIMIT = 6.0


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[int, str, dict], str | None]
    known_defect: bool = False


@dataclass
class OpResult:
    name: str
    argv: str
    seconds: float
    error: str | None       # the failed check's reason, None when right
    known_defect: bool


@dataclass
class Session:
    ops: list[OpResult] = field(default_factory=list)

    @property
    def timed(self) -> list[OpResult]:
        return [o for o in self.ops if not o.known_defect]

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.timed)

    @property
    def op_seconds(self) -> list[float]:
        return [o.seconds for o in self.timed]

    @property
    def fit_seconds(self) -> list[float]:
        return [o.seconds for o in self.timed if o.name == "fit"]

    @property
    def errors(self) -> list[str | None]:
        return [o.error and f"{o.argv}: {o.error}" for o in self.timed]


# ----------------------------------------------------------------------
# output checks; each returns None when the output is right, else a reason

def _rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _exit(code: int, expected: int = 0) -> str | None:
    if code != expected:
        return f"exit {code}, expected {expected}"
    return None


def csv_image_total(path) -> tuple[tuple[int, int], int]:
    """Shape and count total of a streak CSV, parsed with NumPy alone so the
    check does not lean on the reader under test."""
    with open(path, "rb") as fh:
        rows = [line for line in fh.read().split(b"\n")
                if line and not line.startswith(b"#")]
    values = np.fromstring(b",".join(rows[1:]), sep=",")
    grid = values.reshape(len(rows) - 1, -1)[:, 1:]
    return grid.shape, int(grid.sum())


def _check_synth(image: str, shape):
    def check(code, out, ctx):
        err = _exit(code)
        if err:
            return err
        got_shape, total = csv_image_total(image)
        if got_shape != shape:
            return f"image shape {got_shape}, expected {shape}"
        if total <= 0 or f"{total} counts" not in out:
            return f"image total {total} does not match the synth report"
        ctx["total"] = total
        return None
    return check


def _check_rerun(original: str, rerun: str):
    def check(code, out, ctx):
        err = _exit(code)
        if err:
            return err
        with open(original, "rb") as a, open(rerun, "rb") as b:
            if a.read() != b.read():
                return "rerun from resolved.cfg is not byte-identical"
        return None
    return check


def _counts_row(out: str) -> tuple[float, float, float]:
    row = _rows(out)[0]
    return float(row["c_spdc"]), float(row["c_lum"]), float(row["snr"])


def _check_counts_within_total(code, out, ctx):
    err = _exit(code)
    if err:
        return err
    c_s, c_l, _ = _counts_row(out)
    if not (c_s > 0 and c_l > 0 and c_s + c_l <= ctx["total"]):
        return f"C_S {c_s} + C_L {c_l} vs image total {ctx['total']}"
    return None


def _check_analyze_matches_library(image: str):
    def check(code, out, ctx):
        err = _check_counts_within_total(code, out, ctx)
        if err:
            return err
        from spdclum import analysis, config, streak
        cfg = config.resolve_config(None)
        img = streak.read_streak_csv(image)
        rois = analysis.default_rois(cfg.build_model(), img,
                                     t0=cfg.get("analyze.t0_ns"))
        ref = analysis.separate_counts(img, *rois)
        if _counts_row(out) != (ref.c_spdc, ref.c_lum, ref.snr):
            return (f"analyze printed {_counts_row(out)}, separate_counts "
                    f"gives {(ref.c_spdc, ref.c_lum, ref.snr)}")
        return None
    return check


def _check_fit(code, out, ctx):
    """A finished fit: exit 0, or 5 exactly when it prints flags (a
    low-count trace can legitimately end at a lifetime bound), with a
    finite positive lifetime and never "not-converged"."""
    if code not in (0, 5):
        return f"exit {code}, expected 0 or 5"
    flags = [line[6:] for line in out.splitlines()
             if line.startswith("flag: ")]
    if (code == 5) != bool(flags) or "not-converged" in flags:
        return f"exit {code} with flags {flags}"
    match = re.search(r"^component 1: lifetime (\S+) ns", out, re.M)
    tau = float(match.group(1)) if match else math.nan
    if not (math.isfinite(tau) and tau > 0):
        return f"fit lifetime {tau}"
    return None


def _fidelity(p_s: float, p_l: float) -> float:
    p0, p1, p2 = p_l * (1 - p_s), p_s * (1 - p_l), p_s * p_l
    return p1 / (p0 + p1 + p2)


def _check_herald(p_s: float, p_l: float, monte_carlo: bool):
    def check(code, out, ctx):
        err = _exit(code)
        if err:
            return err
        row = _rows(out)[0]
        exact = _fidelity(p_s, p_l)
        if not math.isclose(float(row["f_exact"]), exact, rel_tol=1e-9):
            return f"F {row['f_exact']} vs closed form {exact}"
        if monte_carlo:
            f_mc, se = float(row["f_mc"]), float(row["f_mc_se"])
            if not (se > 0 and abs(f_mc - exact) <= MC_Z_LIMIT * se):
                return f"Monte Carlo F {f_mc} +- {se} vs {exact}"
        return None
    return check


def check_table_rows(rows) -> str | None:
    """Acceptance criteria 1-2 on the three published table rows, given as
    (snr, f_exact, flags, notes) tuples."""
    if len(rows) != 3:
        return f"{len(rows)} table rows, expected 3"
    (snr1, f1, _, _), (_, f2, _, _), (_, f3, _, _) = rows
    if abs(snr1 - 1.657) > 0.001 or abs(f1 - 0.624) > 0.002:
        return f"row 1: SNR {snr1}, F {f1}"
    if abs(f2 - 0.820) > 0.005 or abs(f3 - 0.990) > 0.002:
        return f"rows 2-3: F {f2}, {f3}"
    if any(flags for _, _, flags, _ in rows):
        return "a table row is flagged"
    if not all("reference SNR" in notes for _, _, _, notes in rows[1:]):
        return "reference-SNR discrepancy missing from rows 2-3"
    return None


def _check_table(code, out, ctx):
    err = _exit(code)
    if err:
        return err
    return check_table_rows([
        (float(r["snr"]), float(r["f_exact"]), r["flags"], r["notes"])
        for r in _rows(out)])


# ----------------------------------------------------------------------
# sessions

def cli_session_ops(seed: int, index, root: str) -> list[Op]:
    """One user session; inputs drawn from (seed, index)."""
    rng = random.Random(f"cli-session:{seed}:{index}")
    synth_seed = rng.randrange(2**31)
    mc_seed = rng.randrange(2**31)
    r_s, r_l = 10 ** rng.uniform(4.5, 5.3), 10 ** rng.uniform(4.0, 5.0)
    p_s, p_l = 10 ** rng.uniform(-3.3, -2.7), 10 ** rng.uniform(-3.5, -3.0)
    d = os.path.join(root, f"s{index}")
    image = os.path.join(d, "synth", "streak.csv")
    wl_image = os.path.join(d, "wavelength", "streak.csv")
    return [
        Op("synth", ["synth", "--out", os.path.join(d, "synth"),
                     "--seed", str(synth_seed)],
           _check_synth(image, DEFAULT_SHAPE)),
        Op("synth", ["synth", "--config",
                     os.path.join(d, "synth", "resolved.cfg"),
                     "--out", os.path.join(d, "rerun")],
           _check_rerun(image, os.path.join(d, "rerun", "streak.csv"))),
        Op("analyze", ["analyze", image, "--format", "csv"],
           _check_analyze_matches_library(image)),
        Op("fit", ["fit", image, "--components", "1", "--irf", "0.15",
                   "--band", "560,700"], _check_fit),
        Op("herald", ["herald", "--rs", repr(r_s), "--rl", repr(r_l),
                      "--tw", "10", "--format", "csv"],
           _check_herald(r_s * 1e-8, r_l * 1e-8, monte_carlo=False)),
        Op("herald", ["herald", "--ps", repr(p_s), "--pl", repr(p_l),
                      "--monte-carlo", str(MC_WINDOWS),
                      "--seed", str(mc_seed), "--format", "csv"],
           _check_herald(p_s, p_l, monte_carlo=True)),
        Op("scenario", ["scenario", "--config", common.TABLE_CONFIG,
                        "--format", "csv"], _check_table),
        # known defect: cmd_synth hands a WavelengthGrid to
        # expected_counts, which exits 1 with a traceback
        Op("synth", ["synth", "--out", os.path.join(d, "wavelength"),
                     "--seed", str(synth_seed),
                     "--set", "synth.wavelength_min_nm=450",
                     "--set", "synth.wavelength_max_nm=620",
                     "--set", "synth.wavelength_step_nm=1"],
           _check_synth(wl_image, (DEFAULT_SHAPE[0], 171)),
           known_defect=True),
    ]


def large_image_ops(seed: int, index, root: str) -> list[Op]:
    """One synth -> analyze -> fit cycle on the 2001 x 4001 image."""
    rng = random.Random(f"large-image:{seed}:{index}")
    d = os.path.join(root, f"c{index}")
    image = os.path.join(d, "streak.csv")
    return [
        Op("synth", ["synth", "--out", d, "--seed",
                     str(rng.randrange(2**31)), *LARGE_SETTINGS],
           _check_synth(image, LARGE_SHAPE)),
        Op("analyze", ["analyze", image, "--format", "csv",
                       *LARGE_SETTINGS], _check_counts_within_total),
        Op("fit", ["fit", image, "--components", "1", "--irf", "0.15",
                   "--band", LARGE_FIT_BAND], _check_fit),
    ]


WORKLOAD_OPS = {"cli-session": cli_session_ops,
                "large-image": large_image_ops}


# ----------------------------------------------------------------------
# running commands

def run_process(op: Op):
    try:
        code, out, _, secs = common.spdclum_cmd(op.argv)
    except subprocess.TimeoutExpired:
        return -1, "", float(common.CHILD_TIMEOUT_S)
    return code, out, secs


def run_in_process(op: Op, tracer=None):
    """cli.main in this process, stdout captured; an exception that would
    end a real process with a traceback counts as exit 1.  Spans of a
    known-defect command go to their own session, outside every metric."""
    from spdclum import cli
    out, err = io.StringIO(), io.StringIO()
    session = tracer.session if tracer else ""
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(op.argv)
            else:
                tracer.session = "defect" if op.known_defect else session
                with tracer.installed(), tracer.span(f"cli.{op.argv[0]}"):
                    code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:       # noqa: BLE001 - mirrors an uncaught error
            code = 1
        finally:
            if tracer is not None:
                tracer.session = session
    return code, out.getvalue(), time.perf_counter() - start


def run_session(ops: list[Op], run) -> Session:
    session, ctx = Session(), {}
    for op in ops:
        code, out, secs = run(op)
        try:
            error = op.check(code, out, ctx)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            error = f"unreadable output: {exc!r}"
        session.ops.append(OpResult(op.name, " ".join(op.argv), secs, error,
                                    op.known_defect))
    return session


def closed_loop(seconds: float, min_sessions: int, run_one) -> list:
    """Run sessions back to back; start another only while it is expected
    to finish inside the measuring time."""
    start, done = time.perf_counter(), []
    while True:
        if len(done) >= min_sessions:
            typical = common.median([d[1] for d in done])
            if time.perf_counter() - start + typical > seconds:
                break
        t0 = time.perf_counter()
        result = run_one(len(done))
        done.append((result, time.perf_counter() - t0))
    return [d[0] for d in done]


@contextlib.contextmanager
def session_dir(name: str):
    """A fresh scratch directory under the run directory, removed after."""
    root = os.path.join(common.RUN_DIR, name, "sessions")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_untraced(workload: str, seed: int, seconds: float) -> list[Session]:
    make_ops = WORKLOAD_OPS[workload]
    with session_dir(workload) as root:
        return closed_loop(
            seconds, 1,
            lambda k: run_session(make_ops(seed, k, root), run_process))


def run_probe(workload: str, seed: int, tracer) -> Session:
    """One traced default-size cli-session session in process, tagged
    "probe": it measures layers a workload never calls and warms the
    process up before the replay."""
    tracer.session = tracing.PROBE_SESSION
    with session_dir(os.path.join(workload, "probe")) as root:
        return run_session(cli_session_ops(seed, "probe", root),
                           lambda op: run_in_process(op, tracer))
