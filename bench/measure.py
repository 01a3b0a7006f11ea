"""Measurement and reporting behind bench/run.py.

Imported only after run.py has pinned the BLAS thread count, because NumPy
reads it when it loads.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import time

import cli_workloads
import common
import repro
import tracing

SETUP_REPS = 5
IMPORT_PROFILE_REPS = 3
# sessions (passes for paper-repro) whose fits feed the fit counters; fixed,
# so the counters repeat exactly for a seed whatever the run length
COUNTED_SESSIONS = {"cli-session": 2, "large-image": 1, "paper-repro": 1}


def peak_rss_mb(include_self: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# untraced: end-to-end metrics

def untraced(args, record) -> dict:
    setup = common.fresh_import_seconds(SETUP_REPS)
    record["setup_fresh_import_s"] = setup
    setup_s = common.median(setup)
    if args.workload == "paper-repro":
        record["setup_warm_up_s"] = repro.warm_up()
        setup_s += record["setup_warm_up_s"]
        sessions = cli_workloads.closed_loop(
            args.seconds, 1, lambda k: repro.run_pass(args.seed, k))
        rss = peak_rss_mb(include_self=True)
    else:
        sessions = cli_workloads.run_untraced(args.workload, args.seed,
                                              args.seconds)
        rss = peak_rss_mb(include_self=False)
    if args.workload == "cli-session":
        record["known_defect"] = _known_defect(sessions)
    op_seconds = [x for s in sessions for x in s.op_seconds]
    fit_seconds = [x for s in sessions for x in s.fit_seconds]
    _count(record, sessions, [e for s in sessions for e in s.errors])
    tail_value, record["op_tail_label"] = common.tail(op_seconds)
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_p50_s": _metric(common.median(op_seconds), "s"),
        "op_tail_s": _metric(tail_value, "s"),
        "session_s": _metric(common.median(s.seconds for s in sessions),
                             "s"),
        "fits_per_s": _metric(len(fit_seconds) / sum(fit_seconds), "1/s"),
        "peak_rss_mb": _metric(rss, "MB"),
    }


def _count(record, sessions, errors) -> None:
    record["sessions"] = len(sessions)
    record["errors"] = [e for e in errors if e]
    record["attempted"], record["failed"] = len(errors), len(record["errors"])


def _known_defect(sessions) -> dict:
    """The wavelength-keyed synth runs in every cli-session session and is
    expected to succeed; it stays out of the latencies and of the result's
    failed count, and is reported here with the failure ratio it implies."""
    probes = [o for s in sessions for o in s.ops if o.known_defect]
    failed = [o for o in probes if o.error]
    errors = [e for s in sessions for e in s.errors]
    return {"command": "synth with synth.wavelength_{min,max,step}_nm",
            "attempted": len(probes), "failed": len(failed),
            "errors": sorted({o.error for o in failed}),
            "failed_ratio_with_it": (sum(1 for e in errors if e) + len(failed))
            / (len(errors) + len(probes))}


# ----------------------------------------------------------------------
# traced: per-layer metrics

class _Pairing:
    """Runs each unit of work plainly and traced back to back, alternating
    which goes first.  Pairing small units, and taking the median of the
    pairs' ratios, keeps the host's drift out of the overhead estimate."""

    def __init__(self):
        self.ratios: list[float] = []

    def run(self, work):
        """work(traced) for traced False and True -> (plain, traced)."""
        out, secs = {}, {}
        for traced in ((True, False) if len(self.ratios) % 2
                       else (False, True)):
            start = time.perf_counter()
            out[traced] = work(traced)
            secs[traced] = time.perf_counter() - start
        self.ratios.append(secs[True] / secs[False])
        return out[False], out[True]

    def overhead_pct(self) -> float:
        return 100.0 * (common.median(self.ratios) - 1.0)


def traced(args, record) -> dict:
    imports = common.import_profile(IMPORT_PROFILE_REPS)
    tracer = tracing.Tracer()
    probe = cli_workloads.run_probe(args.workload, args.seed, tracer)
    repro.probe_2c_fit(tracer, args.seed)
    counted = COUNTED_SESSIONS[args.workload]
    pairing = _Pairing()
    with cli_workloads.session_dir(args.workload) as root:
        if args.workload == "paper-repro":
            def in_tracer(fn, traced):
                with (tracer.installed() if traced
                      else contextlib.nullcontext()):
                    return fn()

            def run_step(fn):
                plain, traced = pairing.run(lambda t: in_tracer(fn, t))
                return plain or traced

            def replay(k):
                """Pass k, every step once plainly and once traced."""
                tracer.session = f"s{k}"
                done = repro.run_pass(args.seed, k, run_step)
                return done.errors
        else:
            make_ops = cli_workloads.WORKLOAD_OPS[args.workload]

            def one(k, traced):
                return cli_workloads.run_session(
                    make_ops(args.seed, k, root),
                    lambda op: cli_workloads.run_in_process(
                        op, tracer if traced else None))

            def replay(k):
                """Session k once plainly and once traced."""
                tracer.session = f"s{k}"
                plain, traced = pairing.run(lambda t: one(k, t))
                return plain.errors + traced.errors

        replayed = cli_workloads.closed_loop(args.seconds, counted, replay)
    sessions = {f"s{k}" for k in range(len(replayed))}
    values = {k: (v, "s") for k, v in imports.items()}
    span_values, record["probed_metrics"] = tracing.span_metrics(tracer,
                                                                 sessions)
    values.update(span_values)
    values.update(tracing.fit_counter_metrics(
        tracer, {f"s{k}" for k in range(counted)}))
    values["trace.overhead_pct"] = (pairing.overhead_pct(), "%")
    record["self_seconds_by_layer"] = tracer.self_seconds_by_layer(sessions)
    _count(record, replayed, [e for errors in replayed for e in errors]
           + probe.errors)
    tracer.dump(os.path.join(common.RUN_DIR, args.workload,
                             f"spans-seed{args.seed}.json"))
    return {k: _metric(v, unit) for k, (v, unit) in values.items()}


# ----------------------------------------------------------------------
# reporting

def report(args, record, metrics) -> None:
    m = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print(f"machine: nproc {m['nproc']}, L1d {m['l1d_cache_bytes']} B, "
          f"L2 {m['l2_cache_bytes']} B, L3 {m['l3_cache_bytes']} B, "
          f"Python {m['python']}, NumPy {m['numpy']}, SciPy {m['scipy']}, "
          f"BLAS threads {m['blas_threads']}")
    ratio = record["failed"] / record["attempted"]
    print(f"sessions {record['sessions']}, operations {record['attempted']}"
          f", failed {record['failed']}, failed_ratio {ratio:.4f}")
    for error in record["errors"][:10]:
        print(f"  failure: {error}")
    defect = record.get("known_defect")
    if defect:
        print(f"known defect: {defect['command']}: {defect['failed']} of "
              f"{defect['attempted']} failed ({'; '.join(defect['errors'])})"
              f"; failed_ratio with it {defect['failed_ratio_with_it']:.4f}")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  ({record['op_tail_label']})"
        elif name in record.get("probed_metrics", ()):
            note = "  (probe session: not called by this workload)"
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{note}")
    by_layer = record.get("self_seconds_by_layer")
    if by_layer:
        total = sum(by_layer.values())
        print("self time by layer (traced sessions):")
        for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<10} {secs:10.4f} s  {100 * secs / total:5.1f}%")


def run(args, threads: str) -> int:
    os.makedirs(os.path.join(common.RUN_DIR, args.workload), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": common.machine_info(threads)}
    metrics = traced(args, record) if args.trace else untraced(args, record)
    record["metrics"] = metrics
    path = os.path.join(common.RUN_DIR, args.workload,
                        f"result-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(args, record, metrics)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0
