"""Steadiness mode: run one workload repeatedly and summarize each metric.

    python3 bench/steady.py --workload NAME [--seeds 1,2,...] [--seconds S]
                            [--trace 0|1]

Each seed is one run of bench/run.py in its own process, one after another.
For every metric the summary gives the median, the quartiles (as
statistics.quantiles(values, n=4) computes them) and the spread, the
interquartile distance as a share of the median; for end-to-end metrics
also the spread as a share of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                   help="comma-separated seeds, one run each")
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", seed,
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}",
              flush=True)

    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'/bound':>7}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        of_bound = (f"{spread / bounds[name]:7.2f}" if name in bounds
                    else "")
        print(f"{name:<34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {of_bound} {first['unit']}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
