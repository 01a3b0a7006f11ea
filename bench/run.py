"""spdclum benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: cli-session,
paper-repro, large-image (see bench/README.md).  --trace 0 measures the
end-to-end metrics; --trace 1 replays the workload in process with spans
and counters and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (machine info, seeds,
percentile labels, self time per layer) goes to
.bench_run/<workload>/result-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import os
import sys

import common

WORKLOADS = ("cli-session", "paper-repro", "large-image")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def preflight() -> str | None:
    for path in (os.path.join(common.SRC, "spdclum", "__init__.py"),
                 common.TABLE_CONFIG):
        if not os.path.isfile(path):
            return (f"{path} not found: run from the root of an spdclum "
                    "source checkout")
    code, _, err, _ = common.spawn(["-m", "compileall", "-q",
                                    os.path.join(common.SRC, "spdclum")])
    if code != 0:
        return f"compiling src/spdclum failed: {err.strip()}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = preflight()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    threads = common.pin_environment()
    import measure      # loads NumPy, so only after the thread pinning
    return measure.run(args, threads)


if __name__ == "__main__":
    sys.exit(main())
