"""Shared pieces of the benchmark: child processes, statistics, machine info.

Everything runs from the root of a source checkout.  spdclum is not
installed; child processes find it through PYTHONPATH=src and the benchmark
process puts src on sys.path itself.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time

SRC = "src"
RUN_DIR = ".bench_run"
TABLE_CONFIG = os.path.join("demos", "table.cfg")
CHILD_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> str:
    """Cap BLAS/OpenMP threads at the CPUs this process may use, drop
    SPDCLUM_* settings so runs see only their own inputs, and return the
    thread setting that every process of the run uses."""
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    for var in [v for v in os.environ if v.startswith("SPDCLUM_")]:
        del os.environ[var]
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return threads


def spawn(args, timeout=CHILD_TIMEOUT_S):
    """Run one Python child to completion -> (exit code, stdout, stderr,
    wall seconds).  The child is waited for even when it times out."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout)
    return (proc.returncode, proc.stdout, proc.stderr,
            time.perf_counter() - start)


def spdclum_cmd(argv):
    """Run `python -m spdclum ARGV` as a fresh process."""
    return spawn(["-m", "spdclum", *argv])


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples above it, with its
    label.  Below 21 samples that percentile is not above the median, so
    the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n}"
    k = n - 11
    return ordered[k], f"p{math.floor(100 * (k + 1) / n)} of {n}"


def fresh_import_seconds(reps: int) -> list[float]:
    """Wall time of a fresh interpreter that imports spdclum and exits."""
    out = []
    for _ in range(reps):
        code, _, err, secs = spawn(["-c", "import spdclum"])
        if code != 0:
            raise RuntimeError(f"import spdclum failed: {err.strip()}")
        out.append(secs)
    return out


def import_profile(reps: int) -> dict[str, float]:
    """Median import costs from `python -X importtime`: the cumulative time
    of spdclum, and the self time of all numpy and scipy modules."""
    rows = {"import.spdclum_s": [], "import.scipy_s": [],
            "import.numpy_s": []}
    for _ in range(reps):
        code, _, err, _ = spawn(["-X", "importtime", "-c", "import spdclum"])
        if code != 0:
            raise RuntimeError(f"import spdclum failed: {err.strip()}")
        own = {"scipy": 0, "numpy": 0}
        spdclum_us = None
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[12:].split("|")
            if not self_us.strip().isdigit():
                continue            # the header line
            name = name.strip()
            root = name.split(".")[0]
            if root in own:
                own[root] += int(self_us)
            if name == "spdclum":
                spdclum_us = int(cumulative_us)
        rows["import.spdclum_s"].append(spdclum_us * 1e-6)
        rows["import.scipy_s"].append(own["scipy"] * 1e-6)
        rows["import.numpy_s"].append(own["numpy"] * 1e-6)
    spawn_s = [spawn(["-c", "pass"])[3] for _ in range(reps)]
    out = {k: median(v) for k, v in rows.items()}
    out["process.spawn_s"] = median(spawn_s)
    return out


def _getconf(name: str) -> str:
    try:
        proc = subprocess.run(["getconf", name], capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    value = proc.stdout.strip()
    return value if proc.returncode == 0 and value else "unknown"


def machine_info(blas_threads: str) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "l1d_cache_bytes": _getconf("LEVEL1_DCACHE_SIZE"),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }
