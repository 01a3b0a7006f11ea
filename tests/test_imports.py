"""SciPy loads on use, and the package API resolves its names.

The subcommand checks run in fresh interpreters, since this test process
has long since imported SciPy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdclum
from spdclum.cli import main

ROOT = Path(__file__).resolve().parents[1]

# runs one subcommand, then prints its exit code and the scipy modules it
# loaded as the last stdout line
_PROBE = """
import json, sys
from spdclum.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "scipy" or m.startswith("scipy."))]))
"""


def _fresh(code, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("img")
    assert main(["synth", "--out", str(out), "--exposure", "1000"]) == 0
    return str(out / "streak.csv")


def test_package_import_loads_no_scipy(tmp_path):
    loaded = _fresh("import json, sys, spdclum, spdclum.cli\n"
                    "print(json.dumps([m for m in sys.modules "
                    "if m.split('.')[0] == 'scipy']))", cwd=tmp_path)
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["herald", "--rs", "1e5", "--rl", "6.036e4", "--tw", "10"],
    ["herald", "--ps", "1e-3", "--pl", "6.036e-4", "--monte-carlo",
     "1000000", "--seed", "1"],
    ["scenario", "--config", str(ROOT / "demos" / "table.cfg")],
], ids=["herald", "herald-monte-carlo", "scenario"])
def test_subcommand_runs_without_scipy(argv, tmp_path):
    code, loaded = _fresh(_PROBE, *argv, cwd=tmp_path)
    assert code == 0
    assert loaded == []


def test_analyze_runs_without_scipy(image_path, tmp_path):
    code, loaded = _fresh(_PROBE, "analyze", image_path, cwd=tmp_path)
    assert code == 0
    assert loaded == []


def test_synth_skips_scipy_optimize(tmp_path):
    code, loaded = _fresh(_PROBE, "synth", "--out", str(tmp_path / "o"),
                          "--exposure", "1000", cwd=tmp_path)
    assert code == 0
    # the kernels need erf/erfcx, so the probe does see SciPy load here
    assert "scipy.special" in loaded
    assert "scipy.optimize" not in loaded


def test_fitting_import_loads_no_scipy(tmp_path):
    loaded = _fresh("import json, sys, spdclum.fitting\n"
                    "print(json.dumps([m for m in sys.modules "
                    "if m.split('.')[0] == 'scipy']))", cwd=tmp_path)
    assert loaded == []


def test_fit_image_with_irf_skips_scipy_optimize(image_path, tmp_path):
    code, loaded = _fresh(_PROBE, "fit", image_path, "--irf", "0.15",
                          "--band", "560,700", cwd=tmp_path)
    assert code in (0, 5)
    # the IRF kernels need erf/erfcx; the solver needs no SciPy
    assert "scipy.special" in loaded
    assert "scipy.optimize" not in loaded


def test_fit_trace_without_irf_runs_without_scipy(tmp_path):
    import numpy as np

    from spdclum.streak import write_trace_csv

    t = np.arange(0.0, 5000.0, 10.0)
    y = np.random.default_rng(3).poisson(4000.0 * np.exp(-t / 500.0) + 10.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), t, y)
    code, loaded = _fresh(_PROBE, "fit", str(path), "--components", "1",
                          cwd=tmp_path)
    assert code == 0
    assert loaded == []


def test_public_names_resolve():
    for name in spdclum.__all__:
        assert getattr(spdclum, name) is not None, name
    assert spdclum.fit_multiexp is spdclum.fitting.fit_multiexp
    assert set(spdclum.__all__) <= set(dir(spdclum))
    namespace = {}
    exec("from spdclum import *", namespace)
    assert namespace["DecayFit"] is spdclum.fitting.DecayFit
    with pytest.raises(AttributeError):
        spdclum.no_such_name


def test_no_private_cross_module_imports():
    # a module reaching into another's private names couples the two
    # silently; share the name publicly or keep the code in one place
    import ast

    offenders = []
    for path in sorted((ROOT / "src" / "spdclum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []
