"""No SciPy at run time, and the package API resolves its names.

SciPy stays a test dependency, as a reference.  The subcommand checks run
with SciPy blocked in fresh interpreters, since this test process imports
SciPy through other tests, and compare them with in-process runs.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdclum
from spdclum.cli import main

ROOT = Path(__file__).resolve().parents[1]

# runs one subcommand with every scipy import failing, then prints its exit
# code and whether numpy.ma and _hashlib were loaded as the last stdout line
_PROBE = """
import sys
sys.modules["scipy"] = None
from spdclum.cli import main
code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules, "_hashlib" in sys.modules)
"""


def _fresh(code, *argv, cwd):
    """stdout of a fresh interpreter running code with argv."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("img")
    assert main(["synth", "--out", str(out), "--exposure", "1000"]) == 0
    return str(out / "streak.csv")


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    import numpy as np

    from spdclum.streak import write_trace_csv

    t = np.arange(0.0, 5000.0, 10.0)
    y = np.random.default_rng(3).poisson(4000.0 * np.exp(-t / 500.0) + 10.0)
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    write_trace_csv(str(path), t, y)
    return str(path)


def test_source_imports_no_scipy():
    # function bodies included: a lazy import is still a run-time dependency
    offenders = []
    for path in sorted((ROOT / "src" / "spdclum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []


_GATE = ["--set", "filter.1.kind=temporal_gate", "--set",
         "filter.1.window_ns=2", "--set", "pump.repetition_rate_hz=1e6",
         "--set", "scenario.1.label=gated", "--set", "scenario.1.use_chain=true"]


_ARGV = {
    "synth": ["synth", "--out", "o", "--exposure", "1000"],
    "synth-rerun": ["synth", "--config", "{image_dir}/resolved.cfg", "--out",
                    "o"],
    "analyze": ["analyze", "{image}"],
    "analyze-no-irf": ["analyze", "{image}", "--set",
                       "lum_decay.irf_fwhm_ns=0"],
    "fit": ["fit", "{trace}", "--components", "1"],
    "fit-irf": ["fit", "{image}", "--irf", "0.15", "--band", "560,700"],
    "herald": ["herald", "--rs", "1e5", "--rl", "6.036e4", "--tw", "10"],
    "herald-monte-carlo": ["herald", "--ps", "1e-3", "--pl", "6.036e-4",
                           "--monte-carlo", "1000000", "--seed", "1"],
    "scenario": ["scenario", "--config", str(ROOT / "demos" / "table.cfg")],
    "scenario-temporal-gate": ["scenario", *_GATE],
}


@pytest.fixture(scope="module")
def blocked_run(image_path, trace_path, tmp_path_factory):
    """Runs a named argv of _ARGV in a fresh interpreter with scipy blocked,
    once per module; returns the argv, its stdout and the files it wrote."""
    runs = {}

    def run(name):
        if name not in runs:
            argv = [a.format(image=image_path,
                             image_dir=Path(image_path).parent,
                             trace=trace_path) for a in _ARGV[name]]
            cwd = tmp_path_factory.mktemp("blocked")
            stdout = _fresh(_PROBE, *argv, cwd=cwd)
            runs[name] = (argv, stdout, {p.relative_to(cwd): p.read_bytes()
                                         for p in cwd.rglob("*")
                                         if p.is_file()})
        return runs[name]

    return run


@pytest.mark.parametrize("name", list(_ARGV))
def test_subcommand_runs_without_scipy(name, blocked_run, tmp_path,
                                       monkeypatch, capsys):
    # with scipy blocked, each subcommand exits, prints and writes exactly
    # what an unblocked run does
    argv, stdout, blocked_files = blocked_run(name)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = main(argv)
    loaded = " ".join(stdout.split()[-2:])
    assert stdout == f"{capsys.readouterr().out}{code} {loaded}\n"
    assert blocked_files == {p.relative_to(tmp_path): p.read_bytes()
                             for p in tmp_path.rglob("*") if p.is_file()}
    assert code in (0, 5)


@pytest.mark.parametrize("name", ["analyze-no-irf", "fit", "fit-irf"])
def test_subcommand_skips_numpy_ma(name, blocked_run):
    # np.median's NaN check imports numpy.ma, ~15 ms of a fresh fit; without
    # an IRF, analyze sizes the SPDC gate from the median time bin.  Reads
    # the same child as test_subcommand_runs_without_scipy.
    exit_code, loaded = blocked_run(name)[1].split()[-3:-1]
    assert exit_code in ("0", "5")
    assert loaded == "False"


@pytest.mark.parametrize("name", ["analyze", "fit", "herald", "scenario"])
def test_subcommand_skips_hashlib(name, blocked_run):
    # loading _hashlib costs ~3 ms of a fresh process; only synthesis hashes
    # the model.  Reads the same child as test_subcommand_runs_without_scipy.
    exit_code, loaded = blocked_run(name)[1].split()[-3::2]
    assert exit_code in ("0", "5")
    assert loaded == "False"


def test_records_hold_no_generated_methods():
    # CPython 3.11's dataclasses compiles each method it writes from source
    # text as the class is made, ~0.1 ms per method at import; such code is
    # filed as "<string>"
    import dataclasses
    import inspect

    modules = [importlib.import_module(f"spdclum.{path.stem}")
               for path in sorted((ROOT / "src" / "spdclum").glob("*.py"))
               if path.stem != "__init__"]
    records = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)
               and obj.__module__ == module.__name__}
    generated = []
    for cls in records:
        for name in ("__init__", "__repr__", "__eq__", "__hash__",
                     "__setattr__", "__delattr__"):
            method = inspect.unwrap(getattr(cls, name))
            code = getattr(method, "__code__", None)
            if code is not None and code.co_filename == "<string>":
                generated.append(f"{cls.__name__}.{name}")
    assert len(records) >= 25
    assert sorted(generated) == []


@pytest.fixture(scope="module")
def scipy_after_import(tmp_path_factory):
    """The scipy modules a fresh interpreter holds after importing the
    package, the CLI and fitting."""
    return json.loads(_fresh("import json, sys, spdclum, spdclum.cli\n"
                             "import spdclum.fitting\n"
                             "print(json.dumps([m for m in sys.modules "
                             "if m.split('.')[0] == 'scipy']))",
                             cwd=tmp_path_factory.mktemp("import")))


def test_package_import_loads_no_scipy(scipy_after_import):
    assert scipy_after_import == []


def test_fitting_import_loads_no_scipy(scipy_after_import):
    # the package __init__ imports fitting, so one child serves both checks
    assert scipy_after_import == []


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


def test_every_public_name_is_reached():
    # an exported name that no module, demo, bench step or acceptance
    # criterion uses is reached only by its own unit tests: use it or drop it
    sources = [p for p in sorted((ROOT / "src" / "spdclum").glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    sources += sorted((ROOT / "bench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    assert sorted(set(spdclum.__all__) - used) == []


def test_every_config_key_is_read():
    # a registry key that no code reads as a string is a knob that changes
    # nothing: read it or drop it
    from spdclum.config import REGISTRY

    literals = set()
    for path in sorted((ROOT / "src" / "spdclum").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        registry = [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.AnnAssign)
                    and getattr(node.target, "id", None) == "REGISTRY"]
        skip = {id(n) for r in registry for n in ast.walk(r)}
        literals |= {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str) and id(node) not in skip}
    assert sorted(set(REGISTRY) - literals) == []


def test_no_private_cross_module_imports():
    # a module reaching into another's private names couples the two
    # silently; share the name publicly or keep the code in one place
    offenders = []
    for path in sorted((ROOT / "src" / "spdclum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def test_console_script_entry_point(capsys):
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"spdclum": "spdclum.cli:main"}
    module, _, name = scripts["spdclum"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry)
    # the script wrapper exits with what the entry point returns
    assert entry(["herald", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("p_s,")
