"""The traced benchmark run wraps spdclum names; keep every one of them.

bench/tracing.py replaces module attributes and methods of spdclum for the
length of a traced run, and the paper-repro steps read result fields and
pass keywords to model builders.  A rename in src/ would otherwise surface
only when the benchmark runs.  The bench modules are loaded or parsed from
their files and never edited.
"""

import ast
import dataclasses
import importlib
import inspect
import importlib.util
import sys
from pathlib import Path

import pytest

import spdclum

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_span_points_exist(tracing):
    for module_name, attr, _, _ in tracing._SPAN_POINTS:
        module = importlib.import_module(f"spdclum.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_tracer_binds_every_wrapped_name(tracing):
    # _bindings resolves the span points, fit_multiexp and the counter
    # owners (DecayDesign.residuals/jacobian, least_squares,
    # exp_conv_gauss_cdf); a missing name raises here
    bindings = tracing.Tracer()._bindings()
    bound = {(getattr(owner, "__name__", None), attr)
             for owner, attr, _, _ in bindings}
    for owner, attr in [("spdclum.fitting", "fit_multiexp"),
                        ("DecayDesign", "residuals"),
                        ("DecayDesign", "jacobian"),
                        ("spdclum.fitting", "least_squares"),
                        ("spdclum.kernels", "exp_conv_gauss_cdf")]:
        assert (owner, attr) in bound, (owner, attr)


def test_tracer_installs_and_restores(tracing):
    fitting = spdclum.fitting
    before = (fitting.least_squares, fitting.DecayDesign.residuals,
              fitting.fit_multiexp)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert fitting.least_squares is not before[0]
        assert fitting.DecayDesign.residuals is not before[1]
    assert (fitting.least_squares, fitting.DecayDesign.residuals,
            fitting.fit_multiexp) == before


def test_result_fields_read_by_the_steps():
    # bench/repro.py reads these fields of fits, reports and Monte Carlo runs
    for cls, names in [
            (spdclum.DecayFit, ("cost", "components")),
            (spdclum.FitComponent, ("lifetime_ns",)),
            (spdclum.IndependenceReport, ("all_agree",)),
            (spdclum.MonteCarloHerald, ("fidelity_hat", "fidelity_se",
                                        "n_windows"))]:
        fields = {f.name for f in dataclasses.fields(cls)}
        missing = [n for n in names if n not in fields and not hasattr(cls, n)]
        assert not missing, (cls.__name__, missing)


def test_bench_keywords_are_parameters():
    # every keyword bench/*.py passes to these callables must still exist
    targets = {"make_model": spdclum.emission.make_model,
               "synthesize": spdclum.synth.synthesize,
               "HeraldParams": spdclum.herald.HeraldParams,
               "monte_carlo_herald": spdclum.herald.monte_carlo_herald}
    seen, unknown = set(), []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name not in targets:
                continue
            seen.add(name)
            params = inspect.signature(targets[name]).parameters
            unknown += [(path.name, node.lineno, name, kw.arg)
                        for kw in node.keywords
                        if kw.arg is not None and kw.arg not in params]
    assert seen == set(targets)
    assert not unknown


def test_each_synthesize_spans_one_expected_counts(tracing):
    # synth.expected_counts_s is read from the expected_counts spans inside
    # the workload's synthesize calls; a synthesize that stopped calling the
    # module attribute would leave that span list empty
    tracer = tracing.Tracer()
    grid = spdclum.synth.time_grid(-2.0, 8.0, 0.1)
    with tracer.installed():
        for seed in (1, 2, 3):
            spdclum.synth.synthesize(spdclum.make_model(), None, grid,
                                     exposure=100, seed=seed)
    outer = [i for i, s in enumerate(tracer.spans)
             if s.name == "synth.synthesize"]
    inner = [s.parent for s in tracer.spans
             if s.name == "synth.expected_counts"]
    assert len(outer) == 3
    assert sorted(inner) == outer
