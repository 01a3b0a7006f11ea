"""Every record keeps the contract of ``@dataclass(frozen=True)``.

Each record class is compared with a reference twin that ``dataclasses``
generates from the same fields: a subclass declaring them again, so its
methods are the generated ones and its ``__post_init__`` and properties are
the record's own.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from spdclum import (analysis, config, emission, filters, fitting, herald,
                     streak)

MODULES = (analysis, config, emission, filters, fitting, herald, streak)
RECORDS = sorted((obj for module in MODULES for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__),
                 key=lambda cls: cls.__name__)


def _roi(label="custom"):
    return streak.RegionOfInterest((500.0, 560.0), (-1.0, 2.0), label)


def _agreement(agree=True):
    return fitting.ComponentAgreement(0, (1.0, 2.0), (0.5, 0.5), agree)


def _fit(cost=1.0):
    component = fitting.FitComponent(1.0, 0.73, 0.01, 0.02)
    return fitting.DecayFit((component,), 0.5, 0.1, 0.0, 0.01, 0.15, 1.1,
                            True, (), np.zeros(3), 10, cost)


def _image():
    return streak.StreakImage(np.arange(6).reshape(3, 2), [500.0, 501.0],
                              [0.0, 0.1, 0.2], 10, {"seed": "1"})


# two unequal instances of every record, each built as the package builds it
SAMPLES = {
    "BandpassFilter": lambda: (filters.BandpassFilter(534.0, 10.0),
                               filters.BandpassFilter(534.0, 3.0, 0.8)),
    "ComponentAgreement": lambda: (_agreement(), _agreement(False)),
    "CountSummary": lambda: (
        analysis.CountSummary(1.0, 2.0, 0.5, _roi(), _roi("lum")),
        analysis.CountSummary(1.0, 2.0, 0.5, _roi(), _roi("lum"),
                              "model-subtract", 0.25, ("flag",))),
    "DecayFit": lambda: (_fit(), _fit(2.0)),
    "DecayModel": lambda: (emission.DecayModel(),
                           emission.DecayModel((1.0,), (0.73,), 0.0)),
    "EmissionModel": lambda: (emission.make_model(),
                              emission.make_model(spdc_rate_hz=0.0)),
    "FidelityEstimate": lambda: (herald.FidelityEstimate(0.9, 0.95, False),
                                 herald.FidelityEstimate(-0.1, 0.2, True)),
    "FilterChain": lambda: (filters.FilterChain(), filters.FilterChain(
        (filters.LongpassFilter(460.0), filters.TemporalGate(2.0)))),
    "FitComponent": lambda: (fitting.FitComponent(1.0, 0.73, 0.01, 0.02),
                             fitting.FitComponent(0.5, 1850.0, 0.1, 0.2)),
    "HeraldOutcome": lambda: (
        herald.outcome_probabilities(1e-3, 6e-4),
        herald.outcome_probabilities(1e-3, 6e-4, 1e-4)),
    "HeraldParams": lambda: (herald.HeraldParams(),
                             herald.HeraldParams(window_ns=5.0,
                                                 lum_rate_signal_hz=1e4)),
    "IndependenceReport": lambda: (
        fitting.IndependenceReport((250.0, 260.0), (_agreement(),), True),
        fitting.IndependenceReport((250.0, 260.0), (_agreement(False),),
                                   False)),
    "KeySpec": lambda: (config.REGISTRY["seed"],
                        config.REGISTRY["out.format"]),
    "LongpassFilter": lambda: (filters.LongpassFilter(460.0),
                               filters.LongpassFilter(480.0, 0.9)),
    "MonteCarloHerald": lambda: (
        herald.monte_carlo_herald(herald.HeraldParams(), 1000, 1),
        herald.monte_carlo_herald(herald.HeraldParams(), 10, 1)),
    "Polarizer": lambda: (filters.Polarizer(),
                          filters.Polarizer("orthogonal")),
    "PumpConfig": lambda: (emission.PumpConfig(), emission.PumpConfig(250.0)),
    "RateAlert": lambda: (filters.RateAlert(True, "fine"),
                          filters.RateAlert(False, "crowded")),
    "RegionOfInterest": lambda: (_roi(), _roi("spdc")),
    "ScenarioResult": lambda: tuple(filters.run_scenarios(
        emission.make_model(), filters.FilterChain(),
        [filters.ScenarioSpec("a", 1e10, 1e9),
         filters.ScenarioSpec("b", 1e10, 1e9, reference_snr=3.0)])),
    "ScenarioSpec": lambda: (filters.ScenarioSpec("a", 1e10, 1e9),
                             filters.ScenarioSpec("b", 1e10, 1e9, 0.5, 0.1,
                                                  reference_snr=3.0)),
    "SpectralProfile": lambda: (emission.SpectralProfile(534.0, 10.0),
                                emission.SpectralProfile(430.0, 60.0, 0.4)),
    "StreakImage": lambda: (_image(), streak.StreakImage(
        np.ones((3, 2), int), [500.0, 501.0], [0.0, 0.1, 0.2], 10)),
    "TemporalGate": lambda: (filters.TemporalGate(2.0),
                             filters.TemporalGate(2.0, latency_ns=0.5)),
    "WavelengthGrid": lambda: (emission.WavelengthGrid(),
                               emission.WavelengthGrid(400.0, 500.0, 2.0)),
}


def _twin(cls):
    """cls's fields again, under dataclass(frozen=True, eq=cls's eq)."""
    specs = [(f.name, f.type, dataclasses.field(
        default=f.default, default_factory=f.default_factory, init=f.init,
        repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata,
        kw_only=f.kw_only)) for f in dataclasses.fields(cls)]
    # no inherited __signature__: inspect reads the generated __init__
    return dataclasses.make_dataclass(
        cls.__name__, specs, bases=(cls,), namespace={"__signature__": None},
        frozen=True, eq=cls.__dataclass_params__.eq)


def _args(obj):
    """obj's field values as __init__ arguments: positional, keyword-only."""
    fields = dataclasses.fields(obj)
    return ([getattr(obj, f.name) for f in fields if not f.kw_only],
            {f.name: getattr(obj, f.name) for f in fields if f.kw_only})


def _outcome(call):
    """repr of what call returns, or the type and text of what it raises"""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc), str(exc)


def test_every_record_has_samples():
    assert len(RECORDS) == 25
    assert sorted(SAMPLES) == [cls.__name__ for cls in RECORDS]


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def pair(request):
    """(record class, its twin, the samples, the samples built as twins)"""
    cls = request.param
    twin = _twin(cls)
    samples = SAMPLES[cls.__name__]()
    twins = []
    for obj in samples:
        args, kwargs = _args(obj)
        twins.append(twin(*args, **kwargs))
    return cls, twin, samples, twins


def test_repr(pair):
    _, _, samples, twins = pair
    assert [repr(obj) for obj in samples] == [repr(obj) for obj in twins]


def test_eq_and_hash(pair):
    cls, twin, (a, b), (ta, tb) = pair
    args, kwargs = _args(a)
    a2, ta2 = cls(*args, **kwargs), twin(*args, **kwargs)
    assert (a == a, a == a2, a == b, a != a2, a != b) == (
        ta == ta, ta == ta2, ta == tb, ta != ta2, ta != tb)
    assert (a == ta) is False      # another class, as between two dataclasses
    if cls.__dataclass_params__.eq:
        assert a == a2 and a != b
        assert [hash(a), hash(a2), hash(b)] == [hash(ta), hash(ta2), hash(tb)]
    else:
        assert cls.__hash__ is twin.__hash__ is object.__hash__
        assert a != a2


@pytest.mark.parametrize("name", ["DecayFit", "StreakImage"])
def test_eq_false_records_compare_by_identity(name):
    obj = SAMPLES[name]()[0]
    same = dataclasses.replace(obj)
    assert obj == obj and obj != same and not obj == same
    assert len({obj, same}) == 2


def test_frozen(pair):
    _, _, (a, _), (ta, _) = pair
    for name in [f.name for f in dataclasses.fields(a)] + ["not_a_field"]:
        value = getattr(a, name, None)
        for act in (lambda obj: setattr(obj, name, value),
                    lambda obj: delattr(obj, name)):
            outcome = _outcome(lambda: act(a))
            assert outcome[0] is dataclasses.FrozenInstanceError
            assert outcome == _outcome(lambda: act(ta))
        if name != "not_a_field":
            assert getattr(a, name) is value


def test_subclass_sets_and_deletes_other_attributes(pair):
    # a plain subclass may set and delete an attribute that is not a field,
    # as a subclass of a frozen dataclass may; its fields stay frozen
    cls, twin, (a, _), _ = pair
    args, kwargs = _args(a)
    first = dataclasses.fields(a)[0].name
    outcomes = []
    for base in (cls, twin):
        obj = type(f"Sub{base.__name__}", (base,), {})(*args, **kwargs)
        outcomes.append([_outcome(step) for step in (
            lambda: setattr(obj, "not_a_field", 1),
            lambda: obj.not_a_field,
            lambda: delattr(obj, "not_a_field"),
            lambda: hasattr(obj, "not_a_field"),
            lambda: setattr(obj, first, getattr(obj, first)),
            lambda: delattr(obj, first))])
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:4] == ["None", "1", "None", "False"]
    assert outcomes[0][4][0] is outcomes[0][5][0] is (
        dataclasses.FrozenInstanceError)


def test_dataclass_metadata(pair):
    cls, twin, _, _ = pair
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__match_args__ == twin.__match_args__
    assert repr(cls.__dataclass_params__) == repr(twin.__dataclass_params__)
    assert ([(f.name, f.type, f.kw_only) for f in dataclasses.fields(cls)]
            == [(f.name, f.type, f.kw_only) for f in dataclasses.fields(twin)])


def test_replace(pair):
    _, _, (a, b), (ta, _) = pair
    for f in dataclasses.fields(a):
        change = {f.name: getattr(b, f.name)}
        assert _outcome(lambda: dataclasses.replace(a, **change)) == _outcome(
            lambda: dataclasses.replace(ta, **change))
    assert repr(dataclasses.replace(a)) == repr(a)


def test_bad_arguments_raise_type_error(pair):
    cls, twin, (a, _), _ = pair
    args, kwargs = _args(a)
    first = dataclasses.fields(a)[0].name
    calls = [lambda c: c(*args, **kwargs, not_a_field=1),
             lambda c: c(*args, *args, **kwargs),
             lambda c: c(*args, **kwargs, **{first: getattr(a, first)})]
    if any(f.default is f.default_factory is dataclasses.MISSING
           for f in dataclasses.fields(a)):
        calls.append(lambda c: c())
    for call in calls:
        assert _outcome(lambda: call(cls))[0] is TypeError
        assert _outcome(lambda: call(twin))[0] is TypeError


def test_temporal_gate_latency_is_keyword_only():
    with pytest.raises(TypeError):
        filters.TemporalGate(10.0, 1000.0)
    assert filters.TemporalGate(10.0, latency_ns=1.0).latency_ns == 1.0


def test_streak_metadata_default_is_fresh():
    a, b = (streak.StreakImage(np.zeros((2, 2), int), [1.0, 2.0], [1.0, 2.0],
                               1) for _ in range(2))
    assert a.metadata == b.metadata == {}
    assert a.metadata is not b.metadata


def test_docstrings_are_the_source_ones():
    docs = {}
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        docs.update((node.name, ast.get_docstring(node, clean=False))
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef))
    for cls in RECORDS:
        assert docs[cls.__name__] is not None, cls.__name__
        assert cls.__doc__ == docs[cls.__name__], cls.__name__


def test_recursive_repr():
    image = _image()
    twin = _twin(streak.StreakImage)(*_args(image)[0])
    for obj in (image, twin):
        obj.metadata["self"] = obj
    assert repr(image) == repr(twin)
    assert repr(image).endswith("'self': ...})")
