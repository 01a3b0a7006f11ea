"""Frozen dataclasses whose methods are compiled once, with this file.

CPython 3.11's ``@dataclass(frozen=True)`` writes six methods per class
(``__init__``, ``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__``,
``__delattr__``) as source text and compiles each with ``exec`` when the
class is created.  For the package's 25 record classes that took 15-25 ms
of the ~22 ms that ``import spdclum.cli`` added to NumPy, in every command.
``record`` asks ``dataclasses`` for the field table only, so ``fields``,
``replace`` and ``is_dataclass`` still work, and installs closures over the
functions below; the import falls to ~7 ms.  A record behaves as its
``@dataclass(frozen=True)`` twin does (tests/test_record.py compares them),
and building one costs about 0.7 us more.
"""

import dataclasses
import inspect
import operator
import reprlib

_MISSING = dataclasses.MISSING


def _tuple_getter(names):
    """self -> (self.<name>, ...) over names, always a tuple."""
    if len(names) == 1:
        get = operator.attrgetter(names[0])
        return lambda self: (get(self),)
    return operator.attrgetter(*names)


def record(cls=None, /, *, eq=True):
    """``@dataclass(frozen=True, eq=eq)`` without generated code."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    params = cls.__dataclass_params__
    params.init = params.repr = params.frozen = True
    params.eq = eq
    fields = dataclasses.fields(cls)
    names = frozenset(f.name for f in fields)
    order = [f for f in fields if not f.kw_only] + [f for f in fields
                                                    if f.kw_only]
    positional = tuple(f.name for f in order if not f.kw_only)
    defaults = {f.name: f.default for f in fields if f.default is not _MISSING}
    required = [f for f in order if f.name not in defaults]
    # positional fields with defaults follow those without, so enough args
    # leave only a required keyword-only field to check
    check_below = (len(positional) + 1 if any(f.kw_only for f in required)
                   else len(required))
    # every field in field order, so __dict__ keeps it, with its default
    template = {f.name: defaults.get(f.name, _MISSING) for f in fields}
    post_init = hasattr(cls, "__post_init__")
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > len(positional):
            raise TypeError(f"{qualname}.__init__() takes "
                            f"{len(positional) + 1} positional arguments but "
                            f"{len(args) + 1} were given")
        state = self.__dict__
        state.update(template)
        state.update(zip(positional, args))
        if kwargs:
            for name in kwargs.keys() - names:
                raise TypeError(f"{qualname}.__init__() got an unexpected "
                                f"keyword argument {name!r}")
            for name in kwargs.keys() & positional[:len(args)]:
                raise TypeError(f"{qualname}.__init__() got multiple values "
                                f"for argument {name!r}")
            state.update(kwargs)
        if len(args) < check_below:
            for f in required:
                if state[f.name] is _MISSING:
                    raise TypeError(f"{qualname}.__init__() missing required "
                                    f"argument: {f.name!r}")
        if post_init:
            self.__post_init__()

    shown = _tuple_getter([f.name for f in fields if f.repr])
    labels = [f"{f.name}=" for f in fields if f.repr]

    @reprlib.recursive_repr()
    def __repr__(self):
        items = map(operator.add, labels, map(repr, shown(self)))
        return f"{self.__class__.__qualname__}({', '.join(items)})"

    compared = _tuple_getter([f.name for f in fields if f.compare])
    hashed = _tuple_getter([f.name for f in fields
                            if (f.compare if f.hash is None else f.hash)])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(
                f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(
                f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = [__init__, __repr__, __setattr__, __delattr__]
    if eq:
        methods += [__eq__, __hash__]
    for fn in methods:
        fn.__qualname__ = f"{qualname}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    parameters = []
    for f in order:
        kind = (inspect.Parameter.KEYWORD_ONLY if f.kw_only
                else inspect.Parameter.POSITIONAL_OR_KEYWORD)
        default = defaults.get(f.name, inspect.Parameter.empty)
        parameters.append(inspect.Parameter(f.name, kind, default=default,
                                            annotation=f.type))
    cls.__signature__ = inspect.Signature(parameters, return_annotation=None)
    return cls
