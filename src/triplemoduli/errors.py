"""Error types, input checks, the record decorator (each record class
compiles its ``__init__`` when defined and ``_unchecked`` on first use,
and shares every other method from one base), and the cyclic collector
pause (``_gc_paused``, for the bulk builders of walls.py and census.py,
whose results hold no cycle)."""

from __future__ import annotations

import functools
import gc
import sys
from fractions import Fraction
from typing import Optional


class DomainError(ValueError):
    """An input violates a documented mathematical precondition.

    The message names the precondition so callers (and the CLI, which maps
    this to exit code 1) can report something actionable.
    """


def require_int(name: str, value, minimum: Optional[int] = None) -> None:
    """Raise DomainError unless value is an int (bools excluded) that is
    at least ``minimum`` when one is given."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        raise DomainError(
            "%s must be an integer%s"
            % (name, "" if minimum is None else " >= %d" % minimum)
        )


def require_rational(name: str, value) -> None:
    """Raise DomainError unless value is an int (bools excluded) or a
    Fraction. Fraction() would also take a float or a string, so 0.1
    would silently become 3602879701896397/36028797018963968."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(
            "%s must be an integer or a Fraction, not %s"
            % (name, type(value).__name__)
        )


class _Record:
    """Every method of a record but its constructors. Each reads the
    field names from ``__match_args__``: ``==`` and ``hash`` are those
    of the field tuple, as a frozen dataclass's are, and the pickled
    state is a list, as a slotted dataclass's is."""

    __slots__ = ()

    def __repr__(self):
        fields = ["%s=%r" % (n, getattr(self, n)) for n in self.__match_args__]
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash(tuple(self.__getstate__()))

    def __getstate__(self):
        return [getattr(self, n) for n in self.__match_args__]

    def __setstate__(self, state):
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)

    if sys.version_info >= (3, 13):
        # copy.replace goes through __init__, so __post_init__ still checks
        def __replace__(self, /, **changes):
            fields = zip(self.__match_args__, self.__getstate__())
            return self.__class__(**dict(fields, **changes))

    # dataclasses is imported only to raise its FrozenInstanceError
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot delete field %r" % name)


class _TwinFields:
    """A record's ``__dataclass_fields__``, made on first access: the
    fields of a plain frozen dataclass twin with the same names, types
    and defaults, which then replace this descriptor on the class. So
    ``dataclasses.fields``, ``replace``, ``astuple`` and
    ``is_dataclass`` work on records, and only their callers, who have
    imported dataclasses already, pay for the twin."""

    def __init__(self, defaults: dict):
        self.defaults = defaults

    def __get__(self, obj, cls):
        from dataclasses import MISSING, field, make_dataclass

        spec = [
            (name, kind, field(default=self.defaults.get(name, MISSING)))
            for name, kind in cls.__annotations__.items()
        ]
        twin = make_dataclass(cls.__name__, spec, frozen=True)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        return twin.__dataclass_fields__


class _Unchecked:
    """A checking record's ``_unchecked``, compiled on first access from
    the source and scope ``record`` made for the class, then put on the
    class as a staticmethod in place of this descriptor, as
    ``_TwinFields`` does."""

    def __init__(self, src: str, scope: dict):
        self.src = src
        self.scope = scope

    def __get__(self, obj, cls):
        methods = {}
        exec(self.src, self.scope, methods)
        func = methods["_unchecked"]
        func.__qualname__ = cls.__qualname__ + "._unchecked"
        cls._unchecked = staticmethod(func)
        return func


def record(cls):
    """Make cls, which derives from object only, a frozen, slotted
    record: the form of every result record in the library.

    Every annotation of cls is a field, in declaration order; a class
    attribute of the same name is its default (``Wall.stabilized``).
    The record is a new class, made by one ``type()`` call on the base
    ``_Record``, with ``__slots__`` and ``__match_args__`` of the field
    names, so it has no __dict__ and takes no weak references. Records
    compare, hash, print, copy, pickle and ``replace``, and raise
    FrozenInstanceError on assignment or deletion, as plain frozen
    dataclasses do.

    Compiling is most of the cost of defining a record, so one ``exec``
    per class generates only ``__init__``, which runs per item: it
    stores each field through its slot descriptor (about half the cost
    of a frozen dataclass's per-field ``object.__setattr__``), then
    calls __post_init__ if cls has one; its parameters and annotations
    are the dataclass __init__'s. Every other method is written once,
    on ``_Record``: ``__eq__``, ``__hash__``, ``__repr__``,
    ``__getstate__``, ``__setstate__``, the frozen ``__setattr__`` and
    ``__delattr__`` and (from Python 3.13) ``__replace__``, so ``==``
    and ``hash`` take about 1 us, not 0.2.

    A class with a __post_init__ (``TripleType``, ``HiggsType`` and
    ``HodgeChain``, which check their fields) also gets a private
    static constructor ``_unchecked`` with the parameters of
    ``__init__``: it stores the slots and skips __post_init__, with its
    checks and conversions, at about 40% of the checked cost. It is
    compiled on first access (``_Unchecked``), so a process that never
    builds a record unchecked never compiles it. Use it only where every
    field derives from a record checked already, and name at the call
    site the check that makes it safe (``triples.dual``,
    ``higgs._minima_triple``); a caller's values go through the class.

    Nothing here imports dataclasses (which loads inspect, ast and dis):
    only a raised FrozenInstanceError and ``_TwinFields`` do.
    """
    names = tuple(cls.__annotations__)
    ns = dict(vars(cls))
    del ns["__dict__"], ns["__weakref__"]
    defaults = {n: ns.pop(n) for n in names if n in ns}
    params = ", ".join(
        n + "=_defaults[%r]" % n if n in defaults else n for n in names
    )
    stores = "\n".join(" _set_%s(self, %s)" % (n, n) for n in names)
    src = "def __init__(self, %s):\n%s" % (params, stores)
    scope = {"__name__": cls.__module__, "_defaults": defaults, "_new": object.__new__}
    if "__post_init__" in ns:
        src += "\n self.__post_init__()"
        ns["_unchecked"] = _Unchecked(
            "def _unchecked(%s):\n self = _new(_cls)\n%s\n return self"
            % (params, stores),
            scope,
        )
    methods = {}
    exec(src, scope, methods)
    init = methods["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    init.__annotations__ = {**cls.__annotations__, "return": None}
    ns.update(
        __init__=init,
        __slots__=names,
        __match_args__=names,
        __qualname__=cls.__qualname__,
        __dataclass_fields__=_TwinFields(defaults),
    )
    new = type(cls)(cls.__name__, (_Record,), ns)
    # the slot descriptors exist only now; the methods look them up by name
    for name in names:
        scope["_set_" + name] = getattr(new, name).__set__
    scope["_cls"] = new
    return new


def _gc_paused(func):
    """Run func with the cyclic collector off, then restore the state
    found, also when func raises.

    For a function that builds a request-sized result holding no
    reference cycle in one call: while that result grows, its
    allocations trigger collections that traverse it and free nothing
    (about 45% of a large ``enumerate_walls``). What survives the call
    is traversed once, by the first young-generation collection after
    it returns. The pause is process-wide, so another thread's
    collections wait until the call returns. Not for per-item
    functions, whose allocation counts carry over between calls, so a
    pause defers nothing, nor for lazy producers, whose work runs after
    the call returns.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        was = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was:
                gc.enable()

    return paused
