"""Error types, input checks and the record decorator shared across the
library."""

from __future__ import annotations

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


def record(cls):
    """Make cls a frozen, slotted dataclass: the form of every result
    record in the library.

    A census or a wall scan builds thousands of small records, so each
    one has no __dict__ and no weak references, and an __init__ that
    stores each field through its slot descriptor instead of the frozen
    __setattr__. For the three-field WallWitness that about halves the
    cost of building one and cuts its memory by about a third. The
    __init__ keeps the parameter names, order, defaults and annotations
    of the dataclass __init__ and calls __post_init__ when the class
    defines one. Records compare, hash, print, copy, pickle, ``replace``
    and raise FrozenInstanceError as plain frozen dataclasses do. A
    record needs a docstring of its own: dataclasses signs an
    undocumented class before this __init__ exists, as "Name()".

    dataclasses is imported here, not at the top, so that a CLI request
    that defines no record does not load it.
    """
    from dataclasses import MISSING, dataclass, fields

    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    # slots=True builds a new class, but the frozen __setattr__ and
    # __delattr__ it copies still test ``type(self) is`` the class it
    # replaced, so setting or deleting a name that is not a field would
    # raise TypeError from super() instead of FrozenInstanceError; they
    # are pointed at the new class.
    for method in (cls.__setattr__, cls.__delattr__):
        for cell in method.__closure__ or ():
            old = cell.cell_contents
            if isinstance(old, type) and old.__qualname__ == cls.__qualname__:
                cell.cell_contents = cls
    fs = fields(cls)
    params, body = ["self"], []
    ns = {"__name__": cls.__module__}
    for i, f in enumerate(fs):
        ns["_set%d" % i] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            ns["_default%d" % i] = f.default
            params.append("%s=_default%d" % (f.name, i))
        body.append("_set%d(self, %s)" % (i, f.name))
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec("def __init__(%s):\n %s" % (", ".join(params), "\n ".join(body)), ns)
    init = cls.__init__ = ns["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    init.__annotations__ = {f.name: f.type for f in fs} | {"return": None}
    return cls
