"""The bulk builders pause the cyclic collector and restore its state.

enumerate_walls, chambers, _wall_rows, enumerate_region and
coprime_partition build request-sized results that hold no reference cycle, so they run with
the collector off (errors._gc_paused). These tests pin the contract:
the state found is the state left, on return, on a DomainError and on
a BaseException from inside; no collection starts while a builder runs;
and the wrapped functions keep their signatures and docstrings.
"""

import gc
import inspect
import sys

import pytest

from triplemoduli import DomainError, TripleType
from triplemoduli import census as census_module
from triplemoduli import walls as walls_module
from triplemoduli.census import coprime_partition, enumerate_region
from triplemoduli.walls import _wall_rows, chambers, enumerate_walls

BIG = TripleType(5, 3, 1000, -1000)

# name -> (builder, a small valid call's arguments)
BUILDERS = {
    "enumerate_walls": (enumerate_walls, (TripleType(2, 1, 4, 1),)),
    "chambers": (chambers, (TripleType(2, 1, 4, 1), 2)),
    "_wall_rows": (_wall_rows, (TripleType(2, 1, 4, 1),)),
    "enumerate_region": (enumerate_region, (2, 3, 2)),
    "coprime_partition": (coprime_partition, (2, 3, 2)),
}


@pytest.fixture(autouse=True)
def restore_gc():
    """Leave the collector as found even when a test fails mid-way."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_the_state_found_is_the_state_left(name, enabled):
    builder, args = BUILDERS[name]
    (gc.enable if enabled else gc.disable)()
    builder(*args)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_walls(TripleType(2, 2, 1, 0)),
        lambda: _wall_rows(TripleType(2, 2, 1, 0)),
        lambda: chambers(TripleType(1, 1, 0, 1), 2),
        lambda: enumerate_region(0, 1, 2),
        lambda: coprime_partition(1, 1, 1),
    ],
    ids=[
        "enumerate_walls",
        "_wall_rows",
        "chambers",
        "enumerate_region",
        "coprime_partition",
    ],
)
def test_the_collector_is_back_on_after_a_domain_error(call):
    gc.enable()
    with pytest.raises(DomainError):
        call()
    assert gc.isenabled()


@pytest.mark.parametrize(
    "name, module, target",
    [
        ("enumerate_walls", walls_module, "Wall"),
        ("chambers", walls_module, "Wall"),
        ("_wall_rows", walls_module, "_grouped"),
        ("enumerate_region", census_module, "ClassPair"),
        ("coprime_partition", census_module, "ClassPair"),
    ],
)
def test_the_collector_is_back_on_after_an_interrupt(
    monkeypatch, name, module, target
):
    def interrupt(*args, **kwargs):
        assert not gc.isenabled(), "the builder runs with the collector on"
        raise KeyboardInterrupt

    # a record class is also reached for its bulk constructor
    interrupt._from_columns = interrupt
    monkeypatch.setattr(module, target, interrupt)
    builder, args = BUILDERS[name]
    gc.enable()
    with pytest.raises(KeyboardInterrupt):
        builder(*args)
    assert gc.isenabled()


SIGNATURES = {
    "enumerate_walls": "(T: 'TripleType', "
    "interval: 'tuple[Rational, Rational] | None' = None, "
    "include_endpoints: 'bool' = False, g: 'int | None' = None) "
    "-> 'tuple[Wall, ...]'",
    "chambers": "(T: 'TripleType', g: 'int', "
    "cutoff: 'Rational | None' = None) -> 'ChamberReport'",
    "_wall_rows": "(T: 'TripleType', "
    "interval: 'tuple[Rational, Rational] | None' = None, "
    "include_endpoints: 'bool' = False, g: 'int | None' = None) "
    "-> 'list[tuple[int, int, tuple[tuple[int, int, int], ...], bool]]'",
    "enumerate_region": "(p: 'int', q: 'int', g: 'int') -> 'CensusReport'",
    "coprime_partition": "(p: 'int', q: 'int', g: 'int') "
    "-> 'CoprimePartition'",
}

FIRST_DOC_LINES = {
    "enumerate_walls": (
        "All walls inside a closed parameter window, sorted ascending."
    ),
    "chambers": (
        "Chamber decomposition of the admissible range, with 2g-2 located."
    ),
    "_wall_rows": (
        "enumerate_walls in plain ints, for writing: one (num, den, rows,"
    ),
    "enumerate_region": (
        "Enumerate every class representative, grouped into tau-lines."
    ),
    "coprime_partition": "Split the census by gcd(p+q, a+b) = 1.",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_the_wrapper_keeps_name_signature_and_docstring(name):
    builder, _ = BUILDERS[name]
    assert builder.__name__ == builder.__qualname__ == name
    assert str(inspect.signature(builder)) == SIGNATURES[name]
    assert builder.__doc__ == inspect.unwrap(builder).__doc__
    assert builder.__doc__.splitlines()[0] == FIRST_DOC_LINES[name]


BUILDER_FILES = {walls_module.__file__, census_module.__file__}


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_walls(BIG),
        lambda: chambers(BIG, 2),
        lambda: _wall_rows(BIG),
        lambda: enumerate_region(12, 12, 30),
        lambda: coprime_partition(12, 12, 30),
    ],
    ids=[
        "enumerate_walls",
        "chambers",
        "_wall_rows",
        "enumerate_region",
        "coprime_partition",
    ],
)
def test_no_collection_starts_while_a_builder_runs(call):
    """A gc.callbacks hook records every collection that starts with a
    frame of walls.py or census.py on the stack. Without the pause these
    calls trigger tens to hundreds of collections each."""
    inside = []

    def hook(phase, info):
        # sys._getframe(0) never raises; a deeper start can at the bottom
        frame = sys._getframe(0)
        while frame is not None:
            if frame.f_code.co_filename in BUILDER_FILES:
                if phase == "start":
                    inside.append(info["generation"])
                return
            frame = frame.f_back

    gc.enable()
    gc.collect()
    gc.callbacks.append(hook)
    try:
        result = call()
    finally:
        gc.callbacks.remove(hook)
    assert result
    assert inside == []
