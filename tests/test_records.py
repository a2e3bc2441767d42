"""The record contract: every dataclass that the six math modules define
is a slotted frozen record, made by ``errors.record``, that behaves as
the plain frozen dataclass it was. Each record is checked against its
plain twin, which tests/oracles.py generates from the record's fields;
a class added to a math module without ``@record`` fails here."""

import copy
import dataclasses
import inspect
import itertools
import pickle
import re
import sys
import textwrap
import weakref
from fractions import Fraction as F
from importlib import import_module

import pytest

from triplemoduli.census import (
    coprime_partition,
    enumerate_region,
    tau_quotient_facts,
)
from triplemoduli.classify import classify
from triplemoduli.errors import DomainError, _Record
from triplemoduli.higgs import (
    HiggsType,
    minima_triple_type,
    mw_relations,
    rigidity,
    toledo,
)
from triplemoduli.morse import HodgeChain
from triplemoduli.triples import (
    TripleType,
    alpha_range,
    fibration_dims,
    thresholds,
    witness_check,
)
from triplemoduli.walls import (
    Wall,
    chambers,
    enumerate_walls,
    flip_dims,
    integer_genericity,
    is_critical,
)

from oracles import oracle_twin
from test_imports import fresh

MATH = ("census", "classify", "higgs", "morse", "triples", "walls")
RECORDS = [
    cls
    for module in map(import_module, ("triplemoduli." + m for m in MATH))
    for cls in vars(module).values()
    if isinstance(cls, type)
    and dataclasses.is_dataclass(cls)
    and cls.__module__ == module.__name__
]

T, U = TripleType(2, 1, 4, 1), TripleType(3, 3, 5, -4)
# H is interior and coprime; R is saturated and rigid, so its rigidity
# report nests a HiggsType factor
H, R = HiggsType(2, 3, 1, 1, 2), HiggsType(1, 2, 2, 1, 2)

# two different instances of every record, built by the library
SAMPLES = {
    "TripleType": (T, U),
    "WitnessOutcome": witness_check(T, [TripleType(0, 1, 0, 0), T], 1).items,
    "WitnessReport": (
        witness_check(T, [TripleType(0, 1, 0, 0)], 1),
        witness_check(U, [], F(1, 2), strict=False),
    ),
    "AlphaInterval": (alpha_range(T), alpha_range(U)),
    "Thresholds": (thresholds(T), thresholds(U)),
    "BaseFactor": fibration_dims(U, 2).base_factors,
    "FibrationDims": (fibration_dims(T, 2), fibration_dims(U, 2)),
    "WallWitness": is_critical(T, F(5, 2)).witnesses,
    "Wall": (enumerate_walls(T)[0], enumerate_walls(U, g=2)[-1]),
    "WallTest": (is_critical(T, F(5, 2)), is_critical(T, 3)),
    "GenericityFacts": (integer_genericity(T, 1), integer_genericity(U, 0)),
    "Chamber": chambers(U, 2).chambers[:2],
    "ChamberReport": (chambers(T, 2), chambers(U, 2)),
    "FlipDims": (
        flip_dims(T, TripleType(2, 0, 5, 0), 2),
        flip_dims(U, TripleType(1, 0, 2, 0), 2),
    ),
    "HiggsType": (H, R),
    "ToledoReport": (toledo(H), toledo(R)),
    "MinimaRealization": (
        minima_triple_type(H),
        minima_triple_type(HiggsType(1, 1, 0, 0, 2)),
    ),
    "MWReport": (mw_relations(H), mw_relations(HiggsType(2, 2, 1, 0, 2))),
    "RigidityReport": (rigidity(H), rigidity(R)),
    "SubspaceVerdict": (classify(H).r_gamma, classify(R).r_pu),
    "Verdict": (classify(H), classify(R)),
    "ClassPair": enumerate_region(2, 1, 2).points[:2],
    "CensusReport": (enumerate_region(1, 1, 2), enumerate_region(2, 1, 2)),
    "TauQuotientFacts": (tau_quotient_facts(2, 1), tau_quotient_facts(4, 6)),
    "CoprimePartition": (coprime_partition(1, 1, 2), coprime_partition(2, 1, 2)),
    "HodgeChain": (HodgeChain((1, 1), (1, 0)), HodgeChain((1, 2, 1), (3, 1, -2))),
}


def names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def values(rec):
    return tuple(getattr(rec, f.name) for f in dataclasses.fields(rec))


def test_every_record_has_samples():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
class TestRecordContract:
    @pytest.fixture
    def pair(self, cls):
        a, b = SAMPLES[cls.__name__]
        assert type(a) is cls and type(b) is cls and a != b
        return a, b

    def test_slotted_with_no_instance_dict_or_weak_references(
        self, cls, pair
    ):
        assert cls.__slots__ == names(cls)
        # its own docstring: dataclasses would write "Name()" for a
        # record with none, as it signs the class before record adds
        # the __init__
        assert not cls.__doc__.startswith(cls.__name__ + "(")
        for rec in pair:
            assert not hasattr(rec, "__dict__")
            with pytest.raises(TypeError):
                weakref.ref(rec)

    def test_positional_and_keyword_construction(self, cls, pair):
        for rec in pair:
            vals = values(rec)
            assert cls(*vals) == rec
            assert cls(**dict(zip(names(cls), vals))) == rec
            with pytest.raises(TypeError):
                cls(*vals, None)
            with pytest.raises(TypeError):
                cls(*vals[:-1], **{names(cls)[-1]: vals[-1], "extra": 1})

    def test_signature_matches_the_plain_twin(self, cls, pair):
        params = inspect.signature(cls).parameters.values()
        twin = type(oracle_twin(pair[0]))
        twin_params = inspect.signature(twin).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            (p.name, p.kind, p.default) for p in twin_params
        ]
        assert tuple(p.name for p in params) == names(cls)

    def test_fields_eq_hash_and_repr(self, cls, pair):
        # fields in declaration order
        assert names(cls) == tuple(cls.__annotations__)
        a, b = pair
        ta, tb = oracle_twin(a), oracle_twin(b)
        assert a == cls(*values(a)) and not a != cls(*values(a))
        assert a != b and not a == b
        assert a != values(a) and a != ta
        assert repr(a) == repr(ta) and repr(b) == repr(tb)
        try:
            expected = hash(ta)
        except TypeError as exc:
            # Verdict and CensusReport hold a dict
            with pytest.raises(TypeError, match=re.escape(str(exc))):
                hash(a)
        else:
            assert hash(a) == expected == hash(values(a))

    def test_frozen_on_set_and_delete(self, cls, pair):
        a, b = pair
        before = values(a)
        for name in names(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, getattr(b, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, name)
        # not a field, and no __dict__ to hold it: refused as in the
        # plain frozen dataclass, not with a TypeError from super()
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del a.extra
        assert values(a) == before

    def test_replace_pickle_and_copy(self, cls, pair):
        a, b = pair
        assert dataclasses.replace(a) == a
        moved = dataclasses.replace(a, **dict(zip(names(cls), values(b))))
        assert type(moved) is cls and moved == b
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(a, protocol))
            assert type(back) is cls and back == a and repr(back) == repr(a)
        for dup in (copy.copy(a), copy.deepcopy(a)):
            assert type(dup) is cls and dup == a and repr(dup) == repr(a)

    def test_match_args_bind_the_fields_in_a_class_pattern(self, cls, pair):
        twin = type(oracle_twin(pair[0]))
        assert cls.__match_args__ == twin.__match_args__ == names(cls)
        # case Cls(v0, v1, ...): one capture per field, by position
        captures = ", ".join("v%d" % i for i in range(len(names(cls))))
        code = "match rec:\n case cls(%s):\n  bound = (%s,)" % (
            captures,
            captures,
        )
        for rec in pair:
            scope = {"cls": cls, "rec": rec}
            exec(code, scope)
            assert scope["bound"] == values(rec)

    def test_copy_replace_where_the_plain_twin_has_it(self, cls, pair):
        a, b = pair
        twin = type(oracle_twin(a))
        # plain dataclasses have __replace__ from Python 3.13 on
        assert hasattr(cls, "__replace__") == hasattr(twin, "__replace__")
        if sys.version_info >= (3, 13):
            assert copy.replace(a) == a
            moved = copy.replace(a, **dict(zip(names(cls), values(b))))
            assert type(moved) is cls and moved == b


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_only_the_per_call_methods_are_generated(cls):
    """errors.record compiles per class only the constructors, which
    run per call; every other method, ``==`` and ``hash`` included, is
    the shared base's own function."""
    assert cls.__bases__ == (_Record,)
    shared = ["__eq__", "__hash__", "__repr__", "__getstate__"]
    shared += ["__setstate__", "__setattr__", "__delattr__"]
    if sys.version_info >= (3, 13):
        shared.append("__replace__")
    for name in shared:
        assert name not in vars(cls)
        assert getattr(cls, name) is vars(_Record)[name]
    own = ["__init__", "_from_columns"]
    if hasattr(cls, "_unchecked"):
        own.append("_unchecked")
    for name in own:
        assert getattr(cls, name).__qualname__ == cls.__qualname__ + "." + name


def test_defining_a_record_compiles_no_bulk_constructor():
    """_from_columns is shared from the base until a class first uses
    it, so defining a record compiles only its __init__."""
    from triplemoduli.errors import record

    @record
    class Pair:
        x: int
        y: int = 0

    assert "_from_columns" not in vars(Pair)
    assert Pair._from_columns(2, [1, 2], [3, 4]) == [Pair(1, 3), Pair(2, 4)]
    assert "_from_columns" in vars(Pair)
    assert "_from_columns" in vars(_Record)


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
class TestBulkConstruction:
    """cls._from_columns(n, *columns), one column per field, builds the
    records the class builds from the same rows."""

    def test_rows_match_the_class(self, cls):
        pair = SAMPLES[cls.__name__]
        rows = [values(rec) for rec in pair]
        built = cls._from_columns(len(rows), *zip(*rows))
        assert type(built) is list and len(built) == len(pair)
        assert built[0] != built[1]
        for bulk, rec in zip(built, pair):
            assert type(bulk) is cls
            assert bulk == rec and rec == bulk and not bulk != rec
            assert repr(bulk) == repr(rec)
            try:
                expected = hash(rec)
            except TypeError:
                with pytest.raises(TypeError):
                    hash(bulk)
            else:
                assert hash(bulk) == expected
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                data = pickle.dumps(bulk, protocol)
                assert data == pickle.dumps(rec, protocol)
                back = pickle.loads(data)
                assert type(back) is cls and back == rec
            for dup in (copy.copy(bulk), copy.deepcopy(bulk)):
                assert type(dup) is cls and dup == rec
                assert repr(dup) == repr(rec)
            assert dataclasses.fields(bulk) == dataclasses.fields(rec)
            assert dataclasses.astuple(bulk) == dataclasses.astuple(rec)
            assert dataclasses.replace(bulk) == rec
        other = dataclasses.replace(built[0], **dict(zip(names(cls), rows[1])))
        assert type(other) is cls and other == pair[1]

    def test_frozen_on_set_and_delete(self, cls):
        a, b = SAMPLES[cls.__name__]
        (bulk,) = cls._from_columns(1, *zip(values(a)))
        for name in names(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bulk, name, getattr(b, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(bulk, name)
        assert values(bulk) == values(a)

    def test_a_short_or_missing_column_raises(self, cls):
        rows = [values(rec) for rec in SAMPLES[cls.__name__]]
        columns = [list(column) for column in zip(*rows)]
        assert cls._from_columns(0, *columns) == []
        # a column may run longer than n
        assert cls._from_columns(1, *columns) == [cls(*rows[0])]
        for i in range(len(columns)):
            short = columns[:i] + [columns[i][:1]] + columns[i + 1:]
            with pytest.raises(ValueError, match="fewer than 2"):
                cls._from_columns(2, *short)
        # every field needs its column, a default one too
        with pytest.raises(TypeError):
            cls._from_columns(2, *columns[:-1])


def test_bulk_construction_skips_post_init():
    """Like _unchecked, _from_columns stores the columns as they come:
    no check and no conversion."""
    (C,) = HodgeChain._from_columns(1, [[1]], [[2]])
    assert C.ranks == [1]
    assert TripleType._from_columns(1, [0], [0], [1], [1])[0].n1 == 0


def test_wall_stabilized_defaults_to_false():
    assert Wall(F(3), ()).stabilized is False
    assert Wall(F(3), ()) == Wall(alpha=F(3), witnesses=(), stabilized=False)


class TestValidatedRecords:
    """TripleType, HiggsType and HodgeChain check their fields in
    __post_init__, which the record __init__ and so also
    dataclasses.replace still call."""

    @pytest.mark.parametrize(
        "rec, bad",
        [
            (T, {"n1": -1}),
            (T, {"n1": 0, "n2": 0}),
            (T, {"d1": 1.5}),
            (T, {"d2": True}),
            (H, {"p": 0}),
            (H, {"g": 1}),
            (H, {"a": F(1, 2)}),
            (HodgeChain((1, 1), (1, 0)), {"degrees": (1,)}),
            (HodgeChain((1, 1), (1, 0)), {"ranks": (), "degrees": ()}),
            (HodgeChain((1, 1), (1, 0)), {"ranks": (1, 0)}),
        ],
    )
    def test_bad_fields_raise_domain_error(self, rec, bad):
        cls = type(rec)
        with pytest.raises(DomainError):
            dataclasses.replace(rec, **bad)
        with pytest.raises(DomainError):
            cls(**dict(zip(names(cls), values(rec)), **bad))

    def test_hodge_chain_stores_tuples(self):
        C = HodgeChain([1, 2], iter([3, -1]))
        assert C.ranks == (1, 2) and C.degrees == (3, -1)
        assert type(C.ranks) is tuple and type(C.degrees) is tuple
        C = dataclasses.replace(C, ranks=[2, 2])
        assert type(C.ranks) is tuple and C == HodgeChain((2, 2), (3, -1))

    @pytest.mark.skipif(
        sys.version_info < (3, 13), reason="copy.replace is new in 3.13"
    )
    def test_copy_replace_still_validates(self):
        assert copy.replace(T, d2=0) == TripleType(2, 1, 4, 0)
        with pytest.raises(DomainError):
            copy.replace(T, n1=-1)
        with pytest.raises(DomainError):
            copy.replace(H, g=1)
        C = copy.replace(HodgeChain((1, 1), (1, 0)), ranks=[2, 2])
        assert type(C.ranks) is tuple and C == HodgeChain((2, 2), (1, 0))


def test_dataclasses_imported_after_the_records_sees_them():
    """Records are built without dataclasses; a process that imports it
    later still gets fields, replace, astuple and is_dataclass on every
    record class and instance, first reached from either, and
    FrozenInstanceError from setting or deleting any name."""
    out = fresh(
        textwrap.dedent(
            """\
            import sys
            from triplemoduli.morse import HodgeChain
            from triplemoduli.triples import TripleType
            from triplemoduli.walls import Wall, WallWitness
            recs = [
                TripleType(2, 1, 4, 1),
                Wall(3, (WallWitness(1, 0, 2),)),
                HodgeChain((1, 1), (1, 0)),
            ]
            assert "dataclasses" not in sys.modules
            refused = []
            for rec in recs:
                for name in (rec.__match_args__[0], "extra"):
                    for act in (setattr, delattr):
                        try:
                            act(rec, name, 1) if act is setattr else act(rec, name)
                        except Exception as exc:
                            refused.append(exc)
            import dataclasses
            assert len(refused) == 12, refused
            for exc in refused:
                assert type(exc) is dataclasses.FrozenInstanceError, exc
            for i, rec in enumerate(recs):
                cls = type(rec)
                # the twin fields are made on first access, from either
                for obj in (cls, rec) if i % 2 else (rec, cls):
                    assert dataclasses.is_dataclass(obj)
                    names = tuple(f.name for f in dataclasses.fields(obj))
                    assert names == cls.__match_args__
                vals = tuple(getattr(rec, n) for n in cls.__match_args__)
                assert dataclasses.astuple(cls(*vals)) == dataclasses.astuple(rec)
                assert dataclasses.replace(rec) == rec
                assert type(dataclasses.replace(rec)) is cls
            assert dataclasses.fields(Wall)[2].default is False
            assert dataclasses.astuple(recs[1]) == (3, ((1, 0, 2),), False)
            assert dataclasses.replace(recs[0], d2=0) == TripleType(2, 1, 4, 0)
            print("ok")
            """
        )
    )
    assert out == "ok\n"


def assert_matches_twin(out, last):
    """``out`` has the repr and astuple of its plain twin, and compares
    equal to the previous output exactly when the twins do."""
    twin = oracle_twin(out)
    assert repr(out) == repr(twin)
    assert dataclasses.astuple(out) == dataclasses.astuple(twin)
    if last is not None:
        assert (out == last[0]) == (twin == last[1])
    return out, twin


class TestLibraryOutputsAgainstPlainTwins:
    def test_classify_mw_relations_and_rigidity_on_the_census(self):
        """Every class of enumerate_region(p, q, g) for p, q <= 6 and
        g <= 4."""
        last = dict.fromkeys((classify, mw_relations, rigidity))
        equal = dict.fromkeys(last, 0)
        classes = 0
        for p, q, g in itertools.product(range(1, 7), range(1, 7), range(2, 5)):
            for cp in enumerate_region(p, q, g).points:
                H = HiggsType(p, q, cp.a, cp.b, g)
                for fn in last:
                    out = fn(H)
                    equal[fn] += last[fn] is not None and out == last[fn][0]
                    last[fn] = assert_matches_twin(out, last[fn])
                classes += 1
        assert classes == 9087
        # the equality check is not vacuous for rigidity (runs of
        # inapplicable reports compare equal)
        assert equal[rigidity] > 0

    def test_thresholds_on_ranks_up_to_6(self):
        last = None
        outputs = 0
        for n1, n2, d1, d2 in itertools.product(
            range(1, 7), range(1, 7), range(-9, 10), range(-9, 10)
        ):
            T = TripleType(n1, n2, d1, d2)
            if alpha_range(T).empty:
                continue
            last = assert_matches_twin(thresholds(T), last)
            outputs += 1
        assert outputs == 6638
