"""Records built by the private unchecked constructor.

errors.record gives the three records that check their fields in
__post_init__ (TripleType, HiggsType and HodgeChain) a private static
``_unchecked`` that stores the slots and skips __post_init__. The
library builds a record through it only where every field derives from
a record that was checked already: the minima triple of
higgs._minima_triple, triples.dual, the U(m, m) factor of
higgs.rigidity and the quotient type inside walls.flip_dims. These
tests check that such a record is the record the public constructor
gives, in ==, hash, repr, pickle and copy, over the census and triple
sweeps, and that the per-class census path runs no check at all.
"""

import copy
import inspect
import itertools
import pickle

import pytest

from triplemoduli.census import enumerate_region
from triplemoduli.errors import DomainError
from triplemoduli.higgs import (
    HiggsType,
    _minima_triple,
    _toledo_ints,
    minima_triple_type,
    mw_relations,
    rigidity,
)
from triplemoduli.morse import HodgeChain
from triplemoduli.triples import TripleType, dual, thresholds
from triplemoduli.walls import flip_dims

from test_records import RECORDS, values


def assert_same(derived, public):
    """derived, built unchecked, is public in every observable way."""
    assert type(derived) is type(public)
    assert derived == public and public == derived
    assert not derived != public
    assert hash(derived) == hash(public)
    assert repr(derived) == repr(public)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(derived, protocol)
        assert data == pickle.dumps(public, protocol)
        back = pickle.loads(data)
        assert type(back) is type(public) and back == public
    for dup in (copy.copy(derived), copy.deepcopy(derived)):
        assert type(dup) is type(public) and dup == public
        assert repr(dup) == repr(public)


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_only_the_checked_records_have_it(cls):
    checked = "__post_init__" in vars(cls)
    assert hasattr(cls, "_unchecked") is checked
    if checked:
        params = list(inspect.signature(cls._unchecked).parameters.values())
        init = list(inspect.signature(cls).parameters.values())
        assert [(p.name, p.kind, p.default) for p in params] == [
            (p.name, p.kind, p.default) for p in init
        ]
        assert cls._unchecked.__qualname__ == cls.__qualname__ + "._unchecked"


def test_it_skips_the_checks_the_class_makes():
    """Private for this reason: no DomainError, and no tuple conversion
    in HodgeChain. The public constructors still refuse."""
    assert TripleType._unchecked(0, 0, 1, 1).as_tuple == (0, 0, 1, 1)
    assert HiggsType._unchecked(0, 1, 0, 0, 1).p == 0
    assert HodgeChain._unchecked([1], [2]).ranks == [1]
    for cls, bad in [
        (TripleType, (0, 0, 1, 1)),
        (HiggsType, (0, 1, 0, 0, 1)),
        (HodgeChain, ([1], [2, 3])),
    ]:
        with pytest.raises(DomainError):
            cls(*bad)


def test_minima_triples_and_rigidity_factors_on_the_census():
    """Every class of enumerate_region(p, q, g) for p, q <= 6 and
    g <= 4, as in test_records."""
    classes = factors = 0
    for p, q, g in itertools.product(range(1, 7), range(1, 7), range(2, 5)):
        for cp in enumerate_region(p, q, g).points:
            H = HiggsType(p, q, cp.a, cp.b, g)
            _, triple = _minima_triple(H, _toledo_ints(H)[0])
            assert_same(triple, TripleType(*values(triple)))
            assert minima_triple_type(H).triple == triple
            assert mw_relations(H).triple == triple
            f1 = rigidity(H).factor1
            if f1 is not None:
                assert_same(f1, HiggsType(*values(f1)))
                factors += 1
            classes += 1
    assert classes == 9087
    assert factors > 100


def test_dual_on_the_triple_sweep():
    types = 0
    for n1, n2, d1, d2 in itertools.product(
        range(0, 7), range(0, 7), range(-9, 10, 2), range(-9, 10, 2)
    ):
        if n1 == n2 == 0:
            continue
        T = TripleType(n1, n2, d1, d2)
        D = dual(T)
        assert_same(D, TripleType(n2, n1, -d2, -d1))
        assert_same(dual(D), T)
        types += 1
    assert types == 48 * 100


def test_the_per_class_path_runs_no_check(monkeypatch):
    """Stubs refuse TripleType's and HiggsType's __post_init__: the
    census path that builds the minima triples and the rigidity
    factors, the dual in thresholds and the quotient type in flip_dims
    still run, on records made before."""
    Hs = [
        HiggsType(5, 3, cp.a, cp.b, 18)
        for cp in enumerate_region(5, 3, 18).points
    ]
    T = TripleType(2, 5, 3, -4)
    U, Tp = TripleType(3, 3, 5, -4), TripleType(1, 0, 2, 0)
    expected = flip_dims(U, Tp, 2)

    def refuse(self):
        raise AssertionError("ran %s.__post_init__" % type(self).__name__)

    for cls in (TripleType, HiggsType):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    # the stubs are live
    with pytest.raises(AssertionError, match="TripleType.__post_init__"):
        TripleType(2, 1, 4, 1)
    with pytest.raises(AssertionError, match="HiggsType.__post_init__"):
        HiggsType(2, 3, 1, 1, 2)
    saturated = 0
    for H in Hs:
        mw_relations(H)
        minima_triple_type(H)
        saturated += rigidity(H).applies
    assert saturated == 2
    assert thresholds(T).dualized
    assert flip_dims(U, Tp, 2) == expected
