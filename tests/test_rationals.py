"""Wire format for exact rationals, and the library's own constructor
``_ratio``: the same Fraction as ``Fraction(n, d)``, and every rational
the library returns in lowest terms."""

import copy
import itertools
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from triplemoduli.classify import classify
from triplemoduli.errors import DomainError
from triplemoduli.higgs import HiggsType, mw_relations, toledo
from triplemoduli.rationals import _ratio, jsonable, parse_rat, rat_str
from triplemoduli.triples import TripleType, alpha_range, thresholds
from triplemoduli.walls import chambers, enumerate_walls, flip_dims


def test_rat_str_integers_have_no_slash():
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-3)) == "-3"
    assert rat_str(Fraction(10, 2)) == "5"


def test_rat_str_proper_fractions():
    assert rat_str(Fraction(5, 2)) == "5/2"
    assert rat_str(Fraction(-1, 3)) == "-1/3"


def test_rat_str_takes_ints():
    assert rat_str(5) == "5"
    assert rat_str(-12) == "-12"


@pytest.mark.parametrize(
    "bad, kind", [(0.1, "float"), ("1/3", "str"), (True, "bool")]
)
def test_rat_str_refuses_non_rationals(bad, kind):
    # Fraction() would take 0.1 as 3602879701896397/36028797018963968
    # and pass "1/3" through unparsed
    with pytest.raises(DomainError, match="not %s$" % kind):
        rat_str(bad)


def test_parse_rat_accepts_wire_forms():
    assert parse_rat("5/2") == Fraction(5, 2)
    assert parse_rat("-7") == Fraction(-7)
    assert parse_rat(" 3/9 ") == Fraction(1, 3)


@pytest.mark.parametrize(
    "bad",
    ["2.5", "1e3", "", "a/b", "1/2/3", "nan", "1_000", "\u0663", "1/ 2", "-1/-2"],
)
def test_parse_rat_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


@given(st.fractions())
def test_parse_round_trips_rat_str(x):
    assert parse_rat(rat_str(x)) == x


def test_jsonable_scalars():
    assert jsonable(Fraction(4, 2)) == 2
    assert jsonable(Fraction(5, 2)) == "5/2"
    assert jsonable(True) is True
    assert jsonable(None) is None
    assert jsonable(7) == 7


def test_jsonable_recurses_and_stringifies_keys():
    out = jsonable({3: [Fraction(1, 2), (1, Fraction(4))]})
    assert out == {"3": ["1/2", [1, 4]]}


@given(st.fractions())
def test_jsonable_never_produces_floats(x):
    wired = jsonable([x, {1: x}])

    def scan(v):
        assert not isinstance(v, float)
        if isinstance(v, list):
            for item in v:
                scan(item)
        if isinstance(v, dict):
            for item in v.values():
                scan(item)

    scan(wired)


# any int, with values past 64 bits drawn on purpose
INTS = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
DENOMINATORS = st.integers(1, 2**70) | st.integers(2**64, 2**200)
OPERATORS = [
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.floordiv, operator.mod, operator.eq, operator.ne,
    operator.lt, operator.le, operator.gt, operator.ge,
]


@given(INTS, DENOMINATORS, st.integers(), st.fractions())
@example(0, 1, 0, Fraction(1))
@example(0, 7, 3, Fraction(-1, 2))
@example(-12345, 1260, -1, Fraction(5, 3))
@example(2**64 * 3, 2**64 + 1, 2**65, Fraction(2**70, 3))
@example(-(2**100), 2**90, 1, Fraction(-1, 2**80))
def test_ratio_is_the_fraction(n, d, k, x):
    """_ratio writes Fraction's private slots itself; the same value as
    Fraction(n, d) in every way a caller can see, on every version."""
    r, f = _ratio(n, d), Fraction(n, d)
    assert type(r) is Fraction
    assert (r.numerator, r.denominator) == (f.numerator, f.denominator)
    assert type(r.numerator) is int and type(r.denominator) is int
    assert r == f and f == r and not r != f
    assert hash(r) == hash(f)
    assert repr(r) == repr(f) and str(r) == str(f)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(r, protocol)
        assert data == pickle.dumps(f, protocol)
        back = pickle.loads(data)
        assert type(back) is Fraction and back == f
    for dup in (copy.copy(r), copy.deepcopy(r)):
        assert type(dup) is Fraction and dup == f and hash(dup) == hash(f)
    for other in (k, x):
        for op in OPERATORS:
            for args, want_args in (((r, other), (f, other)), ((other, r), (other, f))):
                try:
                    want = op(*want_args)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(*args)
                    continue
                got = op(*args)
                assert type(got) is type(want) and got == want
    assert -r == -f and abs(r) == abs(f) and r ** 2 == f ** 2
    assert int(r) == int(f) and math.floor(r) == math.floor(f)
    assert round(r) == round(f) and float(r) == float(f)


def fractions_in(value):
    """Every Fraction inside a result: records, tuples, lists and dict
    values, walked down."""
    if isinstance(value, Fraction):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from fractions_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from fractions_in(item)
    elif hasattr(value, "__match_args__"):
        for name in value.__match_args__:
            yield from fractions_in(getattr(value, name))


def small_types():
    for n1, n2 in itertools.product(range(1, 4), repeat=2):
        for d1, d2 in itertools.product(range(-3, 4), repeat=2):
            yield TripleType(n1, n2, d1, d2)


def test_returned_rationals_are_in_lowest_terms():
    """A Fraction built from a negative denominator (or one not reduced)
    compares unequal to its value: every rational the library returns
    has denominator > 0 and gcd(numerator, denominator) = 1."""
    results = {}

    def keep(name, call, *args):
        try:
            out = call(*args)
        except DomainError:
            return
        results.setdefault(name, []).append(out)

    for T in small_types():
        keep("alpha_range", alpha_range, T)
        keep("thresholds", thresholds, T)
        keep("enumerate_walls", enumerate_walls, T, None, True, 2)
        keep("chambers", chambers, T, 2)
        for n1p, n2p in itertools.product(range(T.n1 + 1), range(T.n2 + 1)):
            if (n1p, n2p) in ((0, 0), (T.n1, T.n2)):
                continue
            for d1p, d2p in itertools.product(range(-2, 3), repeat=2):
                Tp = TripleType(n1p, n2p, d1p, d2p)
                keep("flip_dims", flip_dims, T, Tp, 2)
    for p, q in itertools.product(range(1, 4), repeat=2):
        for a, b in itertools.product(range(-5, 6), repeat=2):
            H = HiggsType(p, q, a, b, 2)
            keep("toledo", toledo, H)
            keep("mw_relations", mw_relations, H)
            keep("classify", classify, H)
    seen = 0
    for name, outs in sorted(results.items()):
        found = [f for out in outs for f in fractions_in(out)]
        # the sweep reaches every function, with rationals other than
        # integers among their values
        assert any(f.denominator > 1 for f in found), name
        for f in found:
            assert f.denominator > 0, (name, f)
            assert math.gcd(f.numerator, f.denominator) == 1, (name, f)
        seen += len(found)
    assert len(results) == 8 and seen > 10_000
