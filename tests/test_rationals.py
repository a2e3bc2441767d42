"""Wire format for exact rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from triplemoduli.errors import DomainError
from triplemoduli.rationals import jsonable, parse_rat, rat_str


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
