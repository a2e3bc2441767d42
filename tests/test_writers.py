"""The CLI report writers against the three-step serializers they replace.

``write_json`` must emit exactly ``json.dumps(jsonable(tree), indent=2,
sort_keys=True)`` and ``write_text`` exactly the lines of
``oracle_render(jsonable(tree))``, on whole CLI reports and on random
report trees of every value kind a report can hold, blocks of every kind
included.
"""

import contextlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_render, oracle_report
from triplemoduli.cli import (
    _Block,
    _json_walls,
    _rows,
    _text_walls,
    main,
    write_json,
    write_text,
)
from triplemoduli.rationals import jsonable

_T = ("--n1", "--n2", "--d1", "--d2")


def _flags(names, values):
    return [x for pair in zip(names, map(str, values)) for x in pair]


ARGVS = [
    ["walls", *_flags(_T, (2, 1, 4, 1))],
    ["walls", *_flags(_T, (3, 2, 7, -2)), "--alpha", "5/2"],
    ["walls", *_flags(_T, (3, 2, 7, -2)), "--alpha", "1/7"],
    ["walls", *_flags(_T, (2, 2, 3, 0)), "--g", "3"],
    ["walls", *_flags(_T, (3, 3, 5, -4)), "--g", "2",
     "--interval", "-1", "17/2", "--include-endpoints"],
    ["walls", *_flags(_T, (2, 1, 4, 1)), "--interval", "3", "7/2"],
    ["chambers", *_flags(_T, (3, 2, 7, -2)), "--g", "3"],
    ["chambers", *_flags(_T, (2, 2, 3, 0)), "--g", "2", "--cutoff", "9/2"],
    ["census", "--p", "2", "--q", "3", "--g", "2"],
    ["census", "--p", "3", "--q", "3", "--g", "3", "--a", "-4", "--b", "2"],
    ["walls", *_flags(_T, (5, 3, 300, -300))],
    ["census", "--p", "5", "--q", "5", "--g", "7"],
    ["chambers", *_flags(_T, (5, 3, 300, -300)), "--g", "2"],
]


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_report_matches_the_three_step_oracle(argv, mode):
    assert stdout_of(argv + mode) == oracle_report(argv + mode)


def written(writer, tree):
    out = io.StringIO()
    writer(tree, out.write)
    return out.getvalue()


def unblocked(tree):
    """``tree`` with every block replaced by the list of its items'
    report forms, each built here from the item."""
    if isinstance(tree, _Block) and tree.json is _json_walls:
        return [
            {
                "alpha": F(num, den),
                "witnesses": [list(row) for row in rows],
                "stabilized": stabilized,
            }
            for num, den, rows, stabilized in tree
        ]
    if isinstance(tree, dict):
        return {k: unblocked(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        # a rows block lands here: each row is its own report form
        return [unblocked(v) for v in tree]
    return tree


_ints = st.integers(-(10**20), 10**20) | st.integers(-3, 3)
_scalars = (
    st.none()
    | st.booleans()
    | _ints
    | st.fractions(max_denominator=12)
    | st.text(max_size=6)
    | st.sampled_from(["", " x", "\t", "\x00\x1f", "caf\xe9", "☃ \U0001f600", "a\nb"])
)
# report tree keys are str: some that look like other values, some blank
_keys = st.text(max_size=4) | st.sampled_from(
    ["1", "-1", "True", "None", "1/2", " ", "", " k"]
)
# walls blocks as walls._wall_rows gives them: alpha in lowest terms
_walls = st.lists(
    st.tuples(
        st.fractions(max_denominator=6),
        st.lists(st.tuples(_ints, _ints, _ints), max_size=3),
        st.booleans(),
    ).map(lambda w: (w[0].numerator, w[0].denominator, w[1], w[2])),
    max_size=3,
).map(lambda items: _Block(items, _json_walls, _text_walls))
# equal-length int rows: as a rows block, or unmarked for the generic path
_int_rows = st.integers(1, 3).flatmap(
    lambda r: st.lists(
        st.lists(_ints, min_size=r, max_size=r).map(tuple)
        | st.lists(_ints, min_size=r, max_size=r),
        max_size=4,
    ).flatmap(lambda rows: st.sampled_from([rows, _rows(rows, r)]))
)
# a list item dict whose first key starts with whitespace loses it in text
_LEADING_SPACE = [{" k": 1, "j": [(1, 2)]}, ({"\t": {}},), [{}]]
_values = st.recursive(
    _scalars | _int_rows,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_keys, kids, max_size=4),
    max_leaves=20,
)
# report trees: walls blocks only as dict entries, where handlers put them
trees = st.recursive(
    _values,
    lambda kids: st.dictionaries(_keys, kids | _walls, max_size=4),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(trees)
@example(_LEADING_SPACE)
def test_json_writer_matches_json_dumps(tree):
    expected = json.dumps(jsonable(unblocked(tree)), indent=2, sort_keys=True)
    assert written(write_json, tree) == expected + "\n"


@settings(max_examples=400, deadline=None)
@given(trees)
@example(_LEADING_SPACE)
def test_text_writer_matches_the_renderer(tree):
    expected = "\n".join(oracle_render(jsonable(unblocked(tree))))
    assert written(write_text, tree) == expected + "\n"


@pytest.mark.parametrize("writer", [write_json, write_text])
def test_writers_refuse_what_jsonable_refuses(writer):
    with pytest.raises(TypeError):
        written(writer, {"x": [1.5]})
