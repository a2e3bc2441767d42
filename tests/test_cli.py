"""Command line behavior: exit codes, report envelopes, JSON stability."""

import argparse
import contextlib
import gc
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from triplemoduli import cli
from triplemoduli.cli import COMMANDS, _Block, _integer, build_parser, main

from oracles import oracle_parser

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def assert_no_floats(value):
    assert not isinstance(value, float), value
    if isinstance(value, list):
        for item in value:
            assert_no_floats(item)
    if isinstance(value, dict):
        for item in value.values():
            assert_no_floats(item)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(
            capsys, "walls", "--n1", "2", "--n2", "1", "--d1", "4", "--d2", "1"
        )
        assert code == 0
        assert "5/2" in out

    def test_domain_error_is_exit_one_and_names_the_precondition(
        self, capsys
    ):
        code, _, err = run(
            capsys, "chambers", "--n1", "2", "--n2", "1",
            "--d1", "0", "--d2", "5", "--g", "2",
        )
        assert code == 1
        assert "error:" in err
        assert "empty admissible range" in err

    def test_usage_error_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "walls", "--badflag")
        assert code == 2

    def test_missing_required_flag_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "walls", "--n1", "2")
        assert code == 2

    def test_malformed_rational_is_exit_two(self, capsys):
        code, _, _ = run(
            capsys, "walls", "--n1", "2", "--n2", "1", "--d1", "4",
            "--d2", "1", "--alpha", "2.5",
        )
        assert code == 2

    # int() takes all but the last; the wire format is ASCII -?[0-9]+,
    # the numerator of a rational
    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+3", "3.0"])
    def test_malformed_integer_is_exit_two(self, capsys, value):
        code, out, err = run(
            capsys, "triple", "--n1", value, "--n2", "1", "--d1", "4",
            "--d2", "1",
        )
        assert (code, out) == (2, "")
        assert "argument --n1: expected an integer" in err
        code, out, err = run(
            capsys, "morse", "--ranks", "1," + value, "--degrees", "1,0",
            "--g", "2",
        )
        assert (code, out) == (2, "")
        assert "argument --ranks: expected an integer" in err

    def test_unknown_command_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_help_is_exit_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    @pytest.mark.parametrize("ranks", [("1", "0"), ("0", "1")])
    def test_zero_rank_is_exit_one(self, capsys, ranks):
        code, _, err = run(
            capsys, "triple", "--n1", ranks[0], "--n2", ranks[1],
            "--d1", "1", "--d2", "1",
        )
        assert code == 1
        assert "ranks >= 1" in err

    # walls checks a given genus also where its window does not use it:
    # with n1 != n2, and with an explicit interval
    @pytest.mark.parametrize("argv", [
        ("classify", "--p", "1", "--q", "1", "--a", "0", "--b", "0"),
        ("walls", "--n1", "2", "--n2", "1", "--d1", "4", "--d2", "1"),
        ("walls", "--n1", "1", "--n2", "1", "--d1", "1", "--d2", "0",
         "--interval", "0", "3"),
    ], ids=["classify", "walls", "walls-interval"])
    def test_bad_genus_is_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--g", "1")
        assert (code, out) == (1, "")
        assert "genus must be an integer >= 2" in err


    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_reader_closing_the_pipe_is_exit_one_without_a_traceback(
        self, mode
    ):
        # The report (about 0.5 MB as text, 1.2 MB as JSON) outgrows any
        # pipe buffer, so the writer is mid-report when the pipe closes.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        argv = [
            sys.executable, "-m", "triplemoduli.cli", "walls", "--n1", "5",
            "--n2", "3", "--d1", "310", "--d2", "-310", *mode,
        ]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert head.startswith(b"{" if mode else b"command: walls")
        assert (code, err) == (1, b"")


class TestEnvelope:
    def test_keys_and_echoed_inputs(self, capsys):
        rep = run_json(
            capsys, "walls", "--n1", "2", "--n2", "1", "--d1", "4",
            "--d2", "1",
        )
        assert sorted(rep) == [
            "citations", "command", "inputs", "outputs", "warnings",
        ]
        assert rep["command"] == "walls"
        assert rep["inputs"] == {"n1": 2, "n2": 1, "d1": 4, "d2": 1}

    def test_json_output_is_byte_stable(self, capsys):
        args = (
            "classify", "--p", "2", "--q", "3", "--a", "1", "--b", "1",
            "--g", "2", "--json",
        )
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("triple", "--n1", "3", "--n2", "2", "--d1", "5", "--d2", "2",
             "--g", "2", "--alpha", "3/2"),
            ("walls", "--n1", "2", "--n2", "1", "--d1", "4", "--d2", "1",
             "--alpha", "5/2"),
            ("chambers", "--n1", "2", "--n2", "1", "--d1", "4", "--d2", "1",
             "--g", "2"),
            ("higgs", "--p", "1", "--q", "2", "--a", "2", "--b", "1",
             "--g", "2"),
            ("rigidity", "--p", "1", "--q", "2", "--a", "2", "--b", "1",
             "--g", "2"),
            ("morse", "--ranks", "1,1,1", "--degrees", "2,1,0", "--g", "2"),
            ("census", "--p", "2", "--q", "4", "--g", "2", "--a", "3",
             "--b", "1"),
            ("classify", "--p", "1", "--q", "2", "--a", "2", "--b", "1",
             "--g", "2"),
        ],
    )
    def test_reports_never_contain_floats(self, capsys, argv):
        rep = run_json(capsys, *argv)
        assert_no_floats(rep)


class TestTripleCommand:
    def test_threshold_block(self, capsys):
        rep = run_json(
            capsys, "triple", "--n1", "3", "--n2", "2", "--d1", "5",
            "--d2", "2",
        )
        th = rep["outputs"]["thresholds"]
        assert th["alpha_m"] == "2/3"
        assert th["alpha_M"] == 4
        assert th["alpha_t"] == "3/2"

    def test_equal_ranks_report_infinite_top(self, capsys):
        rep = run_json(
            capsys, "triple", "--n1", "1", "--n2", "1", "--d1", "1",
            "--d2", "0",
        )
        assert rep["outputs"]["alpha_range"]["hi"] == "inf"
        assert rep["outputs"]["thresholds"]["alpha_M"] == "inf"

    def test_inverted_slopes_warn_instead_of_failing(self, capsys):
        rep = run_json(
            capsys, "triple", "--n1", "1", "--n2", "2", "--d1", "0",
            "--d2", "5",
        )
        assert rep["outputs"]["thresholds"] is None
        assert rep["outputs"]["alpha_range"]["empty"] is True
        assert any("thresholds omitted" in w for w in rep["warnings"])

    def test_dimension_with_genus(self, capsys):
        rep = run_json(
            capsys, "triple", "--n1", "2", "--n2", "1", "--d1", "4",
            "--d2", "1", "--g", "2",
        )
        assert rep["outputs"]["dim_stable_moduli"] == 6
        assert rep["outputs"]["fibration"]["fiber_dim"] == 3


class TestWallsCommand:
    def test_frozen_wall_set(self, capsys):
        rep = run_json(
            capsys, "walls", "--n1", "2", "--n2", "1", "--d1", "4",
            "--d2", "1",
        )
        assert rep["outputs"]["count"] == 1
        wall = rep["outputs"]["walls"][0]
        assert wall["alpha"] == "5/2"
        assert wall["witnesses"] == [[0, 1, 0], [2, 0, 5]]

    def test_interval_and_criticality_probe(self, capsys):
        rep = run_json(
            capsys, "walls", "--n1", "1", "--n2", "1", "--d1", "1",
            "--d2", "0", "--interval", "1", "5", "--alpha", "3",
        )
        assert [w["alpha"] for w in rep["outputs"]["walls"]] == [3, 5]
        assert rep["outputs"]["alpha_test"]["critical"] is True

    def test_equal_ranks_without_window_fail_cleanly(self, capsys):
        code, _, err = run(
            capsys, "walls", "--n1", "1", "--n2", "1", "--d1", "1",
            "--d2", "0",
        )
        assert code == 1
        assert "unbounded" in err

    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
    def test_a_large_request_builds_no_wall_objects(
        self, capsys, monkeypatch, mode
    ):
        from triplemoduli import walls

        def refuse(*args):
            raise AssertionError("built a wall object")

        made = []

        def counted(*args):
            made.append(args)
            return F(*args)

        monkeypatch.setattr(walls, "Wall", refuse)
        monkeypatch.setattr(walls, "WallWitness", refuse)
        monkeypatch.setattr(walls, "Fraction", counted)
        code, out, err = run(
            capsys, "walls", "--n1", "5", "--n2", "3", "--d1", "310",
            "--d2", "-310", "--interval", "-1", "2000", *mode,
        )
        assert code == 0, err
        assert out.count("alpha") > 10000
        # the two window edges, none per wall
        assert len(made) == 2


class TestChambersCommand:
    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
    def test_a_large_request_wires_no_chamber(self, capsys, monkeypatch, mode):
        from triplemoduli import cli
        from triplemoduli.walls import Chamber

        wire = cli._wire

        def refuse_chambers(obj, drop=()):
            assert not isinstance(obj, Chamber), "wired a Chamber"
            return wire(obj, drop)

        monkeypatch.setattr(cli, "_wire", refuse_chambers)
        code, out, err = run(
            capsys, "chambers", "--n1", "5", "--n2", "3", "--d1", "310",
            "--d2", "-310", "--g", "2", *mode,
        )
        assert code == 0, err
        assert out.count("is_large_chamber") > 3000

    def test_frozen_decomposition(self, capsys):
        rep = run_json(
            capsys, "chambers", "--n1", "2", "--n2", "1", "--d1", "4",
            "--d2", "1", "--g", "2",
        )
        out = rep["outputs"]
        assert out["count"] == 2
        assert out["chambers"][0]["lo"] == 1
        assert out["chambers"][0]["hi"] == "5/2"
        assert out["flips_to_large"] == 1

    def test_marker_on_the_range_end_warns(self, capsys):
        rep = run_json(
            capsys, "chambers", "--n1", "2", "--n2", "1", "--d1", "3",
            "--d2", "1", "--g", "2",
        )
        assert rep["outputs"]["marker_status"] == "at_alpha_M"
        assert any("alpha_M" in w for w in rep["warnings"])

    def test_an_unused_cutoff_warns(self, capsys):
        # for n1 != n2 the range ends at alpha_M = 4, whatever the cutoff
        argv = (
            "chambers", "--n1", "2", "--n2", "1", "--d1", "4", "--d2", "1",
            "--g", "2",
        )
        plain = run_json(capsys, *argv)
        rep = run_json(capsys, *argv, "--cutoff", "99")
        assert rep["inputs"]["cutoff"] == 99
        assert rep["outputs"] == plain["outputs"] and plain["warnings"] == []
        assert rep["warnings"] == [
            "--cutoff is not used when n1 != n2: the range ends at alpha_M = 4"
        ]
        # for n1 = n2 the cutoff ends the window, and nothing warns
        rep = run_json(
            capsys, "chambers", "--n1", "2", "--n2", "2", "--d1", "3",
            "--d2", "0", "--g", "2", "--cutoff", "9",
        )
        assert rep["outputs"]["top"] == 9 and rep["warnings"] == []


class TestHiggsCommand:
    def test_saturated_report(self, capsys):
        rep = run_json(
            capsys, "higgs", "--p", "1", "--q", "2", "--a", "2", "--b", "1",
            "--g", "2",
        )
        out = rep["outputs"]
        assert out["toledo"]["tau"] == 2
        assert out["toledo"]["saturated"] is True
        assert out["minima"]["triple"] == {"n1": 2, "n2": 1, "d1": 5, "d2": 2}
        assert out["range_placement"]["facts"][
            "two_g_minus_2_ge_alpha_m"
        ] is True


class TestRigidityCommand:
    def test_erratum_warning_travels_on_the_report(self, capsys):
        rep = run_json(
            capsys, "rigidity", "--p", "1", "--q", "2", "--a", "2",
            "--b", "1", "--g", "2",
        )
        assert rep["outputs"]["dim_sum"] == 7
        assert any("erratum" in w for w in rep["warnings"])

    def test_non_applicable_case_reports_reason(self, capsys):
        rep = run_json(
            capsys, "rigidity", "--p", "2", "--q", "2", "--a", "1",
            "--b", "0", "--g", "2",
        )
        assert rep["outputs"]["applies"] is False
        assert rep["outputs"]["reason"] == "requires p != q"


class TestMorseCommand:
    def test_negative_index_raises_advisory(self, capsys):
        rep = run_json(
            capsys, "morse", "--ranks", "1,1,1", "--degrees", "0,1,2",
            "--g", "2",
        )
        assert rep["outputs"]["index"] == -1
        assert any("not realizable" in w for w in rep["warnings"])

    def test_frozen_profile(self, capsys):
        rep = run_json(
            capsys, "morse", "--ranks", "1,1,1", "--degrees", "2,1,0",
            "--g", "2",
        )
        assert rep["outputs"]["index"] == 3
        top = [u for u in rep["outputs"]["uk"] if u["k"] == 2]
        assert top == [{"k": 2, "rank": 1, "degree": -2}]

    def test_ragged_chain_is_exit_one(self, capsys):
        code, _, err = run(
            capsys, "morse", "--ranks", "1,1", "--degrees", "1", "--g", "2"
        )
        assert code == 1
        assert "equal length" in err


class TestCensusCommand:
    def test_frozen_census(self, capsys):
        rep = run_json(capsys, "census", "--p", "1", "--q", "1", "--g", "2")
        assert rep["outputs"]["count"] == 5
        assert rep["outputs"]["points_per_line"] == 1
        assert rep["outputs"]["quotient"]["image_lattice_step"] == 1

    def test_canonicalize_probe(self, capsys):
        rep = run_json(
            capsys, "census", "--p", "1", "--q", "1", "--g", "2",
            "--a", "3", "--b", "1",
        )
        assert rep["outputs"]["canonical"] == [0, -2]

    def test_half_given_pair_is_exit_one(self, capsys):
        code, _, err = run(
            capsys, "census", "--p", "1", "--q", "1", "--g", "2", "--a", "3"
        )
        assert code == 1
        assert "--a and --b" in err


class TestClassifyCommand:
    def test_citations_accompany_every_definite_verdict(self, capsys):
        rep = run_json(
            capsys, "classify", "--p", "2", "--q", "3", "--a", "1",
            "--b", "1", "--g", "2",
        )
        out = rep["outputs"]
        assert out["stable_smooth_dim"] == 26
        assert out["case"] == "interior-toledo"
        for field in (
            "stable_nonempty",
            "full_space_nonempty",
            "full_space_connected",
        ):
            assert out[field] == "yes"
            assert field in rep["citations"]

    def test_rigid_verdict_embeds_the_decomposition(self, capsys):
        rep = run_json(
            capsys, "classify", "--p", "1", "--q", "2", "--a", "2",
            "--b", "1", "--g", "2",
        )
        out = rep["outputs"]
        assert out["rigid"] is True
        assert out["rigidity_data"]["dim_sum"] == 7
        assert out["stable_nonempty"] == "no"
        assert out["full_space_connected"] == "yes"


class TestNegativeRationals:
    """A negative rational -N/D is a value, not a flag, as a separate
    token too: the only spelling of the two-valued --interval. So is an
    integer list that starts with a negative entry."""

    TRIPLE = ("--n1", "2", "--n2", "1", "--d1", "4", "--d2", "1")

    def test_every_subparser_widens_argparse_negative_number_pattern(self):
        # The pattern is a private argparse attribute: an interpreter
        # whose argparse no longer has it must fail here, not quietly.
        assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
        for sp in SUBCOMMANDS.values():
            assert sp._negative_number_matcher.match("-1/2")
            assert sp._negative_number_matcher.match("-1,0")

    def test_separate_token_matches_equals_spelling(self, capsys):
        for mode in ((), ("--json",)):
            spaced = run(capsys, "triple", *self.TRIPLE, "--alpha", "-1/2",
                         *mode)
            joined = run(capsys, "triple", *self.TRIPLE, "--alpha=-1/2",
                         *mode)
            assert spaced == joined
            assert spaced[0] == 0

    def test_negative_list_as_a_separate_token(self, capsys):
        ranks = ("morse", "--ranks", "1,1")
        for mode in ((), ("--json",)):
            spaced = run(capsys, *ranks, "--degrees", "-1,0", "--g", "2",
                         *mode)
            joined = run(capsys, *ranks, "--degrees=-1,0", "--g", "2",
                         *mode)
            assert spaced == joined
            assert spaced[0] == 0

    def test_two_valued_interval(self, capsys):
        code, out, err = run(
            capsys, "walls", *self.TRIPLE, "--interval", "-1/2", "3"
        )
        assert code == 0, err
        assert "interval: [-1/2, 3]" in out

    def test_negative_cutoff_is_a_value(self, capsys):
        code, _, err = run(
            capsys, "chambers", "--n1", "2", "--n2", "2", "--d1", "3",
            "--d2", "0", "--g", "2", "--cutoff", "-1/2",
        )
        assert code == 1
        assert "cutoff must exceed" in err

    @pytest.mark.parametrize("value", ["-1/2x", "-1.5"])
    def test_malformed_negative_is_still_exit_two(self, capsys, value):
        code, _, _ = run(capsys, "triple", *self.TRIPLE, "--alpha", value)
        assert code == 2


def _unmarked_row_lists(value):
    """The lists and tuples in ``value`` that hold equal-length rows of
    ints but are not blocks. A block's items are not searched: its own
    renderer writes them."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _unmarked_row_lists(item)
    elif isinstance(value, (list, tuple)) and not isinstance(value, _Block):
        if value and all(
            isinstance(row, (list, tuple)) and row
            and len(row) == len(value[0])
            and all(type(x) is int for x in row)
            for row in value
        ):
            yield value
        for item in value:
            yield from _unmarked_row_lists(item)


def _off_contract(value, in_list=False):
    """The dict keys that are not str, and the blocks reached through a
    list or tuple item, in ``value``: what the writers' report tree
    contract rules out."""
    if isinstance(value, _Block) and in_list:
        yield value
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                yield key
            yield from _off_contract(item, in_list)
    elif isinstance(value, (list, tuple)) and not isinstance(value, _Block):
        for item in value:
            yield from _off_contract(item, True)


def test_every_list_of_int_rows_in_a_golden_report_is_a_block():
    # the handlers mark their bulk lists by hand; a list of int rows that
    # is not a block would be written item by item. The writers take
    # report trees only, so every handler's outputs and citations must
    # be one: str keys, and no block inside a list or tuple.
    with open(GOLDEN, encoding="utf-8") as fh:
        records = json.load(fh)
    blocks = 0
    for rec in records:
        if rec["exit"] != 0:
            continue
        args = build_parser().parse_args(rec["argv"])
        outputs, citations, _ = args.handler(args)
        assert list(_unmarked_row_lists(outputs)) == [], rec["argv"]
        off = [*_off_contract(outputs), *_off_contract(citations)]
        assert off == [], rec["argv"]
        blocks += sum(isinstance(v, _Block) for v in outputs.values())
    # the walls and census goldens mark 12 top-level lists
    assert blocks >= 12


TRIPLE = ["--n1", "2", "--n2", "1", "--d1", "4", "--d2", "1"]
# help and usage errors, which argparse prints, and the negative-token
# spellings, which parse
PARSER_ARGVS = [
    ["-h"],
    [],
    ["nosuch"],
    ["--bogus", "census"],
    *([name, "-h"] for name in COMMANDS),
    ["census", "--p", "1", "--g", "2"],
    ["triple", *TRIPLE, "--bogus"],
    ["triple", "--n1", "x", *TRIPLE[2:]],
    ["triple", *TRIPLE, "--alpha", "1.5"],
    ["walls", *TRIPLE, "--interval", "-1/2", "3"],
    ["morse", "--ranks", "1,1", "--degrees", "-1,0", "--g", "2"],
]


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subactions = [
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        ]
        names = set(subactions[0].choices)
        assert names == {
            "triple", "walls", "chambers", "higgs", "rigidity",
            "morse", "census", "classify",
        }

    @pytest.mark.parametrize(
        "argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)"
    )
    def test_the_table_parses_as_the_hand_built_parser(
        self, monkeypatch, capsys, argv
    ):
        """main, which builds only the row argv[0] names when it names
        one, exits and prints as it does with the full table parser and
        with the hand-built oracle parser. This stands in for help
        goldens, whose text argparse changes between Python versions."""
        seen = [run(capsys, *argv)]
        for parser in (build_parser, oracle_parser):
            monkeypatch.setattr(cli, "build_parser", lambda _, p=parser: p())
            seen.append(run(capsys, *argv))
        assert seen[0] == seen[1] == seen[2]

    def test_a_request_builds_only_its_subparser(self, monkeypatch, capsys):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        code, _, err = run(capsys, "census", "--p", "1", "--q", "1", "--g", "2")
        assert code == 0, err
        assert added == ["census"]


SUBCOMMANDS = next(a for a in build_parser()._actions if a.choices).choices
_small = (st.integers(1, 20) | st.integers(-20, 20)).map(str)
_list = st.lists(_small, min_size=1, max_size=3).map(",".join)
_rational = st.one_of(
    _small, st.tuples(_small, st.integers(1, 20).map(str)).map("/".join)
)


def _value(action):
    if action.type is _integer:
        return _small
    return _list if action.dest in ("ranks", "degrees") else _rational


@st.composite
def argvs(draw):
    """A subcommand with most of its flags, each given as many values of
    its kind as it takes (small integers, integer lists or rationals),
    and now and then stray tokens."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if "--help" in action.option_strings:
            continue
        if draw(st.sampled_from(range(16))) == 0:
            continue
        flag = action.option_strings[0]
        if action.nargs is None:
            # either spelling: a value such as -1,2 is no flag in both
            value = draw(_value(action))
            if draw(st.booleans()):
                argv.append("%s=%s" % (flag, value))
            else:
                argv += [flag, value]
        else:
            n = action.nargs
            argv += [flag] + draw(st.lists(_value(action), min_size=n, max_size=n))
    if draw(st.sampled_from(range(8))) == 0:
        argv += draw(st.lists(st.one_of(_small, _list, _rational), max_size=2))
    return argv


class _Cut(BaseException):
    """Raised by the timer that stops a request past its time budget."""


def _cut(signum, frame):
    raise _Cut


@pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs an interval timer"
)
@settings(max_examples=300, deadline=None)
@given(argvs())
def test_every_argv_exits_zero_one_or_two(argv):
    # The CLI does not bound its work yet (walls over an interval of
    # width 10^8 run unbounded), so a request still running after a
    # quarter second is stopped and discarded rather than waited for.
    # Garbage collection is off meanwhile: a _Cut raised inside a gc
    # callback (hypothesis installs one) is swallowed as unraisable and
    # the request would run on.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = signal.signal(signal.SIGALRM, _cut)
    signal.setitimer(signal.ITIMER_REAL, 0.25)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except _Cut:
        reject()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if gc_was_enabled:
            gc.enable()
    assert code in (0, 1, 2)
