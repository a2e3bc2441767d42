"""Byte-for-byte pins of CLI reports.

``tests/golden/cli.json`` records exit code, stdout and stderr of
``main(argv)`` for a fixed set of argvs covering every subcommand in
both output modes. Regenerate it, after an intended output change
only, with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import functools
import io
import json
import os

import pytest

from triplemoduli.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")

_T = ("--n1", "--n2", "--d1", "--d2")
_H = ("--p", "--q", "--a", "--b", "--g")


def _flags(names, values):
    return [x for pair in zip(names, map(str, values)) for x in pair]


ARGVS = [
    ["triple", *_flags(_T, (3, 2, 5, 2)), "--g", "2", "--alpha", "3/2"],
    ["triple", *_flags(_T, (1, 1, 1, 0)), "--g", "3"],
    ["triple", *_flags(_T, (1, 1, 0, 0)), "--g", "2"],
    ["triple", *_flags(_T, (1, 2, 0, 5))],
    ["walls", *_flags(_T, (2, 1, 4, 1)), "--alpha", "5/2"],
    ["walls", *_flags(_T, (2, 2, 3, 0)), "--g", "2",
     "--interval", "0", "5", "--include-endpoints"],
    ["chambers", *_flags(_T, (2, 1, 4, 1)), "--g", "2"],
    ["chambers", *_flags(_T, (2, 2, 3, 0)), "--g", "2"],
    ["chambers", *_flags(_T, (2, 2, 3, 0)), "--g", "2", "--cutoff", "7/2"],
    ["chambers", *_flags(_T, (1, 2, -1, -3)), "--g", "2"],
    ["higgs", *_flags(_H, (2, 2, 1, -1, 2))],
    ["higgs", *_flags(_H, (1, 2, 2, 1, 2))],
    ["higgs", *_flags(_H, (2, 1, 4, -3, 2))],
    ["higgs", *_flags(_H, (1, 1, 5, 0, 2))],
    ["rigidity", *_flags(_H, (1, 2, 2, 1, 2))],
    ["rigidity", *_flags(_H, (2, 2, 0, 0, 2))],
    ["morse", "--ranks", "1,1,1", "--degrees", "2,1,0", "--g", "2"],
    ["morse", "--ranks", "1,1,1", "--degrees=-4,-4,-2", "--g", "2"],
    ["census", "--p", "1", "--q", "2", "--g", "2"],
    ["census", "--p", "2", "--q", "4", "--g", "2", "--a", "3", "--b", "1"],
    ["census", "--p", "3", "--q", "2", "--g", "1"],
    ["classify", *_flags(_H, (1, 2, 2, 1, 2))],
    ["classify", *_flags(_H, (2, 3, 1, 1, 2))],
    ["classify", *_flags(_H, (2, 2, 2, -2, 2))],
    ["classify", *_flags(_H, (1, 1, 5, 0, 2))],
    ["classify", *_flags(_H, (1, 1, 1, 1, 2))],
    ["classify", *_flags(_H, (3, 3, 4, -1, 2))],
    ["classify", *_flags(_H, (2, 2, 1, -1, 2))],
    # empty blocks: an empty admissible range, and no witnesses
    ["walls", *_flags(_T, (2, 1, 0, 1))],
    ["walls", *_flags(_T, (3, 2, 7, -2)), "--alpha", "1/7"],
    # scans spanning many periods of the walls (alpha -> alpha + n1 + n2),
    # built by translating one period: both range endpoints, alpha_m = 30
    # and alpha_M = 120, dropped strictly inside the window; and
    # stabilized flags past alpha_L = 3 over about 40 periods
    ["walls", *_flags(_T, (2, 1, 20, -20)), "--interval", "0", "150"],
    ["chambers", *_flags(_T, (2, 2, 3, 0)), "--g", "2", "--cutoff", "160"],
]
CASES = [argv + mode for argv in ARGVS for mode in (["--json"], [])]


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@functools.cache
def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(rec["argv"]): rec for rec in json.load(fh)}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_matches_golden(argv):
    assert capture(argv) == _load()[tuple(argv)]


def test_golden_covers_exactly_the_cases():
    assert set(_load()) == {tuple(argv) for argv in CASES}


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump([capture(argv) for argv in CASES], fh, indent=1)
        fh.write("\n")
