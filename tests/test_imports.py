"""Deferred imports: what a fresh interpreter loads, and what the package
names resolve to, in every import order.

Each case runs in its own interpreter, because a module that any earlier
test imported stays loaded for the rest of the session.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
MATH = ("census", "classify", "higgs", "morse", "triples", "walls")

# Prints the math modules loaded so far, as a sorted JSON list.
LOADED = (
    "import json, sys; print(json.dumps(sorted(m for m in %r "
    "if 'triplemoduli.' + m in sys.modules)))" % (MATH,)
)


def fresh(code: str, *flags: str) -> str:
    """stdout of ``python *flags -c code`` in a new interpreter."""
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> list:
    return json.loads(fresh(code + "\n" + LOADED).splitlines()[-1])


def run_main(argv: str, code: int) -> str:
    """Source that runs ``main(argv.split())`` quietly and checks its exit
    code."""
    return (
        "import contextlib, io\n"
        "from triplemoduli.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(%r)\n"
        "assert code == %d, code\n" % (argv.split(), code)
    )


# One successful request per subcommand, and the math modules it loads.
REQUESTS = {
    "triple": ("triple --n1 2 --n2 1 --d1 4 --d2 1 --g 2", ["triples"]),
    "walls": ("walls --n1 2 --n2 1 --d1 4 --d2 1", ["triples", "walls"]),
    "chambers": (
        "chambers --n1 2 --n2 1 --d1 4 --d2 1 --g 2",
        ["triples", "walls"],
    ),
    "higgs": ("higgs --p 2 --q 3 --a 1 --b 1 --g 2", ["higgs", "triples"]),
    "rigidity": (
        "rigidity --p 1 --q 2 --a 1 --b 0 --g 2",
        ["higgs", "triples"],
    ),
    "morse": ("morse --ranks 1,1 --degrees 1,0 --g 2", ["morse"]),
    "census": ("census --p 1 --q 1 --g 2", ["census"]),
    "classify": (
        "classify --p 2 --q 3 --a 1 --b 1 --g 2",
        ["classify", "higgs", "triples"],
    ),
}
MODES = {"text": "", "json": " --json"}
# Source that imports the CLI, or runs each request above in each mode,
# or a usage error.
CODES = {
    "import": "import triplemoduli.cli",
    **{
        "%s-%s" % (name, mode): run_main(argv + flag, 0)
        for name, (argv, _) in REQUESTS.items()
        for mode, flag in MODES.items()
    },
    "usage-malformed": run_main("walls --n1 2 --n2 1 --d1 4 --d2 1/0", 2),
    "usage-missing": run_main("census --p 1 --json", 2),
}


class TestImportSet:
    def test_importing_the_package_or_the_cli_loads_no_math_module(self):
        assert loaded_after("import triplemoduli") == []
        assert loaded_after("import triplemoduli.cli") == []

    @pytest.mark.parametrize(
        "argv, code, modules",
        [(argv, 0, modules) for argv, modules in REQUESTS.values()]
        + [
            ("walls --n1 2 --n2 1 --d1 4 --d2 1/0", 2, []),
            ("census --p 1", 2, []),
        ],
        ids=[*REQUESTS, "usage-malformed", "usage-missing"],
    )
    @pytest.mark.parametrize("mode", MODES.values(), ids=MODES)
    def test_a_request_loads_only_the_modules_its_subcommand_uses(
        self, argv, code, modules, mode
    ):
        assert loaded_after(run_main(argv + mode, code)) == modules

    @pytest.mark.parametrize("code", CODES.values(), ids=CODES)
    def test_no_request_loads_dataclasses_inspect_ast_or_dis(self, code):
        # records are built without dataclasses (errors.record); only
        # callers of dataclasses.fields, replace and the like load it
        out = fresh(
            code + "\nimport sys\n"
            "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis') "
            "if m in sys.modules])"
        )
        assert out.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("code", CODES.values(), ids=CODES)
    def test_no_request_loads_typing(self, code):
        # -S, since site start-up may import typing itself; annotations
        # are strings, and the package spells them without typing
        out = fresh(code + "\nimport sys\nprint('typing' in sys.modules)", "-S")
        assert out.splitlines()[-1] == "False"


class TestPackageNames:
    @pytest.mark.parametrize(
        "first",
        [
            "import triplemoduli.classify",
            "from triplemoduli.classify import Verdict",
            "from triplemoduli import classify",
        ],
    )
    def test_classify_is_the_function_in_every_import_order(self, first):
        out = fresh(
            first + "\n"
            "import sys, triplemoduli.classify\n"
            "from triplemoduli import classify\n"
            "function = sys.modules['triplemoduli.classify'].classify\n"
            "assert classify is function, classify\n"
            "assert sys.modules['triplemoduli'].classify is function\n"
            "print('ok')\n"
        )
        assert out == "ok\n"

    def test_a_submodule_name_imports_the_submodule(self):
        out = fresh(
            "import sys, triplemoduli\n"
            "assert 'triplemoduli.walls' not in sys.modules\n"
            "assert triplemoduli.walls is sys.modules['triplemoduli.walls']\n"
            "assert triplemoduli.walls.Wall is triplemoduli.Wall\n"
            "assert not hasattr(triplemoduli, 'no_such_name')\n"
            "print('ok')\n"
        )
        assert out == "ok\n"

    def test_star_import_binds_exactly_all(self):
        out = fresh(
            "import sys, triplemoduli\n"
            "ns = {}\n"
            "exec('from triplemoduli import *', ns)\n"
            "del ns['__builtins__']\n"
            "assert sorted(ns) == sorted(triplemoduli.__all__)\n"
            "assert len(set(triplemoduli.__all__)) == len(triplemoduli.__all__)\n"
            "for name, value in ns.items():\n"
            "    module = sys.modules['triplemoduli.' + triplemoduli._SUBMODULE[name]]\n"
            "    assert value is getattr(module, name), name\n"
            "    assert value is getattr(triplemoduli, name), name\n"
            "assert set(triplemoduli.__all__) <= set(dir(triplemoduli))\n"
            "print(len(ns))\n"
        )
        assert out == "66\n"
