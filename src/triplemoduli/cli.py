"""Command line interface.

Eight subcommands expose the library: triple, walls, chambers, higgs,
rigidity, morse, census, classify. Every run builds one report
envelope {command, inputs, outputs, citations, warnings} from library
values; --json prints it as stable JSON (sorted keys, exact rationals
as "num/den" strings, infinite endpoints as "inf", absent values as
null), the default mode prints the same structure as indented text.
One writer per mode (``write_json``, ``write_text``) streams the report
in a single pass; the JSON writer emits exactly the bytes of
``json.dumps(jsonable(report), indent=2, sort_keys=True)``. The writers
take report trees only: every dict key is a str, and a block (below) is
reached through dict entries, never through a list item.

One table, ``COMMANDS``, declares the subcommands: a row per subcommand
with its help, handler and flags. ``build_parser`` adds each row's
subparser with those flags and the --json that every row takes. A
request names its subcommand first, so ``main`` builds the subparser
of that row only; -h, no arguments or an unknown name build every row,
and the help and usage errors read the same either way.

Imports are deferred: each subcommand's handler imports the math
modules it calls when it runs, and a usage error imports none. Most of
a small request is interpreter start-up and imports, and defining the
result records is about two fifths of the cost of importing a math module,
so a request defines only the records it uses; no request imports
dataclasses (``errors.record`` builds the records without it). Handlers
mark the lists of tuples that grow with a request (walls, census rows)
as blocks; ``walls`` takes its walls straight from the integer wall
scan, so a large request builds no ``Wall``, ``WallWitness`` or
``Fraction`` per wall. ``chambers`` builds its chamber dicts itself.

Exit codes: 0 success, 1 domain error (the message names the violated
precondition), 2 usage error (unknown flags, malformed values: integers
are N and rationals N or N/D, in ASCII digits). A
reader that closes the pipe early (``| head``) also ends the run with
exit 1, quietly: nothing is printed to stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import DomainError
from .rationals import _ratio, jsonable, parse_rat


def _rational(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected an exact rational written as N or N/D, got %r" % text
        )


# argparse reads a token that starts with "-" as a flag unless it matches
# this (private) pattern; argparse's own is r"^-\d+$|^-\d*\.\d+$". This
# one also takes a negative rational (-1/2) and an integer list (-1,0).
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$|^-\d+(,-?\d+)+$")


# parse_rat's numerator: ASCII digits after an optional "-". int() would
# also take "1_0", "+3" and non-ASCII digits.
_WIRE_INT = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    s = text.strip()
    if not _WIRE_INT.fullmatch(s):
        raise argparse.ArgumentTypeError(
            "expected an integer written as N in ASCII digits, got %r" % text
        )
    return int(s)


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each written as ``_integer`` takes it."""
    return tuple(map(_integer, text.split(",")))


# The report keys that differ from their record field names.
_RENAMES = {"tau_M": "tau_max", "case_tag": "case"}


def _wire(obj, drop=()) -> dict:
    """Report form of a record: its fields (``__match_args__``) in
    declaration order, with nested records, alone or in tuples, expanded
    the same way.

    Fields named in ``drop`` are left out at every depth, and keys follow
    ``_RENAMES``. None in a field named hi or alpha_M is an unbounded
    range endpoint and is written "inf"; any other None stays null.
    """
    out = {}
    for name in obj.__match_args__:
        if name in drop:
            continue
        value = getattr(obj, name)
        if value is None and name in ("hi", "alpha_M"):
            value = "inf"
        elif hasattr(value, "__match_args__"):
            value = _wire(value, drop)
        elif isinstance(value, tuple) and value and hasattr(value[0], "__match_args__"):
            value = [_wire(v, drop) for v in value]
        out[_RENAMES.get(name, name)] = value
    return out


def _cmd_triple(args) -> tuple[dict, dict, list]:
    from .triples import (
        TripleType,
        alpha_range,
        alpha_slope,
        dim_stable_moduli,
        fibration_dims,
        thresholds,
        triple_slope,
    )

    T = TripleType(args.n1, args.n2, args.d1, args.d2)
    # alpha_range refuses a zero rank before the slopes divide by it
    rng = alpha_range(T)
    warnings: list[str] = []
    outputs: dict = {
        "type": _wire(T),
        "mu1": _ratio(T.d1, T.n1),
        "mu2": _ratio(T.d2, T.n2),
        "slope": triple_slope(T),
        "alpha_range": _wire(rng),
    }
    try:
        outputs["thresholds"] = _wire(thresholds(T))
    except DomainError as exc:
        outputs["thresholds"] = None
        warnings.append("thresholds omitted: %s" % exc)
    if args.alpha is not None:
        outputs["alpha_slope"] = alpha_slope(T, args.alpha)
    if args.g is not None:
        outputs["dim_stable_moduli"] = dim_stable_moduli(T, args.g)
        fib = fibration_dims(T, args.g)
        outputs["fibration"] = _wire(fib)
        if fib.empty_fiber:
            warnings.append(
                "fibration fiber dimension is negative: the extension "
                "fibers are empty for this type"
            )
    return outputs, {}, warnings


def _cmd_walls(args) -> tuple[dict, dict, list]:
    from .triples import TripleType
    from .walls import _wall_rows, is_critical

    T = TripleType(args.n1, args.n2, args.d1, args.d2)
    interval = tuple(args.interval) if args.interval is not None else None
    rows = _wall_rows(
        T,
        interval=interval,
        include_endpoints=args.include_endpoints,
        g=args.g,
    )
    walls = _Block(rows, _json_walls, _text_walls)
    outputs: dict = {"count": len(walls), "walls": walls}
    if args.alpha is not None:
        test = is_critical(T, args.alpha)
        wits = [(x.n1p, x.n2p, x.dsum) for x in test.witnesses]
        outputs["alpha_test"] = {
            "alpha": test.alpha,
            "critical": test.critical,
            "witnesses": _rows(wits, 3),
        }
    return outputs, {}, []


def _cmd_chambers(args) -> tuple[dict, dict, list]:
    from .triples import TripleType
    from .walls import chambers

    T = TripleType(args.n1, args.n2, args.d1, args.d2)
    rep = chambers(T, args.g, cutoff=args.cutoff)
    outputs = {
        **_wire(rep, drop=("chambers", "walls")),
        "count": len(rep.chambers),
        # report dicts built here, so no Chamber goes through _wire
        "chambers": [
            {
                "lo": c.lo,
                "hi": c.hi,
                "contains_2g_minus_2": c.contains_2g_minus_2,
                "is_large_chamber": c.is_large_chamber,
            }
            for c in rep.chambers
        ],
        "walls": [w.alpha for w in rep.walls],
    }
    warnings = []
    if rep.marker_status == "at_alpha_M":
        warnings.append(
            "2g-2 sits exactly at alpha_M: the Higgs comparison window "
            "degenerates for this type"
        )
    if args.cutoff is not None and T.n1 != T.n2:
        warnings.append(
            "--cutoff is not used when n1 != n2: the range ends at "
            "alpha_M = %s" % rep.top
        )
    return outputs, {}, warnings


def _cmd_higgs(args) -> tuple[dict, dict, list]:
    from .higgs import (
        HiggsType,
        coprime_smooth,
        expected_dim,
        minima_triple_type,
        mw_relations,
        toledo,
        vanishing_pattern,
    )

    H = HiggsType(args.p, args.q, args.a, args.b, args.g)
    mw = mw_relations(H)
    outputs = {
        "toledo": _wire(toledo(H)),
        "expected_dim": expected_dim(H),
        "coprime_smooth": coprime_smooth(H),
        "vanishing_pattern": vanishing_pattern(H),
        "minima": _wire(minima_triple_type(H)),
        "range_placement": {
            **_wire(mw, drop=(
                "tau", "tau_M", "within_bound", "saturated", "triple", "facts",
            )),
            "facts": dict(mw.facts),
        },
    }
    return outputs, {}, []


def _cmd_rigidity(args) -> tuple[dict, dict, list]:
    from .higgs import HiggsType, rigidity

    H = HiggsType(args.p, args.q, args.a, args.b, args.g)
    rep = rigidity(H)
    return _wire(rep, drop=("warnings",)), {}, list(rep.warnings)


def _cmd_morse(args) -> tuple[dict, dict, list]:
    from .morse import (
        MORSE_NEGATIVE_ADVISORY,
        HodgeChain,
        dim_h1_weight,
        morse_index,
        uk_profile,
    )

    chain = HodgeChain(args.ranks, args.degrees)
    m = chain.length
    uk = []
    for k in range(-(m - 1), m):
        rank, degree = uk_profile(chain, k)
        uk.append({"k": k, "rank": rank, "degree": degree})
    h1 = [
        {"k": k, "dim": dim_h1_weight(chain, k, args.g)}
        for k in range(0, m)
    ]
    index = morse_index(chain, args.g)
    outputs = {
        "length": m,
        "ranks": list(chain.ranks),
        "degrees": list(chain.degrees),
        "uk": uk,
        "h1_weights": h1,
        "index": index,
    }
    warnings = [MORSE_NEGATIVE_ADVISORY] if index < 0 else []
    return outputs, {}, warnings


def _cmd_census(args) -> tuple[dict, dict, list]:
    from .census import canonicalize, enumerate_region, tau_quotient_facts

    if (args.a is None) != (args.b is None):
        raise DomainError("--a and --b must be given together")
    rep = enumerate_region(args.p, args.q, args.g)
    quo = tau_quotient_facts(args.p, args.q)

    def pairs(points):
        return _rows([(cp.a, cp.b) for cp in points], 2)

    outputs: dict = {
        "count": rep.count,
        "points": pairs(rep.points),
        "coprime_count": len(rep.coprime_points),
        "coprime_points": pairs(rep.coprime_points),
        "lines": {str(t): pairs(line) for t, line in rep.lines.items()},
        "points_per_line": quo.k,
        "quotient": _wire(quo),
        "coprime_and_non_coprime_nonempty": (
            0 < len(rep.coprime_points) < rep.count
        ),
    }
    if args.a is not None:
        cp = canonicalize(args.p, args.q, args.g, args.a, args.b)
        outputs["canonical"] = [cp.a, cp.b]
    return outputs, {}, []


def _cmd_classify(args) -> tuple[dict, dict, list]:
    from .classify import classify
    from .higgs import HiggsType

    H = HiggsType(args.p, args.q, args.a, args.b, args.g)
    v = classify(H)
    outputs = _wire(v, drop=("higgs", "citations", "warnings"))
    return outputs, dict(v.citations), list(v.warnings)


# Flags that several rows share: (flag, help, add_argument keywords).
_INT = {"type": _integer}
_RAT = {"type": _rational}
_REQUIRED = {"type": _integer, "required": True}
_GENUS = ("--g", "genus, >= 2", _REQUIRED)
_TRIPLE = (
    ("--n1", "rank of E1", _REQUIRED),
    ("--n2", "rank of E2", _REQUIRED),
    ("--d1", "degree of E1", _REQUIRED),
    ("--d2", "degree of E2", _REQUIRED),
)
_HIGGS = (
    ("--p", "rank of V", _REQUIRED),
    ("--q", "rank of W", _REQUIRED),
    ("--a", "degree of V", _REQUIRED),
    ("--b", "degree of W", _REQUIRED),
    _GENUS,
)

# The subcommands, in the order help lists them: name -> (help, handler,
# *flags). Every subcommand also takes --json.
COMMANDS = {
    "triple": (
        "slopes, admissible range, thresholds, dimension", _cmd_triple,
        *_TRIPLE,
        ("--g", "genus for dimension outputs", _INT),
        ("--alpha", "evaluate the alpha-slope here", _RAT),
    ),
    "walls": (
        "critical parameter values and their witnesses", _cmd_walls,
        *_TRIPLE,
        ("--interval", "closed scan window (default: the admissible range)",
         {"nargs": 2, "type": _rational, "metavar": ("LO", "HI")}),
        ("--include-endpoints",
         "keep walls sitting exactly at alpha_m or alpha_M",
         {"action": "store_true"}),
        ("--g", "genus, sets the horizon when n1 = n2", _INT),
        ("--alpha", "also test this value for criticality", _RAT),
    ),
    "chambers": (
        "chamber decomposition of the parameter range", _cmd_chambers,
        *_TRIPLE,
        _GENUS,
        ("--cutoff", "upper horizon when n1 = n2 "
         "(default max(alpha_L, 2g-2, alpha_m) + 1)", _RAT),
    ),
    "higgs": (
        "Toledo invariant, minima triple, range placement", _cmd_higgs,
        *_HIGGS,
    ),
    "rigidity": (
        "forced decomposition at maximal Toledo invariant", _cmd_rigidity,
        *_HIGGS,
    ),
    "morse": (
        "weight-space profile and Morse index of a fixed point", _cmd_morse,
        ("--ranks", "chain ranks, comma separated, e.g. 1,1,1",
         {"type": _int_list, "required": True}),
        ("--degrees", "chain degrees, comma separated, e.g. 2,1,0",
         {"type": _int_list, "required": True}),
        _GENUS,
    ),
    "census": (
        "component classes of the flat-bundle variety", _cmd_census,
        *_HIGGS[:2],
        _GENUS,
        ("--a", "with --b: canonicalize this degree pair", _INT),
        ("--b", "with --a: canonicalize this degree pair", _INT),
    ),
    "classify": (
        "connectedness / smoothness / rigidity verdicts with citations",
        _cmd_classify,
        *_HIGGS,
    ),
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser of the subcommands ``names`` (default: every one), each
    built from its row of ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="triplemoduli",
        description=(
            "Exact invariants of holomorphic-triple moduli and of "
            "U(p,q) surface group representation spaces."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    if len(names) < len(COMMANDS):
        # the top-level usage, printed on an unrecognized argument,
        # lists every subcommand also when only some are built
        subs.metavar = "{%s}" % ",".join(COMMANDS)
    for name in names:
        summary, handler, *flags = COMMANDS[name]
        sub = subs.add_parser(name, help=summary)
        for flag, text, kwargs in flags:
            sub.add_argument(flag, help=text, **kwargs)
        sub.add_argument(
            "--json", action="store_true", help="machine-readable report"
        )
        sub.set_defaults(handler=handler)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


# Report writers. Both take a report tree and stream it through
# ``write``, ending in a newline. A report tree holds library values
# (Fraction, int, bool, None, str, tuples, lists, dicts) and blocks, with
# every dict key a str, and reaches each block from the root through
# dict entries only, never through a list or tuple item; every handler
# builds such trees, and the writers do not check them. A block is a
# list that grows with a request, marked by its handler; the writers
# format it a batch at a time with the renderers it carries, one
# template per kind of block, and do not look at its items.

_BATCH = 2048


class _Block(list):
    """Compact items of a list that grows with a request. ``json(pad)``
    and ``text(pad)`` give renderers that format a batch of items as list
    items at ``pad``. A report tree reaches a block through dict entries
    only, so the writers write a block inline only when it is empty, as
    ``[]``."""

    def __init__(self, items, json, text):
        super().__init__(items)
        self.json, self.text = json, text


def _rows(items, r: int) -> _Block:
    """A block of int rows of length r, each its own report form."""
    return _Block(
        items, lambda pad: _json_rows(r, pad), lambda pad: _text_rows(r, pad)
    )


def _write_batched(write, seq, render, sep: str) -> None:
    """write ``sep.join(render(seq))``, a batch of items at a time."""
    for i in range(0, len(seq), _BATCH):
        if i:
            write(sep)
        write(sep.join(render(seq[i:i + _BATCH])))


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return "%d" % value.numerator
        return '"%d/%d"' % (value.numerator, value.denominator)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError("cannot serialize %r" % (type(value),))


def _json_rows(r: int, pad: str):
    """Renderer of int rows of length r as JSON list items at ``pad``."""
    inner = pad + "  "
    row = "%s[\n%s%s\n%s]" % (pad, inner, (",\n" + inner).join(["%d"] * r), pad)
    return lambda rows: map(row.__mod__, map(tuple, rows))


def _json_walls(pad: str):
    """Renderer of walls block items as JSON list items at ``pad``."""
    p1 = pad + "  "
    head = '%s{\n%s"alpha": ' % (pad, p1)
    mid = {
        flag: ',\n%s"stabilized": %s,\n%s"witnesses": ' % (p1, word, p1)
        for flag, word in ((False, "false"), (True, "true"))
    }
    rows = _json_rows(3, p1 + "  ")
    tail = "\n%s]\n%s}" % (p1, pad)

    def render(walls):
        for num, den, wits, stabilized in walls:
            body = ",\n".join(rows(wits))
            yield "%s%s%s%s" % (
                head,
                "%d" % num if den == 1 else '"%d/%d"' % (num, den),
                mid[stabilized],
                "[\n" + body + tail if body else "[]\n%s}" % pad,
            )

    return render


def _write_json(value, write, pad: str) -> None:
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for key in sorted(value):
            write("%s%s%s: " % (sep, inner, encode_basestring_ascii(key)))
            _write_json(value[key], write, inner)
            sep = ",\n"
        write("\n%s}" % pad)
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = pad + "  "
        write("[\n")
        if isinstance(value, _Block):
            _write_batched(write, value, value.json(inner), ",\n")
        else:
            for i, item in enumerate(value):
                write(",\n" + inner if i else inner)
                _write_json(item, write, inner)
        write("\n%s]" % pad)
    else:
        write(_json_scalar(value))


def write_json(value, write) -> None:
    """Stream the report tree ``value`` as ``json.dumps(jsonable(value),
    indent=2, sort_keys=True)`` plus a newline, through ``write``."""
    _write_json(value, write, "")
    write("\n")


def _text_scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(map(_text_scalar, value))
    if isinstance(value, (int, Fraction, str)):
        return str(value)
    if isinstance(value, dict):
        # a dict on one line prints as the Python literal of its JSON form
        return str(jsonable(value))
    raise TypeError("cannot serialize %r" % (type(value),))


def _text_rows(r: int, pad: str):
    """Renderer of int rows of length r as text list lines at ``pad``."""
    line = "%s- [%s]\n" % (pad, ", ".join(["%d"] * r))
    return lambda rows: map(line.__mod__, map(tuple, rows))


def _text_walls(pad: str):
    """Renderer of walls block items as text list lines at ``pad``."""
    head = pad + "- alpha: "
    rows = _text_rows(3, pad + "    ")
    label = "\n%s  witnesses:" % pad
    tail = {
        flag: "%s  stabilized: %s\n" % (pad, word)
        for flag, word in ((False, "false"), (True, "true"))
    }

    def render(walls):
        for num, den, wits, stabilized in walls:
            body = "".join(rows(wits))
            yield "%s%s%s%s%s" % (
                head,
                "%d" % num if den == 1 else "%d/%d" % (num, den),
                label,
                "\n" + body if body else " []\n",
                tail[stabilized],
            )

    return render


def _write_text(value, write, pad: str, lead: str | None = None) -> None:
    """Write ``value`` as text lines at ``pad``. A dict that is a list
    item gets ``lead`` ("<pad>- ") in front of its first line, whose own
    leading whitespace is dropped."""
    if isinstance(value, dict):
        if not value:
            write((pad if lead is None else lead) + "(none)\n")
        for key, item in value.items():
            nested = (
                isinstance(item, dict) and item
                or isinstance(item, (list, tuple))
                and any(isinstance(x, (dict, list, tuple)) for x in item)
            )
            line = "%s:" % key if nested else "%s: %s" % (key, _text_scalar(item))
            write(pad + line + "\n" if lead is None else lead + line.lstrip() + "\n")
            lead = None
            if nested:
                _write_text(item, write, pad + "  ")
    elif isinstance(value, (list, tuple)):
        if not value:
            write(pad + "(none)\n")
            return
        if isinstance(value, _Block):
            _write_batched(write, value, value.text(pad), "")
        else:
            for item in value:
                if isinstance(item, dict):
                    _write_text(item, write, pad + "  ", lead=pad + "- ")
                else:
                    write("%s- %s\n" % (pad, _text_scalar(item)))
    else:
        write(pad + _text_scalar(value) + "\n")


def write_text(value, write) -> None:
    """Stream the report tree ``value`` as indented text lines through
    ``write``: dict entries as "key: value" and list items as "- item". A
    non-empty dict, or a list holding containers, goes one level deeper
    under its key; anything else is inline, written as in JSON but with
    strings unquoted. A dict or list not written inline that is empty is
    "(none)"."""
    _write_text(value, write, "")


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        # flush inside the try, so a closed pipe is caught here
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. ``| head``). Point stdout at devnull
        # so the flush at interpreter exit cannot fail again, and exit 1
        # quietly, as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a request names its subcommand first, so only that row is built
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    try:
        args = build_parser(names).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        outputs, citations, warnings = args.handler(args)
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    inputs = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "handler", "json")
        and value is not None and value is not False
    }
    report = {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "citations": citations,
        "warnings": list(warnings),
    }
    (write_json if args.json else write_text)(report, sys.stdout.write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
