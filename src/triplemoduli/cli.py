"""Command line interface.

Eight subcommands expose the library: triple, walls, chambers, higgs,
rigidity, morse, census, classify. Every run builds one report
envelope {command, inputs, outputs, citations, warnings}; --json
prints it as stable JSON (sorted keys, exact rationals as "num/den"
strings, infinite endpoints as "inf", absent values as null), the
default mode prints the same structure as indented text.

Exit codes: 0 success, 1 domain error (the message names the violated
precondition), 2 usage error (unknown flags, malformed values).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Optional

from .census import canonicalize, enumerate_region, tau_quotient_facts
from .classify import classify
from .errors import DomainError
from .higgs import (
    HiggsType,
    coprime_smooth,
    expected_dim,
    minima_triple_type,
    mw_relations,
    rigidity,
    toledo,
    vanishing_pattern,
)
from .morse import MORSE_NEGATIVE_ADVISORY, HodgeChain, dim_h1_weight, morse_index, uk_profile
from .rationals import jsonable, parse_rat
from .triples import (
    TripleType,
    alpha_range,
    alpha_slope,
    dim_stable_moduli,
    fibration_dims,
    thresholds,
    triple_slope,
)
from .walls import chambers, enumerate_walls, is_critical


def _rational(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected an exact rational written as N or N/D, got %r" % text
        )


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated integer list, got %r" % text
        )


# The report keys that differ from their dataclass field names.
_RENAMES = {"tau_M": "tau_max", "case_tag": "case"}


def _wire(obj, drop=()) -> dict:
    """Report form of a dataclass: its fields in declaration order, with
    nested dataclasses, alone or in tuples, expanded the same way.

    Fields named in ``drop`` are left out at every depth, and keys follow
    ``_RENAMES``. None in a field named hi or alpha_M is an unbounded
    range endpoint and is written "inf"; any other None stays null.
    """
    out = {}
    for f in dataclasses.fields(obj):
        if f.name in drop:
            continue
        value = getattr(obj, f.name)
        if value is None and f.name in ("hi", "alpha_M"):
            value = "inf"
        elif dataclasses.is_dataclass(value):
            value = _wire(value, drop)
        elif isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]):
            value = [_wire(v, drop) for v in value]
        out[_RENAMES.get(f.name, f.name)] = value
    return out


def _cmd_triple(args) -> tuple[dict, dict, list]:
    T = TripleType(args.n1, args.n2, args.d1, args.d2)
    # alpha_range refuses a zero rank before the slopes divide by it
    rng = alpha_range(T)
    warnings: list[str] = []
    outputs: dict = {
        "type": _wire(T),
        "mu1": Fraction(T.d1, T.n1),
        "mu2": Fraction(T.d2, T.n2),
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
    T = TripleType(args.n1, args.n2, args.d1, args.d2)
    interval = tuple(args.interval) if args.interval is not None else None
    walls = enumerate_walls(
        T,
        interval=interval,
        include_endpoints=args.include_endpoints,
        g=args.g,
    )
    outputs: dict = {
        "count": len(walls),
        "walls": [
            {
                "alpha": w.alpha,
                "witnesses": [[x.n1p, x.n2p, x.dsum] for x in w.witnesses],
                "stabilized": w.stabilized,
            }
            for w in walls
        ],
    }
    if args.alpha is not None:
        test = is_critical(T, args.alpha)
        outputs["alpha_test"] = {
            "alpha": test.alpha,
            "critical": test.critical,
            "witnesses": [[x.n1p, x.n2p, x.dsum] for x in test.witnesses],
        }
    return outputs, {}, []


def _cmd_chambers(args) -> tuple[dict, dict, list]:
    T = TripleType(args.n1, args.n2, args.d1, args.d2)
    rep = chambers(T, args.g, cutoff=args.cutoff)
    outputs = {
        **_wire(rep, drop=("chambers", "walls")),
        "count": len(rep.chambers),
        "chambers": [_wire(c) for c in rep.chambers],
        "walls": [w.alpha for w in rep.walls],
    }
    warnings = []
    if rep.marker_status == "at_alpha_M":
        warnings.append(
            "2g-2 sits exactly at alpha_M: the Higgs comparison window "
            "degenerates for this type"
        )
    return outputs, {}, warnings


def _cmd_higgs(args) -> tuple[dict, dict, list]:
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
    H = HiggsType(args.p, args.q, args.a, args.b, args.g)
    rep = rigidity(H)
    return _wire(rep, drop=("warnings",)), {}, list(rep.warnings)


def _cmd_morse(args) -> tuple[dict, dict, list]:
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
    if (args.a is None) != (args.b is None):
        raise DomainError("--a and --b must be given together")
    rep = enumerate_region(args.p, args.q, args.g)
    quo = tau_quotient_facts(args.p, args.q)
    outputs: dict = {
        "count": rep.count,
        "points": [[cp.a, cp.b] for cp in rep.points],
        "coprime_count": len(rep.coprime_points),
        "coprime_points": [[cp.a, cp.b] for cp in rep.coprime_points],
        "lines": {
            str(t): [[cp.a, cp.b] for cp in line]
            for t, line in rep.lines.items()
        },
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
    H = HiggsType(args.p, args.q, args.a, args.b, args.g)
    v = classify(H)
    outputs = _wire(v, drop=("higgs", "citations", "warnings"))
    return outputs, dict(v.citations), list(v.warnings)


def _add_triple_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n1", type=int, required=True, help="rank of E1")
    sub.add_argument("--n2", type=int, required=True, help="rank of E2")
    sub.add_argument("--d1", type=int, required=True, help="degree of E1")
    sub.add_argument("--d2", type=int, required=True, help="degree of E2")


def _add_higgs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="rank of V")
    sub.add_argument("--q", type=int, required=True, help="rank of W")
    sub.add_argument("--a", type=int, required=True, help="degree of V")
    sub.add_argument("--b", type=int, required=True, help="degree of W")
    sub.add_argument("--g", type=int, required=True, help="genus, >= 2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplemoduli",
        description=(
            "Exact invariants of holomorphic-triple moduli and of "
            "U(p,q) surface group representation spaces."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "triple",
        help="slopes, admissible range, thresholds, dimension",
    )
    _add_triple_flags(sub)
    sub.add_argument("--g", type=int, help="genus for dimension outputs")
    sub.add_argument(
        "--alpha", type=_rational, help="evaluate the alpha-slope here"
    )
    sub.set_defaults(handler=_cmd_triple)

    sub = subs.add_parser(
        "walls", help="critical parameter values and their witnesses"
    )
    _add_triple_flags(sub)
    sub.add_argument(
        "--interval",
        nargs=2,
        type=_rational,
        metavar=("LO", "HI"),
        help="closed scan window (default: the admissible range)",
    )
    sub.add_argument(
        "--include-endpoints",
        action="store_true",
        help="keep walls sitting exactly at alpha_m or alpha_M",
    )
    sub.add_argument(
        "--g", type=int, help="genus, sets the horizon when n1 = n2"
    )
    sub.add_argument(
        "--alpha", type=_rational, help="also test this value for criticality"
    )
    sub.set_defaults(handler=_cmd_walls)

    sub = subs.add_parser(
        "chambers", help="chamber decomposition of the parameter range"
    )
    _add_triple_flags(sub)
    sub.add_argument("--g", type=int, required=True, help="genus, >= 2")
    sub.add_argument(
        "--cutoff",
        type=_rational,
        help="upper horizon when n1 = n2 (default max(alpha_L, 2g-2, alpha_m) + 1)",
    )
    sub.set_defaults(handler=_cmd_chambers)

    sub = subs.add_parser(
        "higgs", help="Toledo invariant, minima triple, range placement"
    )
    _add_higgs_flags(sub)
    sub.set_defaults(handler=_cmd_higgs)

    sub = subs.add_parser(
        "rigidity", help="forced decomposition at maximal Toledo invariant"
    )
    _add_higgs_flags(sub)
    sub.set_defaults(handler=_cmd_rigidity)

    sub = subs.add_parser(
        "morse", help="weight-space profile and Morse index of a fixed point"
    )
    sub.add_argument(
        "--ranks",
        type=_int_list,
        required=True,
        help="chain ranks, comma separated, e.g. 1,1,1",
    )
    sub.add_argument(
        "--degrees",
        type=_int_list,
        required=True,
        help="chain degrees, comma separated, e.g. 2,1,0",
    )
    sub.add_argument("--g", type=int, required=True, help="genus, >= 2")
    sub.set_defaults(handler=_cmd_morse)

    sub = subs.add_parser(
        "census", help="component classes of the flat-bundle variety"
    )
    sub.add_argument("--p", type=int, required=True, help="rank of V")
    sub.add_argument("--q", type=int, required=True, help="rank of W")
    sub.add_argument("--g", type=int, required=True, help="genus, >= 2")
    sub.add_argument(
        "--a", type=int, help="with --b: canonicalize this degree pair"
    )
    sub.add_argument(
        "--b", type=int, help="with --a: canonicalize this degree pair"
    )
    sub.set_defaults(handler=_cmd_census)

    sub = subs.add_parser(
        "classify",
        help="connectedness / smoothness / rigidity verdicts with citations",
    )
    _add_higgs_flags(sub)
    sub.set_defaults(handler=_cmd_classify)

    for name, sp in subs.choices.items():
        sp.add_argument(
            "--json", action="store_true", help="machine-readable report"
        )
    return parser


def _render(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        if not value:
            lines.append(pad + "(none)")
        for key, item in value.items():
            if isinstance(item, dict) and item:
                lines.append("%s%s:" % (pad, key))
                lines.extend(_render(item, indent + 1))
            elif isinstance(item, list) and any(
                isinstance(x, (dict, list)) for x in item
            ):
                lines.append("%s%s:" % (pad, key))
                lines.extend(_render(item, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, _scalar(item)))
    elif isinstance(value, list):
        if not value:
            lines.append(pad + "(none)")
        for item in value:
            if isinstance(item, dict):
                body = _render(item, indent + 1)
                first = body[0].lstrip() if body else ""
                lines.append("%s- %s" % (pad, first))
                lines.extend(body[1:])
            else:
                lines.append("%s- %s" % (pad, _scalar(item)))
    else:
        lines.append(pad + _scalar(value))
    return lines


def _scalar(item) -> str:
    if item is None:
        return "null"
    if item is True:
        return "true"
    if item is False:
        return "false"
    if isinstance(item, list):
        return "[%s]" % ", ".join(_scalar(x) for x in item)
    return str(item)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
        "inputs": jsonable(inputs),
        "outputs": jsonable(outputs),
        "citations": jsonable(citations),
        "warnings": list(warnings),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_render(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
