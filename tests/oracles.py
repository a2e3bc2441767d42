"""Independent brute-force oracles used to check the production code.

These deliberately share no derivation with the library: walls are
found by scanning every candidate subtriple over a provably generous
degree window and keeping exact rational hits, rather than by the
per-rank-pair monotone interval and integer lattice keys the library
uses; criticality at one alpha divides Fractions instead of testing
integer divisibility; alpha_L is the largest of those walls, not a
ceiling or floor per rank pair. The census region is
found by testing every cell of a grid against the two half-open strips,
and a canonical representative by searching a window of translates,
rather than by the closed-form column walk and floor-division shift.
The CLI report is built the way the CLI first built it, in three steps
(a dict per ``Wall`` of the public ``enumerate_walls`` and per
``Chamber`` of the public ``chambers``, ``jsonable`` over the whole
tree, then ``json.dumps`` or a renderer of the converted tree), rather
than by one streaming writer over the blocks of tuples the handlers
mark. The classifier is the ``if`` chain it was first written as,
one branch per case, rather than the ordered table of cases. The Higgs
bridge (the admissible alpha range, the Toledo invariant, the minima
triple and the placement of 2g - 2 against its range) is the
``Fraction`` arithmetic it was first written in: slopes subtracted,
Fraction comparisons and a ``MinimaRealization`` built on the way,
rather than integer gap numerators and cross-multiplication; so are the
thresholds alpha_j and alpha_t, the slope gap scaled and subtracted in
Fractions rather than one Fraction each from the gap numerator. The
per-wall records ``WallWitness``, ``Wall`` and ``Chamber`` have twins
here that are plain frozen dataclasses, as the library first defined
them, rather than slotted records whose ``__init__`` writes through the
slot descriptors.
"""

import json
from dataclasses import dataclass, fields
from fractions import Fraction as F

from triplemoduli.census import enumerate_region
from triplemoduli.classify import (
    NO,
    TAG_COPRIME,
    TAG_CORRESPONDENCE,
    TAG_EQ_RANK_MAX,
    TAG_EQ_RANK_WINDOW,
    TAG_FIBRATION,
    TAG_INTERIOR,
    TAG_MILNOR_WOOD,
    TAG_RIGIDITY,
    TAG_UNEQ_MAX_CONN,
    TAG_ZERO_TOLEDO,
    UNKNOWN,
    YES,
    SubspaceVerdict,
    Verdict,
)
from triplemoduli.cli import build_parser
from triplemoduli.errors import DomainError
from triplemoduli.higgs import (
    MinimaRealization,
    MWReport,
    ToledoReport,
    coprime_smooth,
    expected_dim,
    rigidity,
    vanishing_pattern,
)
from triplemoduli.rationals import Rational, jsonable
from triplemoduli.triples import AlphaInterval, TripleType
from triplemoduli.walls import chambers, enumerate_walls


@dataclass(frozen=True)
class WallWitness:
    """Numerically admissible subobject data (n1', n2', d1'+d2')."""

    n1p: int
    n2p: int
    dsum: int


@dataclass(frozen=True)
class Wall:
    """A critical parameter value with its arithmetic witnesses."""

    alpha: Rational
    witnesses: tuple[WallWitness, ...]
    stabilized: bool = False


@dataclass(frozen=True)
class Chamber:
    """Maximal open parameter interval containing no wall."""

    lo: Rational
    hi: Rational
    contains_2g_minus_2: bool
    is_large_chamber: bool


_TWINS = {
    cls.__name__: (cls, [f.name for f in fields(cls)])
    for cls in (WallWitness, Wall, Chamber)
}


def oracle_twin(value):
    """A library WallWitness, Wall or Chamber (or a tuple of them) rebuilt
    as its plain frozen-dataclass twin above, field by field in the twin's
    order; any other value is returned as it is."""
    if isinstance(value, tuple):
        return tuple(map(oracle_twin, value))
    twin = _TWINS.get(type(value).__name__)
    if twin is None:
        return value
    cls, names = twin
    return cls(*[oracle_twin(getattr(value, name)) for name in names])


def oracle_walls(T, lo, hi):
    """Every wall location in the closed window [lo, hi], with the full
    witness set per location."""
    n = T.n1 + T.n2
    D = T.d1 + T.d2
    big = max(abs(lo), abs(hi))
    found = {}
    for n1p in range(T.n1 + 1):
        for n2p in range(T.n2 + 1):
            if (n1p, n2p) == (0, 0):
                continue
            det = n1p * T.n2 - T.n1 * n2p
            if det == 0:
                continue
            npr = n1p + n2p
            # |dp| <= (big |det| + |npr D|)/n, padded.
            cap = int((big * abs(det) + abs(npr * D)) / n) + 2
            for dp in range(-cap, cap + 1):
                alpha = F(n * dp - npr * D, det)
                if lo <= alpha <= hi:
                    found.setdefault(alpha, set()).add((n1p, n2p, dp))
    return found


def oracle_alpha_L(T):
    """Stabilization threshold of a type with n1 != n2 and mu1 >= mu2:
    the largest wall strictly inside (alpha_m, alpha_M), or alpha_m with
    the fallback flag set when there is none. Returns (alpha_L, flag)."""
    alpha_m = F(T.d1, T.n1) - F(T.d2, T.n2)
    alpha_M = (1 + F(T.n1 + T.n2, abs(T.n1 - T.n2))) * alpha_m
    interior = [a for a in oracle_walls(T, alpha_m, alpha_M)
                if alpha_m < a < alpha_M]
    if not interior:
        return alpha_m, True
    return max(interior), False


def oracle_is_critical(T, alpha):
    """Every admissible (n1', n2', d') solving the wall equation at the
    rational alpha, sorted."""
    a = F(alpha)
    n = T.n1 + T.n2
    D = T.d1 + T.d2
    wits = set()
    for n1p in range(T.n1 + 1):
        for n2p in range(T.n2 + 1):
            if (n1p, n2p) == (0, 0):
                continue
            det = n1p * T.n2 - T.n1 * n2p
            if det == 0:
                continue
            dp = (a * det + (n1p + n2p) * D) / n
            if dp.denominator == 1:
                wits.add((n1p, n2p, int(dp)))
    return sorted(wits)


def oracle_critical_at_integer(T, m):
    """Point form of the wall oracle: is the integer m a wall location?"""
    n = T.n1 + T.n2
    D = T.d1 + T.d2
    for n1p in range(T.n1 + 1):
        for n2p in range(T.n2 + 1):
            if (n1p, n2p) == (0, 0):
                continue
            det = n1p * T.n2 - T.n1 * n2p
            if det == 0:
                continue
            if (m * det + (n1p + n2p) * D) % n == 0:
                return True
    return False


def oracle_alpha_independent_witness(T):
    """Is there a proper subtriple destabilizing at every alpha at once?

    Such a witness has a rank pair proportional to (n1, n2) (so the
    parameter cancels) and the same underlying slope, which pins its
    degree sum to n' D / n; it exists iff that value is an integer for
    some proper proportional rank pair.
    """
    n = T.n1 + T.n2
    D = T.d1 + T.d2
    for n1p in range(T.n1 + 1):
        for n2p in range(T.n2 + 1):
            if (n1p, n2p) in ((0, 0), (T.n1, T.n2)):
                continue
            if n1p * T.n2 != T.n1 * n2p:
                continue
            if ((n1p + n2p) * D) % n == 0:
                return True
    return False


def oracle_member(p, q, g, a, b):
    """Strip form of the census region: the Toledo band plus the strips
    0 <= a < p, b < q and 0 <= b < q, a < p, tested with p <= q."""
    if p > q:
        p, q, a, b = q, p, b, a
    bound = (p + q) * p * (g - 1)
    if abs(a * q - b * p) > bound:
        return False
    in_strips = (0 <= a <= p and b <= q) or (0 <= b <= q and a <= p)
    if not in_strips:
        return False
    if a == p and b <= q:
        return False
    if b == q and a <= p:
        return False
    return True


def oracle_region(p, q, g):
    """Every census point (a, b), in (a, b) order, by testing each cell
    of the (bound + p + 1)(bound + q + 1) grid."""
    bound = (p + q) * min(p, q) * (g - 1)
    return [
        (a, b)
        for a in range(-bound, p + 1)
        for b in range(-bound, q + 1)
        if oracle_member(p, q, g, a, b)
    ]


def oracle_canonical(p, q, g, a, b):
    """Every translate (a + lp, b + lq) in the census region, searched
    over a padded window of l around the unit strips. A class inside
    the Toledo bound gives exactly one hit; one outside it gives none."""
    lo = min(-(a // p), -(b // q)) - 1
    hi = max((p - a) // p, (q - b) // q) + 1
    return [
        (a + l * p, b + l * q)
        for l in range(lo, hi + 1)
        if oracle_member(p, q, g, a + l * p, b + l * q)
    ]


def oracle_render(value, indent=0):
    """Text lines of a ``jsonable`` tree: dict entries as "key: value",
    list items as "- item", nested containers one level deeper."""
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        if not value:
            lines.append(pad + "(none)")
        for key, item in value.items():
            if isinstance(item, dict) and item:
                lines.append("%s%s:" % (pad, key))
                lines.extend(oracle_render(item, indent + 1))
            elif isinstance(item, list) and any(
                isinstance(x, (dict, list)) for x in item
            ):
                lines.append("%s%s:" % (pad, key))
                lines.extend(oracle_render(item, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, _oracle_scalar(item)))
    elif isinstance(value, list):
        if not value:
            lines.append(pad + "(none)")
        for item in value:
            if isinstance(item, dict):
                body = oracle_render(item, indent + 1)
                first = body[0].lstrip() if body else ""
                lines.append("%s- %s" % (pad, first))
                lines.extend(body[1:])
            else:
                lines.append("%s- %s" % (pad, _oracle_scalar(item)))
    else:
        lines.append(pad + _oracle_scalar(value))
    return lines


def _oracle_scalar(item):
    if item is None:
        return "null"
    if item is True:
        return "true"
    if item is False:
        return "false"
    if isinstance(item, list):
        return "[%s]" % ", ".join(_oracle_scalar(x) for x in item)
    return str(item)


def oracle_report(argv):
    """stdout of a successful CLI request, built in three steps: a dict
    per wall of ``enumerate_walls`` and per chamber of ``chambers``, a
    list per census point and per witness, ``jsonable`` over the whole
    envelope, then ``json.dumps`` with ``--json`` or ``oracle_render``
    without. The lists the handler marks as blocks are all rebuilt here,
    so none of them is read."""
    args = build_parser().parse_args(argv)
    outputs, citations, warnings = args.handler(args)
    if args.command in ("walls", "chambers"):
        T = TripleType(args.n1, args.n2, args.d1, args.d2)
    if args.command == "walls":
        walls = enumerate_walls(
            T,
            interval=args.interval and tuple(args.interval),
            include_endpoints=args.include_endpoints,
            g=args.g,
        )
        outputs["walls"] = [
            {
                "alpha": w.alpha,
                "witnesses": [[x.n1p, x.n2p, x.dsum] for x in w.witnesses],
                "stabilized": w.stabilized,
            }
            for w in walls
        ]
        if args.alpha is not None:
            outputs["alpha_test"]["witnesses"] = [
                list(x) for x in oracle_is_critical(T, args.alpha)
            ]
    if args.command == "chambers":
        rep = chambers(T, args.g, cutoff=args.cutoff)
        outputs["chambers"] = [
            {
                "lo": c.lo,
                "hi": c.hi,
                "contains_2g_minus_2": c.contains_2g_minus_2,
                "is_large_chamber": c.is_large_chamber,
            }
            for c in rep.chambers
        ]
    if args.command == "census":
        rep = enumerate_region(args.p, args.q, args.g)
        outputs["points"] = [[x.a, x.b] for x in rep.points]
        outputs["coprime_points"] = [[x.a, x.b] for x in rep.coprime_points]
        outputs["lines"] = {
            t: [[x.a, x.b] for x in line] for t, line in rep.lines.items()
        }
    inputs = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "handler", "json")
        and value is not None and value is not False
    }
    report = jsonable({
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "citations": citations,
        "warnings": list(warnings),
    })
    if args.json:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return "\n".join(oracle_render(report)) + "\n"


def oracle_classify(H):
    """The classifier as first written: one ``if`` branch per case, each
    assigning its tri-state fields and citation tags by hand, with the
    two full-space-connectedness sub-rules nested in the interior
    branch."""
    t = oracle_toledo(H)
    tau, in_range, saturated = t.tau, t.within_bound, t.saturated
    coprime = coprime_smooth(H)
    citations = {}
    warnings = ()
    rigid = False
    rigidity_data = None
    stable_smooth_dim = None

    if not in_range:
        case = "out-of-range"
        stable_nonempty = NO
        closure_connected = NO
        full_nonempty = NO
        full_connected = NO
        for field in (
            "stable_nonempty",
            "closure_of_stable_connected",
            "full_space_nonempty",
            "full_space_connected",
        ):
            citations[field] = TAG_MILNOR_WOOD
    elif tau == 0:
        case = "zero-toledo"
        stable_nonempty = UNKNOWN
        closure_connected = UNKNOWN
        full_nonempty = YES
        full_connected = YES
        citations["full_space_nonempty"] = TAG_ZERO_TOLEDO
        citations["full_space_connected"] = TAG_ZERO_TOLEDO
    elif not saturated:
        case = "interior-toledo"
        stable_nonempty = YES
        stable_smooth_dim = expected_dim(H)
        closure_connected = YES
        full_nonempty = YES
        for field in (
            "stable_nonempty",
            "stable_smooth_dim",
            "closure_of_stable_connected",
            "full_space_nonempty",
        ):
            citations[field] = TAG_INTERIOR
        if coprime:
            full_connected = YES
            citations["full_space_connected"] = TAG_COPRIME
        elif H.p == H.q and (H.p - 1) * (2 * H.g - 2) < abs(tau):
            full_connected = YES
            citations["full_space_connected"] = TAG_EQ_RANK_WINDOW
        else:
            full_connected = UNKNOWN
    elif H.p == H.q:
        case = "maximal-toledo-equal-ranks"
        stable_nonempty = YES
        stable_smooth_dim = expected_dim(H)
        closure_connected = YES
        full_nonempty = YES
        full_connected = YES
        for field in (
            "stable_nonempty",
            "stable_smooth_dim",
            "closure_of_stable_connected",
            "full_space_nonempty",
            "full_space_connected",
        ):
            citations[field] = TAG_EQ_RANK_MAX
    else:
        case = "maximal-toledo-rigid"
        rigid = True
        rigidity_data = rigidity(H)
        warnings = rigidity_data.warnings
        stable_nonempty = NO
        closure_connected = NO
        full_nonempty = YES
        full_connected = YES
        citations["stable_nonempty"] = TAG_RIGIDITY
        citations["closure_of_stable_connected"] = TAG_RIGIDITY
        citations["full_space_nonempty"] = TAG_UNEQ_MAX_CONN
        citations["full_space_connected"] = TAG_UNEQ_MAX_CONN
        citations["rigidity_data"] = TAG_RIGIDITY

    if coprime and stable_smooth_dim is None and in_range:
        # Unreachable: coprimality forces 0 < |tau| < tau_max (the
        # extreme and zero values of qa - pb are multiples of p + q).
        raise AssertionError(
            "coprime type escaped the interior case: %r" % (H,)
        )

    smooth_expected = UNKNOWN
    if not in_range:
        smooth_expected = NO
    elif coprime:
        smooth_expected = YES
        citations["r_gamma.smooth_of_expected_dim"] = TAG_COPRIME

    r_gamma = SubspaceVerdict(
        nonempty=full_nonempty,
        connected=full_connected,
        stable_nonempty=stable_nonempty,
        closure_of_stable_connected=closure_connected,
        smooth_of_expected_dim=smooth_expected,
    )
    citations["r_gamma"] = TAG_CORRESPONDENCE
    r_pu = SubspaceVerdict(
        nonempty=full_nonempty,
        connected=full_connected,
        stable_nonempty=stable_nonempty,
        closure_of_stable_connected=closure_connected,
        smooth_of_expected_dim=UNKNOWN,
    )
    citations["r_pu"] = TAG_FIBRATION

    return Verdict(
        higgs=H,
        tau=tau,
        tau_max=t.tau_M,
        in_range=in_range,
        saturated=saturated,
        coprime=coprime,
        case=case,
        stable_nonempty=stable_nonempty,
        stable_smooth_dim=stable_smooth_dim,
        closure_of_stable_connected=closure_connected,
        full_space_nonempty=full_nonempty,
        full_space_connected=full_connected,
        rigid=rigid,
        rigidity_data=rigidity_data,
        r_gamma=r_gamma,
        r_pu=r_pu,
        citations=citations,
        warnings=warnings,
    )


def oracle_alpha_range(T):
    """Admissible interval [alpha_m, alpha_M] from the slope difference
    mu1 - mu2 and the factor 1 + (n1 + n2)/|n1 - n2|, in Fractions."""
    if T.n1 < 1 or T.n2 < 1:
        raise DomainError("alpha_range needs both ranks >= 1")
    mu1 = F(T.d1, T.n1)
    mu2 = F(T.d2, T.n2)
    gap = mu1 - mu2
    lo = gap
    if T.n1 == T.n2:
        hi = None
    else:
        hi = (1 + F(T.total_rank, abs(T.n1 - T.n2))) * gap
    return AlphaInterval(
        lo=lo,
        hi=hi,
        empty=gap < 0,
        single_point=(gap == 0 and T.n1 != T.n2),
    )


def oracle_thresholds(T):
    """alpha_js, alpha_t and alpha_e of a type with mu1 >= mu2, in
    Fractions: the slope gap scaled per j, alpha_t subtracted from
    alpha_M, on the dual when n1 < n2. Returns (alpha_js, alpha_t,
    alpha_e)."""
    if T.n1 < T.n2:
        T = TripleType(T.n2, T.n1, -T.d2, -T.d1)
    rng = oracle_alpha_range(T)
    gap, alpha_M = rng.lo, rng.hi
    n1, n2 = T.n1, T.n2
    n = n1 + n2
    alpha_js = tuple(
        2 * n1 * n2 * gap / (n2 * (n1 - n2) + (j + 1) * n)
        for j in range(n2)
    )
    alpha_t = None
    if n1 > n2:
        alpha_t = alpha_M - F(n, n2 * (n1 - n2))
    alpha_e = max(x for x in (gap, alpha_js[0], alpha_t) if x is not None)
    return alpha_js, alpha_t, alpha_e


def oracle_toledo(H):
    """Toledo invariant as a Fraction, its flags by Fraction comparison."""
    tau = F(2 * (H.q * H.a - H.p * H.b), H.total_rank)
    tau_M = min(H.p, H.q) * (2 * H.g - 2)
    return ToledoReport(
        tau=tau,
        tau_M=tau_M,
        within_bound=abs(tau) <= tau_M,
        saturated=abs(tau) == tau_M,
    )


def oracle_minima_triple_type(H):
    """Minima triple built per vanishing pattern, one branch each."""
    two = 2 * H.g - 2
    pattern = vanishing_pattern(H)
    if pattern == "gamma_zero":
        triple = TripleType(H.p, H.q, H.a + H.p * two, H.b)
        product = None
    elif pattern == "beta_zero":
        triple = TripleType(H.q, H.p, H.b + H.q * two, H.a)
        product = None
    else:
        triple = TripleType(H.p, H.q, H.a + H.p * two, H.b)
        product = ((H.p, H.a), (H.q, H.b))
    return MinimaRealization(
        case_tag=pattern,
        triple=triple,
        alpha=F(two),
        product_factors=product,
    )


def oracle_mw_relations(H):
    """Placement of 2g - 2 against the minima triple's range by Fraction
    comparisons, with the facts checked against ``oracle_toledo``."""
    t = oracle_toledo(H)
    realization = oracle_minima_triple_type(H)
    Tm = realization.triple
    rng = oracle_alpha_range(Tm)
    alpha_m = rng.lo
    alpha_M = rng.hi
    two = 2 * H.g - 2

    def cmp_sym(x, y):
        if x < y:
            return "<"
        if x == y:
            return "="
        return ">"

    facts = [
        ("two_g_minus_2_ge_alpha_m", two >= alpha_m),
        ("alpha_m_equality_iff_tau_zero", (two == alpha_m) == (t.tau == 0)),
    ]
    alpha_M_vs = None
    if H.p != H.q:
        assert alpha_M is not None
        alpha_M_vs = cmp_sym(F(two), alpha_M)
        facts.append(
            ("within_bound_iff_2g2_le_alpha_M", t.within_bound == (two <= alpha_M))
        )
        facts.append(
            ("saturated_iff_2g2_eq_alpha_M", t.saturated == (two == alpha_M))
        )
    else:
        facts.append(
            ("within_bound_iff_alpha_m_nonneg", t.within_bound == (alpha_m >= 0))
        )
        facts.append(("saturated_iff_alpha_m_zero", t.saturated == (alpha_m == 0)))
    return MWReport(
        tau=t.tau,
        tau_M=t.tau_M,
        within_bound=t.within_bound,
        saturated=t.saturated,
        triple=Tm,
        alpha_m=alpha_m,
        alpha_M=alpha_M,
        two_g_minus_2=two,
        alpha_m_vs_2g2=cmp_sym(alpha_m, F(two)),
        alpha_M_vs_2g2=alpha_M_vs,
        facts=tuple(facts),
    )
