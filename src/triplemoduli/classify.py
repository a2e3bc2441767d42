"""Executable classifier for moduli of signature-(p, q) surface group
representations and the equivalent Higgs moduli.

Given (p, q, a, b, g) this module decides, by exact case analysis on
the Toledo invariant, what is known about the moduli space M(a, b) of
polystable Higgs bundles of that type: nonemptiness, connectedness,
smoothness and dimension of the stable locus, and rigidity at the
extreme Toledo values. The case analysis is one ordered table of
cases, and the first case that holds decides: one integer expression
over the Toledo flags, the numerator and p == q gives its index. In
the interior case two sub-rules refine connectedness of the full
space. The case choice and the sub-rules read the Toledo invariant in
integers, as the numerator 2(qa - pb) over p + q and its two flags;
only the returned tau is a Fraction. Each definite answer carries a
citation tag (a stable string naming the structural fact it rests
on), and questions the case analysis does not settle are reported as
"unknown" rather than guessed. The few citations dicts a verdict can
have are built once, in a module table, and every Verdict gets its
own copy of one.

Verdicts for the two associated representation varieties are derived:
R_Gamma (the lift to the universal central extension) shares all
topological answers with M through the nonabelian Hodge
correspondence, and R (the flat-bundle variety proper) inherits
nonemptiness and connectedness through a fibration with connected
fibres. No smoothness claim is ever made for R. There are few such
subspace verdicts, so every Verdict takes them from one module table.
"""

from __future__ import annotations


from .errors import record
from .higgs import (
    HiggsType,
    RigidityReport,
    _toledo_ints,
    coprime_smooth,
    expected_dim,
    rigidity,
)
from .rationals import Rational, _ratio

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

TAG_MILNOR_WOOD = "milnor-wood-bound"
TAG_ZERO_TOLEDO = "zero-toledo-connectedness"
TAG_INTERIOR = "interior-toledo-stable-moduli"
TAG_COPRIME = "coprime-no-strict-semistables"
TAG_EQ_RANK_WINDOW = "equal-rank-window-connectedness"
TAG_EQ_RANK_MAX = "equal-rank-maximal-toledo"
TAG_RIGIDITY = "maximal-toledo-rigidity"
TAG_UNEQ_MAX_CONN = "unequal-rank-maximal-toledo-connectedness"
TAG_CORRESPONDENCE = "higgs-representation-correspondence"
TAG_FIBRATION = "jacobian-fibration-descent"


@record
class SubspaceVerdict:
    """Answers for one of the derived representation varieties."""

    nonempty: str
    connected: str
    stable_nonempty: str
    closure_of_stable_connected: str
    smooth_of_expected_dim: str


@record
class Verdict:
    """Everything the case analysis settles for one (p, q, a, b, g).

    Tri-state fields take the values "yes", "no", "unknown". The
    citations map sends each settled field name to the tag of the fact
    that settles it; r_gamma and r_pu entries record the transfer
    principle used. rigidity_data is present exactly when rigid is
    True, and its factor degrees depend on the representative (a, b),
    not just its translation class.
    """

    higgs: HiggsType
    tau: Rational
    tau_max: int
    in_range: bool
    saturated: bool
    coprime: bool
    case: str
    stable_nonempty: str
    stable_smooth_dim: int | None
    closure_of_stable_connected: str
    full_space_nonempty: str
    full_space_connected: str
    rigid: bool
    rigidity_data: RigidityReport | None
    r_gamma: SubspaceVerdict
    r_pu: SubspaceVerdict
    citations: dict[str, str]
    warnings: tuple[str, ...]


# The cases in priority order. A row gives the name, the four
# tri-state fields in Verdict order (None: the sub-rules decide),
# whether the stable locus is smooth of the expected dimension, and the
# citation tags in report order. classify picks the row by index from
# (within_bound, num, saturated) of _toledo_ints(H), where
# tau = num/(p + q), and p == q: the first case that holds decides.
_CASES = (
    ("out-of-range",
     NO, NO, NO, NO, False,
     {"stable_nonempty": TAG_MILNOR_WOOD,
      "closure_of_stable_connected": TAG_MILNOR_WOOD,
      "full_space_nonempty": TAG_MILNOR_WOOD,
      "full_space_connected": TAG_MILNOR_WOOD}),
    ("zero-toledo",
     UNKNOWN, UNKNOWN, YES, YES, False,
     {"full_space_nonempty": TAG_ZERO_TOLEDO,
      "full_space_connected": TAG_ZERO_TOLEDO}),
    ("interior-toledo",
     YES, YES, YES, None, True,
     {"stable_nonempty": TAG_INTERIOR,
      "stable_smooth_dim": TAG_INTERIOR,
      "closure_of_stable_connected": TAG_INTERIOR,
      "full_space_nonempty": TAG_INTERIOR}),
    ("maximal-toledo-equal-ranks",
     YES, YES, YES, YES, True,
     {"stable_nonempty": TAG_EQ_RANK_MAX,
      "stable_smooth_dim": TAG_EQ_RANK_MAX,
      "closure_of_stable_connected": TAG_EQ_RANK_MAX,
      "full_space_nonempty": TAG_EQ_RANK_MAX,
      "full_space_connected": TAG_EQ_RANK_MAX}),
    ("maximal-toledo-rigid",
     NO, NO, YES, YES, False,
     {"stable_nonempty": TAG_RIGIDITY,
      "closure_of_stable_connected": TAG_RIGIDITY,
      "full_space_nonempty": TAG_UNEQ_MAX_CONN,
      "full_space_connected": TAG_UNEQ_MAX_CONN,
      "rigidity_data": TAG_RIGIDITY}),
)

# Every SubspaceVerdict a row can give, keyed by its five fields
# (nonempty, connected, stable_nonempty, closure_of_stable_connected,
# smooth_of_expected_dim). Records are frozen, so verdicts share them.
_SUBSPACE = {
    (nonempty, conn, stable, closure, smooth): SubspaceVerdict(
        nonempty, conn, stable, closure, smooth
    )
    for _, stable, closure, nonempty, connected, _, _ in _CASES
    for conn in ((YES, UNKNOWN) if connected is None else (connected,))
    for smooth in (YES, NO, UNKNOWN)
}


def _cited(tags: dict, rule: str | None, r_smooth: str) -> dict:
    """The citations of a verdict: the row's tags, then the sub-rule
    that settled full-space connectedness, if any, then R_Gamma's
    smoothness when coprimality settles it (r_smooth "yes"), then the
    two transfer principles."""
    citations = dict(tags)
    if rule is not None:
        citations["full_space_connected"] = rule
    if r_smooth == YES:
        citations["r_gamma.smooth_of_expected_dim"] = TAG_COPRIME
    citations["r_gamma"] = TAG_CORRESPONDENCE
    citations["r_pu"] = TAG_FIBRATION
    return citations


# Every citations dict a verdict can have, keyed by (row index, the
# interior sub-rule's tag or None, R_Gamma's smoothness). classify
# gives each Verdict its own copy, so a caller that edits one verdict's
# citations changes no other verdict.
_CITATIONS = {
    (i, rule, r_smooth): _cited(tags, rule, r_smooth)
    for i, (*_, connected, _, tags) in enumerate(_CASES)
    for rule in (
        (None, TAG_COPRIME, TAG_EQ_RANK_WINDOW)
        if connected is None
        else (None,)
    )
    for r_smooth in (YES, NO, UNKNOWN)
}


def classify(H: HiggsType) -> Verdict:
    """Run the full case analysis for one input type.

    Out-of-range Toledo kills everything; zero Toledo gives a nonempty
    connected space with the stable locus left open; strictly interior
    Toledo gives a nonempty smooth stable locus of the expected
    dimension with connected closure, and the full space is connected
    when gcd(p+q, a+b) = 1 or else in the equal-rank window
    (p-1)(2g-2) < |tau|, tested as (p-1)(2g-2)(p+q) < |num|; maximal
    Toledo splits into the equal-rank case (everything connected,
    stable locus alive) and the unequal-rank rigidity case (stable locus
    empty, the space is a product of smaller moduli, yet still
    connected).
    """
    num, n, tau_M, within, saturated = _toledo_ints(H)
    coprime = coprime_smooth(H)
    # the index of the first case that holds: 0 out of range, else
    # 1 at tau = 0, else 2 below the bound, else 3 if p = q, else 4
    i = within * (1 + (num != 0) * (1 + saturated * (1 + (H.p != H.q))))
    case, stable, closure, nonempty, connected, smooth, tags = _CASES[i]
    rule = None
    if connected is None:
        if coprime:
            connected, rule = YES, TAG_COPRIME
        elif H.p == H.q and (H.p - 1) * (2 * H.g - 2) * n < abs(num):
            connected, rule = YES, TAG_EQ_RANK_WINDOW
        else:
            connected = UNKNOWN

    r_smooth = UNKNOWN if within else NO
    if coprime and within:
        if not smooth:
            # Unreachable: coprimality forces 0 < |tau| < tau_max (the
            # extreme and zero values of qa - pb are multiples of p + q).
            raise AssertionError(
                "coprime type escaped the interior case: %r" % (H,)
            )
        r_smooth = YES
    # Only the rigid case cites a decomposition.
    rigidity_data = rigidity(H) if "rigidity_data" in tags else None

    # Positional, in field order: on CPython 3.11 the 18 keywords would
    # add about 1.5 us to a call that takes about 4 us without them.
    return Verdict(
        H,
        _ratio(num, n),  # tau
        tau_M,  # tau_max
        within,  # in_range
        saturated,
        coprime,
        case,
        stable,  # stable_nonempty
        expected_dim(H) if smooth else None,  # stable_smooth_dim
        closure,  # closure_of_stable_connected
        nonempty,  # full_space_nonempty
        connected,  # full_space_connected
        rigidity_data is not None,  # rigid
        rigidity_data,
        _SUBSPACE[nonempty, connected, stable, closure, r_smooth],  # r_gamma
        _SUBSPACE[nonempty, connected, stable, closure, UNKNOWN],  # r_pu
        dict(_CITATIONS[i, rule, r_smooth]),  # citations, the verdict's own
        rigidity_data.warnings if rigidity_data else (),
    )
