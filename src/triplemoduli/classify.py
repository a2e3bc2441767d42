"""Executable classifier for moduli of signature-(p, q) surface group
representations and the equivalent Higgs moduli.

Given (p, q, a, b, g) this module decides, by exact case analysis on
the Toledo invariant, what is known about the moduli space M(a, b) of
polystable Higgs bundles of that type: nonemptiness, connectedness,
smoothness and dimension of the stable locus, and rigidity at the
extreme Toledo values. The case analysis is one ordered table of
cases: the first case whose test holds decides, and in the interior
case two sub-rules refine connectedness of the full space. Each
definite answer carries a citation tag (a stable string naming the
structural fact it rests on), and questions the case analysis does not
settle are reported as "unknown" rather than guessed.

Verdicts for the two associated representation varieties are derived:
R_Gamma (the lift to the universal central extension) shares all
topological answers with M through the nonabelian Hodge
correspondence, and R (the flat-bundle variety proper) inherits
nonemptiness and connectedness through a fibration with connected
fibres. No smoothness claim is ever made for R.
"""

from __future__ import annotations

from typing import Optional

from .errors import record
from .higgs import (
    HiggsType,
    RigidityReport,
    coprime_smooth,
    expected_dim,
    rigidity,
    toledo,
)
from .rationals import Rational

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
    stable_smooth_dim: Optional[int]
    closure_of_stable_connected: str
    full_space_nonempty: str
    full_space_connected: str
    rigid: bool
    rigidity_data: Optional[RigidityReport]
    r_gamma: SubspaceVerdict
    r_pu: SubspaceVerdict
    citations: dict[str, str]
    warnings: tuple[str, ...]


# The cases in priority order. A row gives the name, the test on
# (H, toledo(H)), the four tri-state fields in Verdict order (None: the
# sub-rules decide), whether the stable locus is smooth of the expected
# dimension, and the citation tags in report order.
_CASES = (
    ("out-of-range", lambda H, t: not t.within_bound,
     NO, NO, NO, NO, False,
     {"stable_nonempty": TAG_MILNOR_WOOD,
      "closure_of_stable_connected": TAG_MILNOR_WOOD,
      "full_space_nonempty": TAG_MILNOR_WOOD,
      "full_space_connected": TAG_MILNOR_WOOD}),
    ("zero-toledo", lambda H, t: t.tau == 0,
     UNKNOWN, UNKNOWN, YES, YES, False,
     {"full_space_nonempty": TAG_ZERO_TOLEDO,
      "full_space_connected": TAG_ZERO_TOLEDO}),
    ("interior-toledo", lambda H, t: not t.saturated,
     YES, YES, YES, None, True,
     {"stable_nonempty": TAG_INTERIOR,
      "stable_smooth_dim": TAG_INTERIOR,
      "closure_of_stable_connected": TAG_INTERIOR,
      "full_space_nonempty": TAG_INTERIOR}),
    ("maximal-toledo-equal-ranks", lambda H, t: H.p == H.q,
     YES, YES, YES, YES, True,
     {"stable_nonempty": TAG_EQ_RANK_MAX,
      "stable_smooth_dim": TAG_EQ_RANK_MAX,
      "closure_of_stable_connected": TAG_EQ_RANK_MAX,
      "full_space_nonempty": TAG_EQ_RANK_MAX,
      "full_space_connected": TAG_EQ_RANK_MAX}),
    ("maximal-toledo-rigid", lambda H, t: True,
     NO, NO, YES, YES, False,
     {"stable_nonempty": TAG_RIGIDITY,
      "closure_of_stable_connected": TAG_RIGIDITY,
      "full_space_nonempty": TAG_UNEQ_MAX_CONN,
      "full_space_connected": TAG_UNEQ_MAX_CONN,
      "rigidity_data": TAG_RIGIDITY}),
)


def classify(H: HiggsType) -> Verdict:
    """Run the full case analysis for one input type.

    Out-of-range Toledo kills everything; zero Toledo gives a nonempty
    connected space with the stable locus left open; strictly interior
    Toledo gives a nonempty smooth stable locus of the expected
    dimension with connected closure, and the full space is connected
    when gcd(p+q, a+b) = 1 or else in the equal-rank window
    (p-1)(2g-2) < |tau|; maximal Toledo splits into the equal-rank case
    (everything connected, stable locus alive) and the unequal-rank
    rigidity case (stable locus empty, the space is a product of
    smaller moduli, yet still connected).
    """
    t = toledo(H)
    coprime = coprime_smooth(H)
    for row in _CASES:
        if row[1](H, t):
            break
    case, _, stable, closure, nonempty, connected, smooth, tags = row
    citations = dict(tags)
    if connected is None:
        if coprime:
            connected = YES
            citations["full_space_connected"] = TAG_COPRIME
        elif H.p == H.q and (H.p - 1) * (2 * H.g - 2) < abs(t.tau):
            connected = YES
            citations["full_space_connected"] = TAG_EQ_RANK_WINDOW
        else:
            connected = UNKNOWN

    r_smooth = UNKNOWN if t.within_bound else NO
    if coprime and t.within_bound:
        if not smooth:
            # Unreachable: coprimality forces 0 < |tau| < tau_max (the
            # extreme and zero values of qa - pb are multiples of p + q).
            raise AssertionError(
                "coprime type escaped the interior case: %r" % (H,)
            )
        r_smooth = YES
        citations["r_gamma.smooth_of_expected_dim"] = TAG_COPRIME
    citations["r_gamma"] = TAG_CORRESPONDENCE
    citations["r_pu"] = TAG_FIBRATION
    # Only the rigid case cites a decomposition.
    rigidity_data = rigidity(H) if "rigidity_data" in tags else None

    return Verdict(
        higgs=H,
        tau=t.tau,
        tau_max=t.tau_M,
        in_range=t.within_bound,
        saturated=t.saturated,
        coprime=coprime,
        case=case,
        stable_nonempty=stable,
        stable_smooth_dim=expected_dim(H) if smooth else None,
        closure_of_stable_connected=closure,
        full_space_nonempty=nonempty,
        full_space_connected=connected,
        rigid=rigidity_data is not None,
        rigidity_data=rigidity_data,
        r_gamma=SubspaceVerdict(nonempty, connected, stable, closure, r_smooth),
        r_pu=SubspaceVerdict(nonempty, connected, stable, closure, UNKNOWN),
        citations=citations,
        warnings=rigidity_data.warnings if rigidity_data else (),
    )
