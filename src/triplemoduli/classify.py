"""Executable classifier for moduli of signature-(p, q) surface group
representations and the equivalent Higgs moduli.

Given (p, q, a, b, g) this module decides, by exact case analysis on
the Toledo invariant, what is known about the moduli space M(a, b) of
polystable Higgs bundles of that type: nonemptiness, connectedness,
smoothness and dimension of the stable locus, and rigidity at the
extreme Toledo values. Each definite answer carries a citation tag (a
stable string naming the structural fact it rests on), and questions
the case analysis does not settle are reported as "unknown" rather
than guessed.

Verdicts for the two associated representation varieties are derived:
R_Gamma (the lift to the universal central extension) shares all
topological answers with M through the nonabelian Hodge
correspondence, and R (the flat-bundle variety proper) inherits
nonemptiness and connectedness through a fibration with connected
fibres. No smoothness claim is ever made for R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class SubspaceVerdict:
    """Answers for one of the derived representation varieties."""

    nonempty: str
    connected: str
    stable_nonempty: str
    closure_of_stable_connected: str
    smooth_of_expected_dim: str


@dataclass(frozen=True)
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


def classify(H: HiggsType) -> Verdict:
    """Run the full case analysis for one input type.

    Case priority: out-of-range Toledo kills everything; zero Toledo
    gives a nonempty connected space with the stable locus left open;
    strictly interior Toledo gives a nonempty smooth stable locus of
    the expected dimension with connected closure, and the full space
    is connected when gcd(p+q, a+b) = 1 or in the equal-rank window
    (p-1)(2g-2) < |tau|; maximal Toledo splits into the equal-rank case
    (everything connected, stable locus alive) and the unequal-rank
    rigidity case (stable locus empty, the space is a product of
    smaller moduli, yet still connected).
    """
    t = toledo(H)
    tau, in_range, saturated = t.tau, t.within_bound, t.saturated
    coprime = coprime_smooth(H)
    citations: dict[str, str] = {}
    warnings: tuple[str, ...] = ()
    rigid = False
    rigidity_data: Optional[RigidityReport] = None
    stable_smooth_dim: Optional[int] = None

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

