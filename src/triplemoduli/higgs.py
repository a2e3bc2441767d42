"""Bridge between U(p,q) Higgs data and triple types.

A U(p,q)-Higgs bundle is V + W with Higgs field components b: W -> V x K
and c: V -> W x K; its discrete data is (p, q, a, b) = (rk V, rk W, deg V,
deg W) together with the genus g. The Toledo invariant

    tau = 2 (q a - p b)/(p + q)

is bounded by tau_M = min(p, q)(2g - 2), and the minima of the Morse
function on the moduli space are exactly the loci where one Higgs component
vanishes; those minima form a triple moduli space at parameter alpha =
2g - 2. This module computes tau and its bound, the minima triple type, the
resulting placement facts relating 2g - 2 to the triple thresholds, the
expected moduli dimension 1 + (p+q)^2 (g-1), the vanishing pattern, the
coprimality smoothness test, and the decomposition forced at maximal tau
with p != q (rigidity), whose total dimension falls below the expected one.
"""

from __future__ import annotations

import itertools
import math

from .errors import record, require_int
from .rationals import Rational, _ratio
from .triples import TripleType


@record
class HiggsType:
    """Discrete type (p, q, a, b) on a curve of genus g."""

    p: int
    q: int
    a: int
    b: int
    g: int

    def __post_init__(self) -> None:
        # one test for the common case; the checks below decide the rest
        if (
            type(self.p) is type(self.q) is type(self.a) is type(self.b)
            is type(self.g) is int
            and self.p >= 1
            and self.q >= 1
            and self.g >= 2
        ):
            return
        require_int("p", self.p, 1)
        require_int("q", self.q, 1)
        require_int("a", self.a)
        require_int("b", self.b)
        require_int("genus", self.g, 2)

    @property
    def total_rank(self) -> int:
        return self.p + self.q

    @property
    def total_degree(self) -> int:
        return self.a + self.b


@record
class ToledoReport:
    """Toledo invariant tau, its bound tau_M = min(p, q)(2g - 2), and the
    flags |tau| <= tau_M (``within_bound``) and |tau| = tau_M
    (``saturated``)."""

    tau: Rational
    tau_M: int
    within_bound: bool
    saturated: bool


@record
class MinimaRealization:
    """Triple-moduli description of the Morse minima for one Higgs type.

    case_tag records which Higgs component vanishes on the minima locus
    (gamma_zero when a/p < b/q, beta_zero when a/p > b/q, both_zero at the
    tie); the triple is taken at alpha = 2g - 2. At the tie the minima are
    plain bundle pairs and ``product_factors`` lists the two bundle moduli
    (rank, degree) factors.
    """

    case_tag: str
    triple: TripleType
    alpha: Rational
    product_factors: tuple[tuple[int, int], tuple[int, int]] | None


@record
class MWReport:
    """Placement of 2g - 2 against the minima triple's thresholds.

    The named facts are theorems and should all hold; they are reported as
    booleans so sweeps can assert them. alpha_M is None when p = q (the
    minima triple then has equal ranks and an unbounded range, and the
    bound is governed by alpha_m >= 0 instead).
    """

    tau: Rational
    tau_M: int
    within_bound: bool
    saturated: bool
    triple: TripleType
    alpha_m: Rational
    alpha_M: Rational | None
    two_g_minus_2: int
    alpha_m_vs_2g2: str
    alpha_M_vs_2g2: str | None
    facts: tuple[tuple[str, bool], ...]


@record
class RigidityReport:
    """Forced decomposition at |tau| = tau_M with p != q.

    Every semistable object then splits as a maximal-Toledo U(m,m) piece
    (m = min(p,q)) and a bundle of rank |p - q|; factor1 is the U(m,m)
    type, factor2 the (rank, degree) of the bundle. dim_sum adds the two
    factor moduli dimensions; dim_sum_closed_form evaluates
    2 + (4 m^2 + (p-q)^2)(g-1), which equals 2 + (5p^2 + q^2 - 2pq)(g-1)
    when p < q. The stable locus is empty and dim_sum < expected_dim.
    """

    applies: bool
    reason: str | None
    factor1: HiggsType | None
    factor2_rank: int | None
    factor2_degree: int | None
    dim_sum: int | None
    dim_sum_closed_form: int | None
    expected_dim: int
    below_expected: bool | None
    warnings: tuple[str, ...]


RIGIDITY_DIM_WARNING = (
    "rigidity-dimension-erratum: the closed form is sometimes printed with "
    "transposed rank coefficients as 2+(p^2+5q^2-2pq)(g-1); the component "
    "sum, 2+(5p^2+q^2-2pq)(g-1) for p < q, is the correct value and is what "
    "dim_sum reports"
)


def _toledo_ints(H: HiggsType) -> tuple[int, int, int, bool, bool]:
    """(num, n, tau_M, within_bound, saturated) with tau = num/n:
    num = 2(qa - pb), n = p + q, and the flags compare |num| with
    tau_M n in integers."""
    n = H.p + H.q
    num = 2 * (H.q * H.a - H.p * H.b)
    tau_M = min(H.p, H.q) * (2 * H.g - 2)
    bound = tau_M * n
    return num, n, tau_M, abs(num) <= bound, abs(num) == bound


def toledo(H: HiggsType) -> ToledoReport:
    """Toledo invariant, its bound tau_M = min(p,q)(2g-2), and flags.

    The flags compare |2(qa - pb)| with tau_M (p + q) in integers.
    """
    num, n, tau_M, within, saturated = _toledo_ints(H)
    return ToledoReport(
        tau=_ratio(num, n),
        tau_M=tau_M,
        within_bound=within,
        saturated=saturated,
    )


def expected_dim(H: HiggsType) -> int:
    """Expected (smooth) moduli dimension 1 + (p+q)^2 (g-1)."""
    return 1 + (H.p + H.q) ** 2 * (H.g - 1)


def vanishing_pattern(H: HiggsType) -> str:
    """Which Higgs component vanishes on the minima locus.

    gamma_zero iff a/p < b/q, beta_zero iff a/p > b/q, both_zero at the
    tie (equivalently tau = 0).
    """
    lhs = H.a * H.q
    rhs = H.b * H.p
    if lhs < rhs:
        return "gamma_zero"
    if lhs > rhs:
        return "beta_zero"
    return "both_zero"


def _minima_triple(H: HiggsType, num: int) -> tuple[str, TripleType]:
    """Vanishing pattern and minima triple type (see minima_triple_type),
    from num = 2(qa - pb) of _toledo_ints(H): the pattern is that of
    vanishing_pattern, beta_zero iff num > 0 and both_zero iff num = 0,
    since a/p > b/q iff qa > pb."""
    two = 2 * H.g - 2
    # unchecked: HiggsType.__post_init__ has checked p, q >= 1 and that
    # a, b and g are ints, so the ranks are positive and the degrees ints
    if num > 0:
        return "beta_zero", TripleType._unchecked(
            H.q, H.p, H.b + H.q * two, H.a
        )
    return (
        "gamma_zero" if num else "both_zero",
        TripleType._unchecked(H.p, H.q, H.a + H.p * two, H.b),
    )


def minima_triple_type(H: HiggsType) -> MinimaRealization:
    """Triple type whose (2g-2)-moduli realizes the Morse minima.

    For a/p <= b/q the minima are N_{2g-2}(p, q, a + p(2g-2), b); for
    a/p >= b/q they are N_{2g-2}(q, p, b + q(2g-2), a). At the tie both
    descriptions degenerate to the product of bundle moduli
    M(p, a) x M(q, b); the gamma_zero-form triple is reported there.
    """
    pattern, triple = _minima_triple(H, _toledo_ints(H)[0])
    return MinimaRealization(
        case_tag=pattern,
        triple=triple,
        alpha=_ratio(2 * H.g - 2, 1),
        product_factors=(
            ((H.p, H.a), (H.q, H.b)) if pattern == "both_zero" else None
        ),
    )


# "<", "=" or ">" indexed by sign + 1
_CMP = "<=>"


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


# Every facts tuple of an MWReport, keyed by (p = q, then the four
# booleans in report order): the first two facts are named alike for
# all ranks, the last two compare the Toledo flags with alpha_M when
# p != q and with alpha_m when p = q.
_FACTS = {
    (equal, *flags): tuple(
        zip(("two_g_minus_2_ge_alpha_m", "alpha_m_equality_iff_tau_zero")
            + last, flags)
    )
    for equal, last in (
        (False, ("within_bound_iff_2g2_le_alpha_M",
                 "saturated_iff_2g2_eq_alpha_M")),
        (True, ("within_bound_iff_alpha_m_nonneg",
                "saturated_iff_alpha_m_zero")),
    )
    for flags in itertools.product((False, True), repeat=4)
}


def mw_relations(H: HiggsType) -> MWReport:
    """Milnor-Wood bound restated through the minima triple's range.

    Always 2g-2 >= alpha_m, with equality iff tau = 0. For p != q the
    bound |tau| <= tau_M is equivalent to 2g-2 <= alpha_M, saturation to
    equality; for p = q it is equivalent to alpha_m >= 0, saturation to
    alpha_m = 0. The endpoints are the closed forms of ``alpha_range``,
    read off the minima triple's integers: with the gap numerator
    gap = d1 n2 - d2 n1, alpha_m = gap/(n1 n2) and
    alpha_M = 2 max(n1, n2) gap/(|n1 - n2| n1 n2). Each is placed
    against 2g-2 by the sign of one unreduced cross-product, and the
    facts compare that placement with the integer Toledo flags. The
    Toledo numerator num also picks the minima triple, and the facts
    tuple comes from the module table _FACTS, so the call builds no
    container but the returned records.
    """
    num, n, tau_M, within, saturated = _toledo_ints(H)
    _, Tm = _minima_triple(H, num)
    n1, n2 = Tm.n1, Tm.n2
    nn = n1 * n2
    gap = Tm.d1 * n2 - Tm.d2 * n1
    two = 2 * H.g - 2
    # signs of 2g-2 - alpha_m and 2g-2 - alpha_M (denominators are > 0)
    vs_m = _sign(two * nn - gap)
    if n1 != n2:
        top = 2 * max(n1, n2) * gap
        den = abs(n1 - n2) * nn
        alpha_M: Rational | None = _ratio(top, den)
        vs_M = _sign(two * den - top)
        alpha_M_vs: str | None = _CMP[vs_M + 1]
        within_fact = within == (vs_M <= 0)
        saturated_fact = saturated == (vs_M == 0)
    else:
        alpha_M = alpha_M_vs = None
        within_fact = within == (gap >= 0)
        saturated_fact = saturated == (gap == 0)
    # Positional, in field order: on CPython 3.11 the 11 keywords would
    # add about 0.5 us to the call.
    return MWReport(
        _ratio(num, n),  # tau
        tau_M,
        within,  # within_bound
        saturated,
        Tm,  # triple
        _ratio(gap, nn),  # alpha_m
        alpha_M,
        two,  # two_g_minus_2
        _CMP[1 - vs_m],  # alpha_m_vs_2g2
        alpha_M_vs,  # alpha_M_vs_2g2
        _FACTS[
            n1 == n2,
            vs_m >= 0,
            (vs_m == 0) == (num == 0),
            within_fact,
            saturated_fact,
        ],
    )


def coprime_smooth(H: HiggsType) -> bool:
    """gcd(p+q, a+b) = 1: no strictly semistable objects exist."""
    return math.gcd(H.p + H.q, H.a + H.b) == 1


def rigidity(H: HiggsType) -> RigidityReport:
    """Decomposition data at maximal Toledo invariant with p != q.

    Applies iff p != q and |tau| = tau_M. The U(min,min) factor keeps the
    sign of tau (its own Toledo invariant is saturated with the same
    sign); the leftover bundle absorbs the remaining rank and degree.
    When not applicable the factor fields are None and ``reason`` says
    why.
    """
    num, _, _, _, saturated = _toledo_ints(H)
    exp = expected_dim(H)
    if H.p == H.q or not saturated:
        reason = (
            "requires p != q" if H.p == H.q else "requires |tau| = tau_M"
        )
        return RigidityReport(
            applies=False,
            reason=reason,
            factor1=None,
            factor2_rank=None,
            factor2_degree=None,
            dim_sum=None,
            dim_sum_closed_form=None,
            expected_dim=exp,
            below_expected=None,
            warnings=(),
        )
    m = min(H.p, H.q)
    shift = (1 if num > 0 else -1) * m * (2 * H.g - 2)
    # unchecked: m = min(p, q) >= 1, and H's checks made the degrees and
    # g ints with g >= 2
    if H.p < H.q:
        f1 = HiggsType._unchecked(m, m, H.a, H.a - shift, H.g)
        f2 = (H.q - m, H.b - f1.b)
    else:
        f1 = HiggsType._unchecked(m, m, H.b + shift, H.b, H.g)
        f2 = (H.p - m, H.a - f1.a)
    dim_sum = expected_dim(f1) + (1 + f2[0] ** 2 * (H.g - 1))
    closed = 2 + (4 * m * m + (H.p - H.q) ** 2) * (H.g - 1)
    assert dim_sum == closed
    return RigidityReport(
        applies=True,
        reason=None,
        factor1=f1,
        factor2_rank=f2[0],
        factor2_degree=f2[1],
        dim_sum=dim_sum,
        dim_sum_closed_form=closed,
        expected_dim=exp,
        below_expected=dim_sum < exp,
        warnings=(RIGIDITY_DIM_WARNING,),
    )
