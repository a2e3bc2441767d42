"""Core invariants of holomorphic triples.

A holomorphic triple on a smooth projective curve of genus g is a pair of
bundles with a connecting map, T = (E1, E2, phi) with phi: E2 -> E1. Its
discrete type is (n1, n2, d1, d2) = (rk E1, rk E2, deg E1, deg E2), and all
of the invariants computed here depend on the type alone. Stability depends
on a rational parameter alpha through the alpha-slope

    mu_alpha(T) = (d1 + d2)/(n1 + n2) + alpha * n2/(n1 + n2),

and T is alpha-(semi)stable when every proper subtriple has strictly smaller
(or equal) alpha-slope. This module implements the closed-form consequences:
the admissible alpha interval, the named parameter thresholds (alpha_L too,
with no wall scan), the duality on types, the Euler characteristic
chi(T'', T') of the hypercohomology complex controlling Hom/Ext between
triples, and the dimension formulas it induces for the moduli space
N_alpha(n1, n2, d1, d2) and for the large-alpha fibration over bundle moduli.

Everything is exact: inputs are integers, outputs are integers or
``fractions.Fraction``. ``None`` marks +infinity for interval endpoints.
Violated preconditions raise :class:`~triplemoduli.errors.DomainError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, record, require_int, require_rational
from .rationals import Rational, _ratio


@record
class TripleType:
    """Discrete type (n1, n2, d1, d2) of a holomorphic triple.

    Ranks are nonnegative and not both zero; zero rank is allowed so that
    sub- and quotient-triple data (e.g. (0, 1, 0, 0)) can be expressed.
    """

    n1: int
    n2: int
    d1: int
    d2: int

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "d1", "d2"):
            require_int(name, getattr(self, name))
        if self.n1 < 0 or self.n2 < 0:
            raise DomainError("ranks must be nonnegative")
        if self.n1 == 0 and self.n2 == 0:
            raise DomainError("ranks must not both be zero")

    @property
    def total_rank(self) -> int:
        return self.n1 + self.n2

    @property
    def total_degree(self) -> int:
        return self.d1 + self.d2

    @property
    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n1, self.n2, self.d1, self.d2)


def require_ranks(
    T: TripleType, caller: str, ranks: str = "both ranks"
) -> None:
    """Refuse a type with a zero rank, naming the refusing function."""
    if T.n1 < 1 or T.n2 < 1:
        raise DomainError("%s needs %s >= 1" % (caller, ranks))


@record
class WitnessOutcome:
    """Evaluation of one claimed destabilizer against a triple."""

    witness: TripleType
    delta: Optional[Rational]
    satisfies: Optional[bool]
    error: Optional[str]


@record
class WitnessReport:
    """Result of checking a list of subtriple candidates at one alpha.

    ``passed`` is True when every witness was a valid candidate and every
    delta satisfied the required inequality. This certifies only that the
    listed witnesses do not destabilize; it is not a stability decision
    procedure, since the full subtriple set is never enumerated.
    """

    alpha: Rational
    strict: bool
    passed: bool
    items: tuple[WitnessOutcome, ...]


@record
class AlphaInterval:
    """Admissible stability parameters for a type.

    ``hi`` is None when n1 = n2 (the interval is unbounded above). ``empty``
    flags mu1 < mu2, where no alpha admits stable triples; ``single_point``
    flags mu1 = mu2 with n1 != n2, where the interval degenerates to {0}.
    """

    lo: Rational
    hi: Optional[Rational]
    empty: bool
    single_point: bool


@record
class Thresholds:
    """Named parameter thresholds of a type with mu1 >= mu2.

    When the input had n1 < n2 it is replaced by its dual (``dualized`` is
    then True) and every field refers to the dualized type; alpha_m and
    alpha_M are unchanged by that move. alpha_js lists alpha_j for
    j = 0..n2-1 (alpha_0 is its first entry), alpha_t exists only for
    n1 > n2, alpha_e = max(alpha_m, alpha_0, alpha_t), and alpha_L is the
    stabilization threshold: n(n-1)(mu1 - mu2) when n1 = n2, otherwise the
    largest interior wall, in closed form per rank pair (falling back to
    alpha_m, flagged, when there is none).
    """

    alpha_m: Rational
    alpha_M: Optional[Rational]
    alpha_0: Rational
    alpha_js: tuple[Rational, ...]
    alpha_t: Optional[Rational]
    alpha_e: Rational
    alpha_L: Rational
    alpha_L_is_fallback: bool
    dualized: bool


@record
class BaseFactor:
    """One factor of the base of the large-alpha fibration.

    kind is "stable_bundles" (params: rank, degree) or "symmetric_product"
    (params: degree of the divisors).
    """

    kind: str
    rank: Optional[int]
    degree: int


@record
class FibrationDims:
    """Projective fiber dimension and base of the large-alpha fibration.

    fiber_dim may be negative; that is reported through ``empty_fiber``
    rather than raised, since it simply certifies the fibration has empty
    fibers for that type. When the input had n1 < n2 the computation runs
    on the dual type (``via_duality``) and the base factors describe the
    dual's fibration; the moduli spaces are isomorphic.
    """

    fiber_dim: int
    empty_fiber: bool
    via_duality: bool
    base_factors: tuple[BaseFactor, ...]


def slope(n: int, d: int) -> Rational:
    """Slope d/n of a bundle of rank n >= 1 and degree d."""
    require_int("rank", n, 1)
    require_int("degree", d)
    return _ratio(d, n)


def triple_slope(T: TripleType) -> Rational:
    """Plain slope mu(T) = (d1 + d2)/(n1 + n2)."""
    return _ratio(T.total_degree, T.total_rank)


def alpha_slope(T: TripleType, alpha: Rational) -> Rational:
    """alpha-slope mu_alpha(T) = mu(T) + alpha * n2/(n1 + n2)."""
    require_rational("alpha", alpha)
    a = Fraction(alpha)
    return triple_slope(T) + a * _ratio(T.n2, T.total_rank)


def delta_alpha(T: TripleType, W: TripleType, alpha: Rational) -> Rational:
    """mu_alpha(W) - mu_alpha(T) for a subobject candidate W of T.

    W must satisfy 0 <= W.ni <= T.ni componentwise; W = T is allowed and
    gives 0. The sign convention: alpha-stability of T demands delta < 0
    for every proper subtriple.
    """
    if not (0 <= W.n1 <= T.n1 and 0 <= W.n2 <= T.n2):
        raise DomainError(
            "witness ranks (%d, %d) not within (%d, %d)" % (W.n1, W.n2, T.n1, T.n2)
        )
    return alpha_slope(W, alpha) - alpha_slope(T, alpha)


def witness_check(
    T: TripleType,
    witnesses: Sequence[TripleType],
    alpha: Rational,
    strict: bool = True,
) -> WitnessReport:
    """Evaluate claimed destabilizers of T at one parameter value.

    Each witness is checked independently; an invalid one (ranks outside
    [0, ni], zero ranks, or, in strict mode, W = T, which is not a proper
    subtriple) is recorded as a per-item error and the rest are still
    evaluated. A valid witness satisfies the stability inequality when
    delta < 0 (strict) or delta <= 0 (non-strict). ``passed`` requires all
    items valid and satisfied. Witnesses certify only themselves: this
    checks certificates, it does not decide alpha-stability.
    """
    require_rational("alpha", alpha)
    a = Fraction(alpha)
    items = []
    passed = True
    for W in witnesses:
        err = None
        if not (0 <= W.n1 <= T.n1 and 0 <= W.n2 <= T.n2):
            err = "ranks (%d, %d) not within (%d, %d)" % (W.n1, W.n2, T.n1, T.n2)
        elif strict and W == T:
            err = "equal to T, not a proper subtriple"
        if err is not None:
            items.append(WitnessOutcome(W, None, None, err))
            passed = False
            continue
        d = delta_alpha(T, W, a)
        ok = d < 0 if strict else d <= 0
        items.append(WitnessOutcome(W, d, ok, None))
        if not ok:
            passed = False
    return WitnessReport(a, strict, passed, tuple(items))


def alpha_range(T: TripleType) -> AlphaInterval:
    """Admissible interval [alpha_m, alpha_M] of stability parameters.

    alpha_m = mu1 - mu2 and, for n1 != n2,
    alpha_M = (1 + (n1 + n2)/|n1 - n2|) (mu1 - mu2); for n1 = n2 the
    interval is unbounded above (hi is None). In integers, with the gap
    numerator num = d1 n2 - d2 n1, alpha_m = num/(n1 n2) and
    alpha_M = 2 max(n1, n2) num/(|n1 - n2| n1 n2); the sign of num
    decides ``empty`` and ``single_point``.
    """
    require_ranks(T, "alpha_range")
    n1, n2 = T.n1, T.n2
    num = T.d1 * n2 - T.d2 * n1
    hi: Optional[Fraction] = None
    if n1 != n2:
        hi = _ratio(2 * max(n1, n2) * num, abs(n1 - n2) * n1 * n2)
    return AlphaInterval(
        lo=_ratio(num, n1 * n2),
        hi=hi,
        empty=num < 0,
        single_point=(num == 0 and n1 != n2),
    )


def dual(T: TripleType) -> TripleType:
    """Dual type (n2, n1, -d2, -d1); an involution preserving mu1 - mu2."""
    # unchecked: T's checks hold for the swapped ranks and negated degrees
    return TripleType._unchecked(T.n2, T.n1, -T.d2, -T.d1)


def _admissible_rank_pairs(T: TripleType):
    for n1p in range(T.n1 + 1):
        for n2p in range(T.n2 + 1):
            if n1p == 0 and n2p == 0:
                continue
            det = n1p * T.n2 - T.n1 * n2p
            if det == 0:
                continue
            yield n1p, n2p, det


def _alpha_L_equal_ranks(n: int, gap: Rational) -> Rational:
    """Stabilization threshold n(n-1)(mu1 - mu2) of a type with n1 = n2 = n."""
    return n * (n - 1) * gap


def thresholds(T: TripleType) -> Thresholds:
    """Named thresholds alpha_m, alpha_M, alpha_j, alpha_t, alpha_e, alpha_L.

    Requires mu1 >= mu2 (otherwise the admissible range is empty and no
    threshold exists). Types with n1 < n2 are replaced by their dual, which
    preserves mu1 - mu2 and hence alpha_m and alpha_M; the remaining fields
    then refer to the dualized type and ``dualized`` is set.

    For j = 0..n2-1 (computed on the dualized type, where n1 >= n2),

        alpha_j = 2 n1 n2 (mu1 - mu2) / (n2 (n1 - n2) + (j + 1)(n1 + n2)),

    a strictly decreasing sequence when mu1 > mu2; alpha_0 bounds the region
    where the connecting map must be injective-generic, and for n1 > n2

        alpha_t = alpha_M - (n1 + n2)/(n2 (n1 - n2))

    bounds where it must be surjective-generic. alpha_e is the entry
    threshold max(alpha_m, alpha_0, alpha_t). In integers, with the gap
    numerator num = d1 n2 - d2 n1 of the dualized type,
    alpha_j = 2 num/(n2 (n1 - n2) + (j + 1)(n1 + n2)) and
    alpha_t = (2 num - (n1 + n2))/(n2 (n1 - n2)).
    """
    require_ranks(T, "thresholds")
    dualized = False
    S = T
    if S.n1 < S.n2:
        S = dual(S)
        dualized = True
    rng = alpha_range(S)
    gap = alpha_m = rng.lo
    alpha_M = rng.hi
    if rng.empty:
        raise DomainError(
            "thresholds needs mu1 >= mu2; mu1 - mu2 = %s < 0 means the "
            "admissible alpha range is empty" % (gap,)
        )
    n1, n2 = S.n1, S.n2
    n = n1 + n2
    num2 = 2 * (S.d1 * n2 - S.d2 * n1)
    alpha_js = tuple(
        _ratio(num2, n2 * (n1 - n2) + (j + 1) * n) for j in range(n2)
    )
    alpha_0 = alpha_js[0]
    alpha_t: Optional[Fraction] = None
    if n1 > n2:
        alpha_t = _ratio(num2 - n, n2 * (n1 - n2))
    candidates = [alpha_m, alpha_0]
    if alpha_t is not None:
        candidates.append(alpha_t)
    alpha_e = max(candidates)
    if n1 == n2:
        alpha_L = _alpha_L_equal_ranks(n1, gap)
        fallback = False
    else:
        # largest interior wall. A rank pair and its complement
        # (n1 - n1', n2 - n2') have opposite det and the same walls, so
        # only det = n1' n2 - n1 n2' < 0 is scanned, that is
        # n2' > n1' n2 / n1, which also leaves out (0, 0); there the wall
        # falls as d' grows, and the largest one below alpha_M = P/Q is at
        # d' = floor(x/(Q n)) + 1 with x = P det + Q (n1' + n2') D. The
        # best wall so far is kept as num/den with den > 0 and compared by
        # cross-multiplying.
        assert alpha_M is not None
        D = S.total_degree
        P, Q = alpha_M.numerator, alpha_M.denominator
        Qn = Q * n
        num, den = alpha_m.numerator, alpha_m.denominator
        fallback = True
        for n1p in range(n1 + 1):
            for n2p in range(n1p * n2 // n1 + 1, n2 + 1):
                det = n1p * n2 - n1 * n2p
                nD = (n1p + n2p) * D
                wall = nD - n * ((P * det + Q * nD) // Qn + 1)
                if wall * den > num * -det:
                    num, den, fallback = wall, -det, False
        alpha_L = alpha_m if fallback else _ratio(num, den)
    return Thresholds(
        alpha_m=alpha_m,
        alpha_M=alpha_M,
        alpha_0=alpha_0,
        alpha_js=alpha_js,
        alpha_t=alpha_t,
        alpha_e=alpha_e,
        alpha_L=alpha_L,
        alpha_L_is_fallback=fallback,
        dualized=dualized,
    )


def chi(Tpp: TripleType, Tp: TripleType, g: int) -> int:
    """Euler characteristic chi(T'', T') of the Hom complex on genus g.

    This is chi of the two-term complex computing Hom(T'', T') and
    Ext^1(T'', T'), whose value depends only on the two types:

        chi = (1-g)(n1'' n1' + n2'' n2' - n2'' n1')
              + n1'' d1' - n1' d1'' + n2'' d2' - n2' d2''
              - n2'' d1' + n1' d2''.

    In particular extensions 0 -> T' -> T -> T'' -> 0 are governed by
    Ext^1(T'', T'), of dimension -chi(T'', T') whenever the boundary
    cohomologies vanish.
    """
    require_int("genus", g, 2)
    a1, a2, x1, x2 = Tpp.as_tuple
    b1, b2, y1, y2 = Tp.as_tuple
    rank_part = (1 - g) * (a1 * b1 + a2 * b2 - a2 * b1)
    deg_part = a1 * y1 - b1 * x1 + a2 * y2 - b2 * x2 - a2 * y1 + b1 * x2
    return rank_part + deg_part


def dim_stable_moduli(T: TripleType, g: int) -> int:
    """Dimension of the smooth stable moduli space at a generic parameter.

    Equals 1 - chi(T, T) = (g-1)(n1^2 + n2^2 - n1 n2) + n2 d1 - n1 d2 + 1.
    """
    require_int("genus", g, 2)
    return 1 - chi(T, T, g)


def fibration_dims(T: TripleType, g: int) -> FibrationDims:
    """Fiber and base of the fibration of the large-alpha moduli space.

    For n1 > n2 the space fibers over M(n1 - n2, d1 - d2) x M(n2, d2) with
    projective fibers of dimension

        N = n2 d1 - n1 d2 + n1 (n1 - n2)(g - 1) - 1,

    and for n1 = n2 = n over M(n, d2) x Sym^(d1 - d2)(X) with fibers of
    dimension N = n (d1 - d2) - 1. Types with n1 < n2 are handled through
    the dual. Negative N is reported, not raised.
    """
    require_int("genus", g, 2)
    require_ranks(T, "fibration_dims")
    via_duality = False
    S = T
    if S.n1 < S.n2:
        S = dual(S)
        via_duality = True
    n1, n2, d1, d2 = S.as_tuple
    if n1 > n2:
        fiber = n2 * d1 - n1 * d2 + n1 * (n1 - n2) * (g - 1) - 1
        base = (
            BaseFactor("stable_bundles", n1 - n2, d1 - d2),
            BaseFactor("stable_bundles", n2, d2),
        )
    else:
        fiber = n1 * (d1 - d2) - 1
        base = (
            BaseFactor("stable_bundles", n1, d2),
            BaseFactor("symmetric_product", None, d1 - d2),
        )
    return FibrationDims(
        fiber_dim=fiber,
        empty_fiber=fiber < 0,
        via_duality=via_duality,
        base_factors=base,
    )
