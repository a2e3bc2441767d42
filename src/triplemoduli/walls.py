"""Critical values of the stability parameter and what happens across them.

The alpha-slope comparison between a triple of type (n1, n2, d1, d2) and a
subobject candidate of type (n1', n2', d') (d' is the total degree; the
comparison only sees the sum) degenerates to equality on the locus

    alpha = ((n1 + n2) d' - (n1' + n2')(d1 + d2)) / (n1' n2 - n1 n2'),

defined whenever the denominator is nonzero. The alpha values obtained this
way as (n1', n2', d') ranges over numerically admissible data are the walls:
away from them alpha-stability is locally constant, and crossing one changes
the moduli space along flip loci whose dimensions are controlled by the
Euler characteristics chi of the pieces.

Walls here are arithmetic: every geometric critical value appears, but an
arithmetic wall need not be realized by an actual strictly semistable
triple. All outputs are deterministic and exact.

Every wall of a type lies on the lattice (1/L)Z, where L is the lcm of
|n1' n2 - n1 n2'| over the admissible rank pairs, so the scan keys each
candidate by its integer numerator k = alpha L and builds one Fraction per
wall; is_critical tests alpha = p/q by the divisibility of
p (n1' n2 - n1 n2') + q (n1' + n2')(d1 + d2) by q (n1 + n2). One plan
(_wall_plan) resolves the window and one scan (_grouped) groups its
candidates by key, one key window of about 8,192 candidates at a time,
so its grouping dict holds one window, whatever the request:
enumerate_walls and chambers build Wall records from it, and _wall_rows
the int rows the CLI writes, alpha in lowest terms, with no Fraction or
record per wall. All three pause the cyclic collector while they build
(errors._gc_paused): walls and witnesses hold no cycle.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from typing import Optional

from .errors import (
    DomainError,
    _gc_paused,
    record,
    require_int,
    require_rational,
)
from .rationals import Rational, _ratio
from .triples import (
    TripleType,
    _admissible_rank_pairs,
    _alpha_L_equal_ranks,
    alpha_range,
    chi,
    dim_stable_moduli,
    require_ranks,
)


@record
class WallWitness:
    """Numerically admissible subobject data (n1', n2', d1'+d2')."""

    n1p: int
    n2p: int
    dsum: int


@record
class Wall:
    """A critical parameter value with its arithmetic witnesses.

    ``stabilized`` is set (only for n1 = n2) on walls above the
    stabilization threshold alpha_L = n(n-1)(mu1 - mu2), where crossing no
    longer changes the moduli space.
    """

    alpha: Rational
    witnesses: tuple[WallWitness, ...]
    stabilized: bool = False


@record
class WallTest:
    """Answer of is_critical at one parameter value."""

    alpha: Rational
    critical: bool
    witnesses: tuple[WallWitness, ...]


@record
class GenericityFacts:
    """Sufficient-condition checks for an integer parameter m.

    ``guaranteed_noncritical``: gcd(n1+n2, d1+d2 - m n1) = 1 forces m to be
    no wall. ``no_alpha_independent``: gcd(n2, n1+n2, d1+d2) = 1 rules out
    subobject data that destabilizes for every alpha simultaneously. Both
    are sufficient only: False means "no guarantee", never "critical".
    """

    guaranteed_noncritical: bool
    no_alpha_independent: bool


@record
class Chamber:
    """Maximal open parameter interval containing no wall."""

    lo: Rational
    hi: Rational
    contains_2g_minus_2: bool
    is_large_chamber: bool


@record
class ChamberReport:
    """Chamber decomposition of the admissible range.

    ``walls`` are the separators strictly inside (alpha_m, top). The marker
    is alpha = 2g-2 (where triple moduli meet Higgs moduli);
    ``marker_status`` is one of inside, on_wall, at_alpha_m, at_alpha_M,
    below_range, above_range. ``flips_to_large`` counts the walls between
    the marker's chamber and the nearest large chamber (None when the
    marker is not interior to a chamber). ``alpha_L`` is reported for
    n1 = n2 only.
    """

    chambers: tuple[Chamber, ...]
    walls: tuple[Wall, ...]
    alpha_m: Rational
    top: Rational
    top_is_alpha_M: bool
    alpha_L: Optional[Rational]
    marker: Rational
    marker_status: str
    marker_chamber: Optional[int]
    flips_to_large: Optional[int]


@record
class FlipDims:
    """Dimension data of the flip locus attached to one split T' + T'' = T.

    The locus of triples sitting in extensions 0 -> T' -> T -> T'' -> 0
    fibers over the product of the factor moduli with projectivized
    extension spaces as fibers, giving

        stilde_dim = 1 - chi(T',T') - chi(T'',T'') - chi(T'',T''->T' cross)

    with fiber dimension ``minus_chi_cross`` - 1 = -chi(T'',T') - 1 (a
    negative value certifies the extension space is empty for every choice
    of factors; reported, not raised). The two cross terms need not be
    equal; by additivity of chi the exact identity is

        dim_moduli = stilde_dim + minus_chi_cross_rev,

    with minus_chi_cross_rev = -chi(T',T''), and codim_in_moduli is defined
    by that difference. ``guaranteed_codim`` = g-1 bounds it below only
    on a genuine flip locus: T' and T'' alpha_c-semistable, and degree 0
    on any piece of rank 0. ``flip_dims`` checks only (C1) and (C2), so
    a split can report less. ``side`` says which one-sided locus the
    split can feed: "plus" when n2'/(n1'+n2') < n2''/(n1''+n2''), else
    "minus".
    """

    stilde_dim: int
    minus_chi_cross: int
    minus_chi_cross_rev: int
    guaranteed_codim: int
    alpha_c: Rational
    side: str
    fiber_dim: int
    fiber_nonempty: bool
    dim_moduli: int
    codim_in_moduli: int


def wall_alpha(T: TripleType, n1p: int, n2p: int, dsum: int) -> Rational:
    """Parameter value where the candidate's alpha-slope meets T's.

    Requires 0 <= nip <= ni, (n1p, n2p) != (0, 0) and a non-proportional
    rank pair (n1p n2 != n1 n2p), else no single wall exists.
    """
    require_int("n1p", n1p)
    require_int("n2p", n2p)
    require_int("dsum", dsum)
    if not (0 <= n1p <= T.n1 and 0 <= n2p <= T.n2):
        raise DomainError("witness ranks out of bounds")
    if n1p == 0 and n2p == 0:
        raise DomainError("witness ranks must not both be zero")
    det = n1p * T.n2 - T.n1 * n2p
    if det == 0:
        raise DomainError(
            "rank pair (%d, %d) is proportional to (%d, %d); the slopes are "
            "parallel in alpha" % (n1p, n2p, T.n1, T.n2)
        )
    num = T.total_rank * dsum - (n1p + n2p) * T.total_degree
    if det < 0:
        num, det = -num, -det
    return _ratio(num, det)


def _wall_plan(
    T: TripleType,
    interval: Optional[tuple[Rational, Rational]],
    include_endpoints: bool,
    g: Optional[int],
) -> tuple[Fraction, Optional[Fraction], Optional[Fraction], int, list, list]:
    """The one place that resolves and validates a wall scan's window, as
    enumerate_walls documents (a given g is checked even when unused).

    Returns (lo, hi, alpha_L, L, drop, plan): the closed window [lo, hi],
    alpha_L (None for n1 != n2), the lattice denominator L, the keys of
    the range endpoints to drop (none with ``include_endpoints``), and one
    (n1', n2', d'-range, key-range) entry per admissible rank pair, in
    (n1', n2') order, where the i-th d' meets the wall alpha = k/L with k
    the i-th key. An empty default range gives an empty plan.
    """
    require_ranks(T, "enumerate_walls")
    if g is not None:
        require_int("genus", g, 2)
    rng = alpha_range(T)
    aL = _alpha_L_equal_ranks(T.n1, rng.lo) if T.n1 == T.n2 else None
    if interval is None:
        if rng.empty:
            return rng.lo, rng.hi, aL, 1, [], []
        lo = rng.lo
        if aL is not None:
            if g is None:
                raise DomainError(
                    "the wall set for n1 = n2 is unbounded; pass an explicit "
                    "interval or g for the default horizon max(alpha_L, 2g-2, alpha_m)+1"
                )
            hi = max(aL, _ratio(2 * g - 2, 1), lo) + 1
        else:
            assert rng.hi is not None
            hi = rng.hi
    else:
        require_rational("interval lo", interval[0])
        require_rational("interval hi", interval[1])
        lo = Fraction(interval[0])
        hi = Fraction(interval[1])
        if lo > hi:
            raise DomainError("interval lo > hi")
    n = T.total_rank
    D = T.total_degree
    pairs = list(_admissible_rank_pairs(T))
    L = math.lcm(*(abs(det) for _, _, det in pairs))
    lp, lq = lo.numerator, lo.denominator
    hp, hq = hi.numerator, hi.denominator
    plan = []
    for n1p, n2p, det in pairs:
        c = (n1p + n2p) * D
        # d' runs between (lo det + c)/n and (hi det + c)/n
        b1, q1 = lp * det + lq * c, lq * n
        b2, q2 = hp * det + hq * c, hq * n
        if det < 0:
            b1, q1, b2, q2 = b2, q2, b1, q1
        dps = range(-(-b1 // q1), b2 // q2 + 1)
        # alpha = (n d' - c)/det = k/L with k = (n d' - c)(L/det)
        scale = L // det
        step, off = n * scale, c * scale
        keys = range(dps.start * step - off, dps.stop * step - off, step)
        plan.append((n1p, n2p, dps, keys))
    drop = []
    if not include_endpoints:
        # a key equals e L only when e L is an integer
        drop.append(rng.lo * L)
        if rng.hi is not None:
            drop.append(rng.hi * L)
    return lo, hi, aL, L, drop, plan


# about the most candidates _grouped holds in one dict
_WINDOW = 8192


def _grouped(aL, L, drop, plan, witnesses):
    """The walls of a _wall_plan by key k = alpha L, ascending: an
    iterator of (k, witnesses, stabilized), without the keys in ``drop``.

    ``witnesses`` builds one rank pair's witnesses from the iterables
    n1', n2', d': ``zip`` gives int rows, ``partial(map, WallWitness)``
    records. They come out in (n1', n2', d') order: rank pairs are
    planned in that order and each meets a wall at most once.

    A plan of at most _WINDOW candidates is grouped as one window, with
    no slicing and no generator. A larger one is cut into key windows
    [a, a + width) of about _WINDOW candidates each, in ascending
    order; each is grouped, sorted and emitted (a zip, the windows
    chained) before the next is built, so memory is bounded by the
    window, not by the request. Every key of a window is below every
    key of the next, and a wall's witnesses all share its key, so the
    output is the one-window output.
    """
    total = sum(len(dps) for _, _, dps, _ in plan)
    if total <= _WINDOW:
        return _group(aL, L, drop, plan, witnesses)
    # a rank pair meets each key at most once, so reversing a falling
    # pair's ranges reorders no wall's witnesses
    rising = [
        (n1p, n2p, dps, keys) if keys.step > 0
        else (n1p, n2p, dps[::-1], keys[::-1])
        for n1p, n2p, dps, keys in plan
        if keys
    ]
    first = min(keys[0] for *_, keys in rising)
    stop = max(keys[-1] for *_, keys in rising) + 1
    windows = -(-total // _WINDOW)
    width = -(-(stop - first) // windows)
    return chain.from_iterable(
        _group(aL, L, drop, _window(rising, a, a + width), witnesses)
        for a in range(first, stop, width)
    )


def _window(rising, a, b):
    """The ascending plan ``rising`` cut to the keys in [a, b)."""
    window = []
    for n1p, n2p, dps, keys in rising:
        i = bisect.bisect_left(keys, a)
        j = bisect.bisect_left(keys, b)
        if i < j:
            window.append((n1p, n2p, dps[i:j], keys[i:j]))
    return window


def _group(aL, L, drop, plan, witnesses):
    """_grouped over one window: every candidate of ``plan`` in one dict,
    then its keys sorted."""
    found = defaultdict(list)
    for n1p, n2p, dps, keys in plan:
        for k, w in zip(keys, witnesses(repeat(n1p), repeat(n2p), dps)):
            found[k].append(w)
    for k in drop:
        found.pop(k, None)
    keys = sorted(found)
    stabilized = repeat(False)
    if aL is not None:
        stabilized = map(math.floor(aL * L).__lt__, keys)
    return zip(keys, map(found.__getitem__, keys), stabilized)


@_gc_paused
def enumerate_walls(
    T: TripleType,
    interval: Optional[tuple[Rational, Rational]] = None,
    include_endpoints: bool = False,
    g: Optional[int] = None,
) -> tuple[Wall, ...]:
    """All walls inside a closed parameter window, sorted ascending.

    The window defaults to the admissible range [alpha_m, alpha_M]; an
    empty default range (mu1 < mu2) yields no walls. For n1 = n2 the range
    is unbounded, so either an explicit interval or g must be given, the
    latter selecting the default horizon max(alpha_L, 2g-2, alpha_m) + 1; walls
    above alpha_L are tagged ``stabilized``. Unless ``include_endpoints``
    is set, walls sitting exactly at alpha_m or alpha_M are dropped (the
    window edges themselves are not filtered; a window endpoint that is
    not a range endpoint stays, which is how (1, 5] style queries behave).

    Per admissible rank pair the wall equation is affine and monotone in
    the degree sum d', so d' runs over one computable integer interval;
    one Fraction k/L is built per wall.
    """
    _, _, aL, L, drop, plan = _wall_plan(T, interval, include_endpoints, g)
    return tuple(
        Wall(_ratio(k, L), tuple(ws), stabilized)
        for k, ws, stabilized in _grouped(
            aL, L, drop, plan, partial(map, WallWitness)
        )
    )


@_gc_paused
def _wall_rows(
    T: TripleType,
    interval: Optional[tuple[Rational, Rational]] = None,
    include_endpoints: bool = False,
    g: Optional[int] = None,
) -> list[tuple[int, int, list[tuple[int, int, int]], bool]]:
    """enumerate_walls in plain ints, for writing: one (num, den, rows,
    stabilized) per wall, ascending, where num/den is alpha in lowest
    terms (den > 0) and rows are its witnesses as (n1', n2', d') tuples.
    Builds no Fraction and no record."""
    _, _, aL, L, drop, plan = _wall_plan(T, interval, include_endpoints, g)
    return [
        (k // (c := math.gcd(k, L)), L // c, rows, stabilized)
        for k, rows, stabilized in _grouped(aL, L, drop, plan, zip)
    ]


def is_critical(T: TripleType, alpha: Rational) -> WallTest:
    """Arithmetic criticality test at one alpha, with witnesses.

    True iff some admissible (n1', n2', d') solves the wall equation at
    alpha exactly. No range filtering is applied; in particular alpha_m
    itself usually tests critical.
    """
    require_ranks(T, "is_critical")
    require_rational("alpha", alpha)
    a = Fraction(alpha)
    p, q = a.numerator, a.denominator
    n = T.total_rank
    D = T.total_degree
    # d' = (p det + q (n1'+n2') D)/(q n) must be an integer
    witnesses = []
    for n1p, n2p, det in _admissible_rank_pairs(T):
        dp, r = divmod(p * det + q * (n1p + n2p) * D, q * n)
        if r == 0:
            witnesses.append(WallWitness(n1p, n2p, dp))
    return WallTest(a, bool(witnesses), tuple(witnesses))


def integer_genericity(T: TripleType, m: int) -> GenericityFacts:
    """Sufficient genericity tests for the integer parameter m."""
    require_int("m", m)
    n = T.total_rank
    D = T.total_degree
    return GenericityFacts(
        guaranteed_noncritical=math.gcd(n, D - m * T.n1) == 1,
        no_alpha_independent=math.gcd(T.n2, n, D) == 1,
    )


@_gc_paused
def chambers(
    T: TripleType, g: int, cutoff: Optional[Rational] = None
) -> ChamberReport:
    """Chamber decomposition of the admissible range, with 2g-2 located.

    For n1 != n2 the range [alpha_m, alpha_M] is cut at its interior
    walls ("cutoff" is checked but not used there); for n1 = n2 the
    window runs up to ``cutoff`` (default max(alpha_L, 2g-2, alpha_m) + 1).
    The last chamber is always flagged large: for n1 != n2 it is the one
    adjacent to alpha_M, and for n1 = n2 every wall beyond the window is
    above alpha_L, where crossing is stabilized; chambers entirely above
    alpha_L are flagged large as well. Raises on an empty or degenerate
    range.
    """
    require_int("genus", g, 2)
    require_ranks(T, "chambers")
    if cutoff is not None:
        require_rational("cutoff", cutoff)
    rng = alpha_range(T)
    if rng.empty:
        raise DomainError(
            "empty admissible range (mu1 < mu2); no chamber decomposition"
        )
    if rng.single_point:
        raise DomainError(
            "admissible range degenerates to the point alpha = %s; no "
            "chambers" % (rng.lo,)
        )
    window = None
    if cutoff is not None and T.n1 == T.n2:
        if cutoff <= rng.lo:
            raise DomainError("cutoff must exceed alpha_m = %s" % (rng.lo,))
        window = (rng.lo, cutoff)
    lo, top, alpha_L, L, drop, plan = _wall_plan(T, window, False, g)
    # the plan drops alpha_m and alpha_M; an equal-rank top is dropped too
    drop.append(top * L)
    walls = tuple(
        Wall(_ratio(k, L), tuple(ws), stabilized)
        for k, ws, stabilized in _grouped(
            alpha_L, L, drop, plan, partial(map, WallWitness)
        )
    )
    alphas = [w.alpha for w in walls]
    bounds = [lo] + alphas + [top]
    last = len(alphas)
    # chambers first_large.. are large: the last one, and for n1 = n2 all
    # those starting at or above alpha_L
    first_large = last
    if alpha_L is not None:
        first_large = min(bisect.bisect_left(bounds, alpha_L), last)
    marker = _ratio(2 * g - 2, 1)
    at = bisect.bisect_left(alphas, marker)
    marker_chamber: Optional[int] = None
    if marker < lo:
        status = "below_range"
    elif marker == lo:
        status = "at_alpha_m"
    elif alpha_L is None and marker == top:
        status = "at_alpha_M"
    elif marker > top:
        status = "above_range"
    elif at < last and alphas[at] == marker:
        status = "on_wall"
    else:
        status = "inside"
        if marker < top:
            marker_chamber = at
    chamber_objs = tuple(
        Chamber(
            lo=bounds[i],
            hi=bounds[i + 1],
            contains_2g_minus_2=(marker_chamber == i),
            is_large_chamber=i >= first_large,
        )
        for i in range(last + 1)
    )
    flips: Optional[int] = None
    if marker_chamber is not None:
        flips = max(first_large - marker_chamber, 0)
    return ChamberReport(
        chambers=chamber_objs,
        walls=walls,
        alpha_m=lo,
        top=top,
        top_is_alpha_M=alpha_L is None,
        alpha_L=alpha_L,
        marker=marker,
        marker_status=status,
        marker_chamber=marker_chamber,
        flips_to_large=flips,
    )


def flip_dims(T: TripleType, Tp: TripleType, g: int) -> FlipDims:
    """Flip locus dimension data for the split T' + T'' = T, T' = Tp.

    Tp plays the subobject role (extensions 0 -> T' -> T -> T'' -> 0) and
    carries an explicit degree split (d1', d2'), which the chi values need
    even though the wall location only sees their sum. Preconditions,
    violations raised as DomainError naming the condition:

    (C1) componentwise complement: T'' = T - T' must have nonnegative
         ranks, not both zero (and T' likewise, enforced by its type);
    (C2) equal alpha-slopes at a critical value: the wall equation for
         (n1', n2', d1'+d2') must put alpha_c strictly inside the
         admissible range (for n1 = n2 that means alpha_c > alpha_m).

    No minimization over splits is attempted; each call reports one split.
    """
    require_int("genus", g, 2)
    require_ranks(T, "flip_dims", "both ranks of T")
    n1pp = T.n1 - Tp.n1
    n2pp = T.n2 - Tp.n2
    if n1pp < 0 or n2pp < 0:
        raise DomainError(
            "(C1) violated: complement ranks (%d, %d) must be nonnegative"
            % (n1pp, n2pp)
        )
    if n1pp == 0 and n2pp == 0:
        raise DomainError("(C1) violated: complement T'' is zero (T' = T)")
    det = Tp.n1 * T.n2 - T.n1 * Tp.n2
    if det == 0:
        raise DomainError(
            "(C2) violated: rank pair (%d, %d) is proportional to (%d, %d), "
            "the slopes never cross" % (Tp.n1, Tp.n2, T.n1, T.n2)
        )
    alpha_c = wall_alpha(T, Tp.n1, Tp.n2, Tp.total_degree)
    rng = alpha_range(T)
    inside = alpha_c > rng.lo and (rng.hi is None or alpha_c < rng.hi)
    if not inside:
        raise DomainError(
            "(C2) violated: slopes meet only at alpha = %s, not strictly "
            "inside the admissible range (%s, %s)"
            % (alpha_c, rng.lo, "inf" if rng.hi is None else rng.hi)
        )
    # unchecked: (C1) above made the ranks nonnegative and not both
    # zero, and the checks of T and Tp made the degrees ints
    Tpp = TripleType._unchecked(n1pp, n2pp, T.d1 - Tp.d1, T.d2 - Tp.d2)
    chi_sub = chi(Tp, Tp, g)
    chi_quot = chi(Tpp, Tpp, g)
    cross = chi(Tpp, Tp, g)
    cross_rev = chi(Tp, Tpp, g)
    stilde = 1 - chi_sub - chi_quot - cross
    dim = dim_stable_moduli(T, g)
    codim = dim - stilde
    # additivity of chi makes this exact for every split
    assert codim == -cross_rev
    lam_sub = _ratio(Tp.n2, Tp.total_rank)
    lam_quot = _ratio(n2pp, n1pp + n2pp)
    return FlipDims(
        stilde_dim=stilde,
        minus_chi_cross=-cross,
        minus_chi_cross_rev=-cross_rev,
        guaranteed_codim=g - 1,
        alpha_c=alpha_c,
        side="plus" if lam_sub < lam_quot else "minus",
        fiber_dim=-cross - 1,
        fiber_nonempty=-cross - 1 >= 0,
        dim_moduli=dim,
        codim_in_moduli=codim,
    )
