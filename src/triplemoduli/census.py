"""Census of the connected-component classes of the flat-bundle variety.

Components of the representation variety for the projective unitary
group of signature (p, q) are indexed by pairs of integers (a, b), two
pairs being identified when they differ by (lp, lq). Each class has a
Toledo value tau = 2(qa - pb)/(p + q), constrained by the bound
|tau| <= min(p, q)(2g - 2), and the finite class set decomposes into
fibres of tau ("lines"), each of size k = gcd(p, q).

The distinguished representatives form the fundamental region
a < p, b < q, not both negative, inside the Toledo band
|aq - bp| <= (p + q) min(p, q)(g - 1). Each class meets it exactly once:
the largest translate keeping a < p and b < q has one coordinate
nonnegative, and the next one down has neither. One column walk
(_columns) reads each column's b-interval off the band, and both
builders make every class of the region in one
ClassPair._from_columns call (_points), from the joined columns.
enumerate_region finds the line index t = (aq - bp)/k once at the top
of a column and steps it down by p/k per point, then puts each point
on its line with no Python loop per point; coprime_partition builds
the points alone, with no report and no lines. Both split the points
by the coprimality gcd(p + q, a + b) = 1 (which is class-invariant)
in one pass (_split).
The module also canonicalizes a pair by that floor-division shift and
reports the lattice geometry of tau on classes: image step 2k/(p + q),
kernel of size k generated by (p/k, q/k). Both builders pause the
cyclic collector while they run (errors._gc_paused): classes hold no
cycle.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain, repeat

from .errors import DomainError, _drain, _gc_paused, record, require_int
from .rationals import Rational, _ratio


@record
class ClassPair:
    """An integer pair (a, b); canonical means it is the distinguished
    representative of its translation class."""

    a: int
    b: int
    canonical: bool

    @property
    def as_tuple(self) -> tuple[int, int]:
        return (self.a, self.b)


@record
class CensusReport:
    """Full enumeration of component classes for one (p, q, g)."""

    p: int
    q: int
    g: int
    count: int
    points: tuple[ClassPair, ...]
    coprime_points: tuple[ClassPair, ...]
    lines: dict[int, tuple[ClassPair, ...]]


@record
class TauQuotientFacts:
    """How tau sits on translation classes: it descends to the class
    set, hits a lattice of step 2k/(p+q), and identifies k classes per
    value (the kernel is generated by (p/k, q/k))."""

    k: int
    image_lattice_step: Rational
    kernel_size: int
    kernel_generator: tuple[int, int]


@record
class CoprimePartition:
    """Census split by the class-invariant test gcd(p+q, a+b) = 1."""

    coprime: tuple[ClassPair, ...]
    non_coprime: tuple[ClassPair, ...]
    both_nonempty: bool


def _check_pqg(p: int, q: int, g: int) -> None:
    require_int("p", p, 1)
    require_int("q", q, 1)
    require_int("genus", g, 2)


def _bound(p: int, q: int, g: int) -> int:
    """The Toledo band half-width (p + q) min(p, q) (g - 1) on qa - pb."""
    return (p + q) * min(p, q) * (g - 1)


def omega_membership(p: int, q: int, g: int, a: int, b: int) -> bool:
    """Whether (a, b) is the distinguished representative of its class.

    The region is a < p, b < q, not both negative, inside the Toledo
    band; each translation class (a + lp, b + lq) meets it exactly once.
    """
    _check_pqg(p, q, g)
    require_int("a", a)
    require_int("b", b)
    if a >= p or b >= q or (a < 0 and b < 0):
        return False
    return abs(a * q - b * p) <= _bound(p, q, g)


def canonicalize(p: int, q: int, g: int, a: int, b: int) -> ClassPair:
    """The distinguished representative (a + lp, b + lq) of the class
    of (a, b).

    Raises DomainError when the class violates the Toledo bound (the
    bound is translation-invariant, so no representative exists).
    """
    _check_pqg(p, q, g)
    require_int("a", a)
    require_int("b", b)
    if abs(a * q - b * p) > _bound(p, q, g):
        raise DomainError(
            "class of (a, b) lies outside the Toledo bound "
            "|aq - bp| <= (p+q) min(p,q) (g-1)"
        )
    # The largest shift keeping a < p and b < q leaves one coordinate
    # nonnegative; one step further down leaves neither.
    l = min(-(a // p), -(b // q))
    return ClassPair(a + l * p, b + l * q, canonical=True)


def _columns(p: int, q: int, g: int):
    """The region's columns (a, b_lo, b_hi), a ascending.

    Column a holds the b in [b_lo, b_hi]: the b < q with
    |aq - bp| <= bound, and b >= 0 when a < 0. The band leaves no
    b >= 0 left of a = -(bound // q)."""
    bound = _bound(p, q, g)
    for a in range(-(bound // q), p):
        b_lo = -((bound - a * q) // p)
        if a < 0:
            b_lo = max(b_lo, 0)
        yield a, b_lo, min(q - 1, (a * q + bound) // p)


def _split(
    n: int, points: list[ClassPair]
) -> tuple[tuple[ClassPair, ...], tuple[ClassPair, ...]]:
    """(coprime, non_coprime): the points with gcd(n, a + b) = 1 and the
    rest, each in point order. The test reads a table of the units
    mod n, as gcd(n, s) = gcd(n, s mod n)."""
    unit = [math.gcd(n, r) == 1 for r in range(n)]
    coprime: list[ClassPair] = []
    non_coprime: list[ClassPair] = []
    for cp in points:
        (coprime if unit[(cp.a + cp.b) % n] else non_coprime).append(cp)
    return tuple(coprime), tuple(non_coprime)


def _points(cols: list) -> list[ClassPair]:
    """The classes of a list of columns (a, b_lo, b_hi), in column
    order, by one ClassPair._from_columns call."""
    bs = [range(b_lo, b_hi + 1) for _, b_lo, b_hi in cols]
    as_ = map(repeat, [a for a, _, _ in cols], map(len, bs))
    return ClassPair._from_columns(
        sum(map(len, bs)),
        chain.from_iterable(as_),
        chain.from_iterable(bs),
        repeat(True),
    )


@_gc_paused
def enumerate_region(p: int, q: int, g: int) -> CensusReport:
    """Enumerate every class representative, grouped into tau-lines.

    The count always equals 2 (p+q) min(p,q) (g-1) + gcd(p,q), and each
    line (fibre of tau, indexed by the integer t with
    qa - bp = t gcd(p,q)) contains exactly gcd(p, q) points.

    The points are built in one ClassPair._from_columns call, and put
    on their lines with no Python loop per point.
    """
    _check_pqg(p, q, g)
    k = math.gcd(p, q)
    step = p // k
    cols = list(_columns(p, q, g))
    ts = []
    for a, b_lo, b_hi in cols:
        # Down the column the line index falls by p/k per point.
        top = a * q - b_lo * p
        t_top, rem = divmod(top, k)
        if rem:
            raise AssertionError(
                "line index defect: qa - bp = %d not divisible by %d"
                % (top, k)
            )
        ts.append(range(t_top, t_top - step * (b_hi - b_lo + 1), -step))
    points = _points(cols)
    lines: defaultdict[int, list[ClassPair]] = defaultdict(list)
    # append each point to its line, with no Python loop
    groups = map(lines.__getitem__, chain.from_iterable(ts))
    _drain(map(list.append, groups, points))
    frozen_lines = {
        t: tuple(group) for t, group in sorted(lines.items())
    }
    return CensusReport(
        p=p,
        q=q,
        g=g,
        count=len(points),
        points=tuple(points),
        coprime_points=_split(p + q, points)[0],
        lines=frozen_lines,
    )


def tau_quotient_facts(p: int, q: int) -> TauQuotientFacts:
    """Lattice geometry of tau on translation classes.

    tau is constant on classes; its image is the lattice of step
    2 gcd(p,q) / (p+q), and classes with equal tau form cosets of the
    order-gcd(p,q) subgroup generated by the class of (p/k, q/k).
    """
    require_int("p", p, 1)
    require_int("q", q, 1)
    k = math.gcd(p, q)
    return TauQuotientFacts(
        k=k,
        image_lattice_step=_ratio(2 * k, p + q),
        kernel_size=k,
        kernel_generator=(p // k, q // k),
    )


@_gc_paused
def coprime_partition(p: int, q: int, g: int) -> CoprimePartition:
    """Split the census by gcd(p+q, a+b) = 1.

    The test depends only on the class since a + b shifts by multiples
    of p + q along a class. Both parts are always inhabited: a + b can
    realize both a unit and a non-unit residue within the Toledo bound.
    Each part lists its classes in enumerate_region's point order.
    """
    _check_pqg(p, q, g)
    coprime, non_coprime = _split(p + q, _points(list(_columns(p, q, g))))
    return CoprimePartition(
        coprime=coprime,
        non_coprime=non_coprime,
        both_nonempty=len(coprime) > 0 and len(non_coprime) > 0,
    )
