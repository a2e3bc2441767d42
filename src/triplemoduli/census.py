"""Census of the connected-component classes of the flat-bundle variety.

Components of the representation variety for the projective unitary
group of signature (p, q) are indexed by pairs of integers (a, b), two
pairs being identified when they differ by (lp, lq). Each class has a
Toledo value tau = 2(qa - pb)/(p + q), constrained by the bound
|tau| <= min(p, q)(2g - 2), and the finite class set decomposes into
fibres of tau ("lines"), each of size k = gcd(p, q).

This module enumerates the class set exactly, canonicalizes a pair to
the distinguished representative of its class, partitions classes by
the coprimality gcd(p + q, a + b) = 1 (which is class-invariant), and
reports the lattice geometry of tau on classes: image step 2k/(p + q),
kernel of size k generated by (p/k, q/k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, require_int
from .rationals import Rational


@dataclass(frozen=True)
class ClassPair:
    """An integer pair (a, b); canonical means it is the distinguished
    representative of its translation class."""

    a: int
    b: int
    canonical: bool

    @property
    def as_tuple(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class CensusReport:
    """Full enumeration of component classes for one (p, q, g)."""

    p: int
    q: int
    g: int
    count: int
    points: tuple[ClassPair, ...]
    coprime_points: tuple[ClassPair, ...]
    lines: dict[int, tuple[ClassPair, ...]]


@dataclass(frozen=True)
class TauQuotientFacts:
    """How tau sits on translation classes: it descends to the class
    set, hits a lattice of step 2k/(p+q), and identifies k classes per
    value (the kernel is generated by (p/k, q/k))."""

    k: int
    image_lattice_step: Rational
    kernel_size: int
    kernel_generator: tuple[int, int]


@dataclass(frozen=True)
class CoprimePartition:
    """Census split by the class-invariant test gcd(p+q, a+b) = 1."""

    coprime: tuple[ClassPair, ...]
    non_coprime: tuple[ClassPair, ...]
    both_nonempty: bool


def _check_pqg(p: int, q: int, g: int) -> None:
    require_int("p", p, 1)
    require_int("q", q, 1)
    require_int("genus", g, 2)


def _member(p: int, q: int, g: int, a: int, b: int) -> bool:
    """Membership test in the distinguished fundamental region, without
    input checks. Ranks with p > q use the swapped test, matching the
    symmetry (p, q, a, b) -> (q, p, b, a) of the class structure."""
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


def omega_membership(p: int, q: int, g: int, a: int, b: int) -> bool:
    """Whether (a, b) is the distinguished representative of its class.

    The region is cut out by the Toledo bound together with half-open
    strip conditions chosen so each translation class (a + lp, b + lq)
    meets it exactly once.
    """
    _check_pqg(p, q, g)
    require_int("a", a)
    require_int("b", b)
    return _member(p, q, g, a, b)


def canonicalize(p: int, q: int, g: int, a: int, b: int) -> ClassPair:
    """The distinguished representative (a + lp, b + lq) of the class
    of (a, b).

    Raises DomainError when the class violates the Toledo bound (the
    bound is translation-invariant, so no representative exists).
    """
    _check_pqg(p, q, g)
    require_int("a", a)
    require_int("b", b)
    bound = (p + q) * min(p, q) * (g - 1)
    if abs(a * q - b * p) > bound:
        raise DomainError(
            "class of (a, b) lies outside the Toledo bound "
            "|aq - bp| <= (p+q) min(p,q) (g-1)"
        )
    # Any representative inside the region has both shifted coordinates
    # in (or adjacent to) the unit strips, so a short window of l values
    # suffices; padding by one guards the half-open edges.
    lo = min(-(a // p), -(b // q)) - 1
    hi = max((p - a) // p, (q - b) // q) + 1
    hits = [
        (a + l * p, b + l * q)
        for l in range(lo, hi + 1)
        if _member(p, q, g, a + l * p, b + l * q)
    ]
    if len(hits) != 1:
        raise AssertionError(
            "fundamental region defect for (p=%d, q=%d, g=%d, a=%d, b=%d): "
            "%d representatives found" % (p, q, g, a, b, len(hits))
        )
    return ClassPair(hits[0][0], hits[0][1], canonical=True)


def enumerate_region(p: int, q: int, g: int) -> CensusReport:
    """Enumerate every class representative, grouped into tau-lines.

    The count always equals 2 (p+q) min(p,q) (g-1) + gcd(p,q), and each
    line (fibre of tau, indexed by the integer t with
    qa - bp = t gcd(p,q)) contains exactly gcd(p, q) points.
    """
    _check_pqg(p, q, g)
    k = math.gcd(p, q)
    bound = (p + q) * min(p, q) * (g - 1)
    points = []
    for a in range(-bound, p + 1):
        for b in range(-bound, q + 1):
            if _member(p, q, g, a, b):
                points.append(ClassPair(a, b, canonical=True))
    points.sort(key=lambda cp: (cp.a, cp.b))
    n = p + q
    coprime = tuple(
        cp for cp in points if math.gcd(n, cp.a + cp.b) == 1
    )
    lines: dict[int, list[ClassPair]] = {}
    for cp in points:
        value = cp.a * q - cp.b * p
        t, rem = divmod(value, k)
        if rem:
            raise AssertionError(
                "line index defect: qa - bp = %d not divisible by %d"
                % (value, k)
            )
        lines.setdefault(t, []).append(cp)
    frozen_lines = {
        t: tuple(group) for t, group in sorted(lines.items())
    }
    return CensusReport(
        p=p,
        q=q,
        g=g,
        count=len(points),
        points=tuple(points),
        coprime_points=coprime,
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
        image_lattice_step=Fraction(2 * k, p + q),
        kernel_size=k,
        kernel_generator=(p // k, q // k),
    )


def coprime_partition(p: int, q: int, g: int) -> CoprimePartition:
    """Split the census by gcd(p+q, a+b) = 1.

    The test depends only on the class since a + b shifts by multiples
    of p + q along a class. Both parts are always inhabited: a + b can
    realize both a unit and a non-unit residue within the Toledo bound.
    """
    report = enumerate_region(p, q, g)
    return CoprimePartition(
        coprime=report.coprime_points,
        non_coprime=tuple(
            cp for cp in report.points
            if math.gcd(p + q, cp.a + cp.b) != 1
        ),
        both_nonempty=(
            0 < len(report.coprime_points) < report.count
        ),
    )
