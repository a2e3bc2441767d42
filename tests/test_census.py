"""Component census: membership, canonicalization, lines, partitions."""

import math
import random

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplemoduli import census as census_module
from triplemoduli import (
    CoprimePartition,
    DomainError,
    canonicalize,
    coprime_partition,
    enumerate_region,
    omega_membership,
    tau_quotient_facts,
)

from oracles import (
    oracle_canonical,
    oracle_member,
    oracle_region,
    reference_region,
)

pq = st.integers(min_value=1, max_value=4)
genera = st.integers(min_value=2, max_value=3)


class TestMembership:
    def test_frozen_rank_one_census(self):
        member = {
            (a, b)
            for a in range(-4, 4)
            for b in range(-4, 4)
            if omega_membership(1, 1, 2, a, b)
        }
        assert member == {(0, 0), (0, -1), (0, -2), (-1, 0), (-2, 0)}

    def test_excluded_edges(self):
        assert not omega_membership(1, 1, 2, 1, 0)
        assert not omega_membership(1, 1, 2, 0, 1)

    @given(pq, pq, genera, st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=400)
    def test_rank_swap_symmetry(self, p, q, g, a, b):
        assert omega_membership(p, q, g, a, b) == omega_membership(
            q, p, g, b, a
        )


class TestEnumerateRegion:
    def test_frozen_counts(self):
        assert enumerate_region(1, 1, 2).count == 5
        assert enumerate_region(2, 2, 2).count == 18
        assert enumerate_region(2, 4, 2).count == 26

    def test_frozen_rank_one_points(self):
        rep = enumerate_region(1, 1, 2)
        assert {cp.as_tuple for cp in rep.points} == {
            (0, 0), (0, -1), (0, -2), (-1, 0), (-2, 0),
        }
        assert all(cp.canonical for cp in rep.points)

    def test_closed_count_formula(self):
        for p in range(1, 5):
            for q in range(1, 5):
                for g in (2, 3):
                    rep = enumerate_region(p, q, g)
                    expected = 2 * (p + q) * min(p, q) * (g - 1) + math.gcd(
                        p, q
                    )
                    assert rep.count == expected

    def test_lines_have_gcd_many_points_each(self):
        rep = enumerate_region(2, 4, 2)
        assert len(rep.lines) == 13
        assert all(len(line) == 2 for line in rep.lines.values())

    def test_line_indices_are_consecutive(self):
        rep = enumerate_region(2, 4, 2)
        bound = 6 * 2 * 1
        t_max = bound // 2
        assert sorted(rep.lines) == list(range(-t_max, t_max + 1))

    @given(pq, pq, genera)
    @settings(max_examples=40, deadline=None)
    def test_line_membership_shares_the_reduced_gcd(self, p, q, g):
        rep = enumerate_region(p, q, g)
        k = math.gcd(p, q)
        step = (p + q) // k
        for line in rep.lines.values():
            values = {math.gcd(step, cp.a + cp.b) for cp in line}
            assert len(values) == 1


class TestCanonicalize:
    def test_frozen_translation(self):
        assert canonicalize(1, 1, 2, 3, 1).as_tuple == (0, -2)

    def test_fixed_point(self):
        assert canonicalize(1, 1, 2, 0, 0).as_tuple == (0, 0)

    def test_out_of_bound_class_raises(self):
        with pytest.raises(DomainError):
            canonicalize(1, 1, 2, 5, 0)

    @given(pq, pq, genera, st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_canonicalize_is_a_retraction_onto_the_census(self, p, q, g, l):
        rep = enumerate_region(p, q, g)
        rng = random.Random(hash((p, q, g, l)) & 0xFFFF)
        for cp in rng.sample(rep.points, min(6, len(rep.points))):
            assert canonicalize(p, q, g, cp.a, cp.b).as_tuple == cp.as_tuple
            shifted = canonicalize(
                p, q, g, cp.a + l * p, cp.b + l * q
            )
            assert shifted.as_tuple == cp.as_tuple


class TestTauQuotient:
    def test_frozen_facts(self):
        facts = tau_quotient_facts(2, 3)
        assert (facts.k, facts.kernel_size) == (1, 1)
        assert facts.image_lattice_step == F(2, 5)
        assert facts.kernel_generator == (2, 3)

        facts2 = tau_quotient_facts(2, 4)
        assert facts2.k == 2
        assert facts2.image_lattice_step == F(2, 3)
        assert facts2.kernel_generator == (1, 2)

    def test_equal_ranks_have_unit_step(self):
        for p in range(1, 5):
            facts = tau_quotient_facts(p, p)
            assert facts.k == p
            assert facts.image_lattice_step == F(1)
            assert facts.kernel_generator == (1, 1)

    @given(pq, pq, genera)
    @settings(max_examples=40, deadline=None)
    def test_census_realizes_the_lattice(self, p, q, g):
        rep = enumerate_region(p, q, g)
        facts = tau_quotient_facts(p, q)
        taus = {F(2 * (cp.a * q - cp.b * p), p + q) for cp in rep.points}
        assert len(taus) == len(rep.lines)
        spacings = sorted(taus)
        for x, y in zip(spacings, spacings[1:]):
            assert y - x == facts.image_lattice_step


class TestCoprimePartition:
    def test_frozen_rank_one_split(self):
        part = coprime_partition(1, 1, 2)
        assert {cp.as_tuple for cp in part.coprime} == {(0, -1), (-1, 0)}
        assert {cp.as_tuple for cp in part.non_coprime} == {
            (0, 0), (0, -2), (-2, 0),
        }
        assert part.both_nonempty

    @given(pq, pq, genera)
    @settings(max_examples=40, deadline=None)
    def test_both_sides_always_inhabited(self, p, q, g):
        part = coprime_partition(p, q, g)
        assert part.both_nonempty
        assert len(part.coprime) >= 1
        assert len(part.non_coprime) >= 1


class TestAgainstOracle:
    def test_region_matches_grid_scan_on_criterion_07_box(self):
        for p in range(1, 8):
            for q in range(1, 9 - p):
                for g in (2, 3, 4):
                    rep = enumerate_region(p, q, g)
                    points = [cp.as_tuple for cp in rep.points]
                    assert points == oracle_region(p, q, g), (p, q, g)

    def test_membership_matches_strips_on_the_whole_grid(self):
        for p in range(1, 5):
            for q in range(1, 5):
                for g in (2, 3):
                    bound = (p + q) * min(p, q) * (g - 1)
                    for a in range(-bound - 2, p + 3):
                        for b in range(-bound - 2, q + 3):
                            assert omega_membership(
                                p, q, g, a, b
                            ) == oracle_member(p, q, g, a, b), (p, q, g, a, b)

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(2, 4),
        st.integers(0, 10**6),
        st.integers(-(10**6), 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_canonicalize_matches_window_search_on_far_translates(
        self, p, q, g, index, l
    ):
        region = oracle_region(p, q, g)
        a, b = region[index % len(region)]
        a, b = a + l * p, b + l * q
        assert oracle_canonical(p, q, g, a, b) == [
            canonicalize(p, q, g, a, b).as_tuple
        ]

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(2, 4),
        st.integers(-200, 200),
        st.integers(-200, 200),
    )
    @settings(max_examples=300, deadline=None)
    def test_canonicalize_matches_window_search_on_any_pair(
        self, p, q, g, a, b
    ):
        hits = oracle_canonical(p, q, g, a, b)
        if abs(a * q - b * p) > (p + q) * min(p, q) * (g - 1):
            assert hits == []
            with pytest.raises(DomainError, match="outside the Toledo bound"):
                canonicalize(p, q, g, a, b)
        else:
            assert hits == [canonicalize(p, q, g, a, b).as_tuple]

    def test_large_census_runs_in_closed_form(self):
        assert enumerate_region(30, 30, 30).count == 104430


# Toledo bounds (p + q) min(p, q) (g - 1) near 250 and 400, the largest
# rungs of the upq-census workload, with gcd(p, q) from 1 to 10.
WORKLOAD_SIZES = [
    (2, 3, 26),
    (3, 9, 8),
    (5, 5, 6),
    (9, 3, 8),
    (5, 3, 18),
    (4, 6, 11),
    (10, 10, 3),
    (6, 3, 16),
]


class TestReportAgainstReference:
    """enumerate_region gives the report of the per-point builder it
    replaced. Comparing ``repr`` checks points, coprime_points and
    lines with their key order and the order inside every tuple."""

    def check(self, p, q, g):
        assert repr(enumerate_region(p, q, g)) == repr(
            reference_region(p, q, g)
        ), (p, q, g)

    def test_criterion_07_box(self):
        for p in range(1, 8):
            for q in range(1, 9 - p):
                for g in (2, 3, 4):
                    self.check(p, q, g)

    @pytest.mark.parametrize("p, q, g", WORKLOAD_SIZES)
    def test_census_workload_sizes(self, p, q, g):
        self.check(p, q, g)


class TestPartitionAgainstReference:
    """coprime_partition, which builds its points without the census
    report, splits the reference census: its coprime_points, then the
    rest of its points. Comparing ``repr`` checks both tuples with the
    order inside them."""

    def check(self, p, q, g):
        ref = reference_region(p, q, g)
        rest = tuple(
            cp for cp in ref.points if math.gcd(p + q, cp.a + cp.b) != 1
        )
        expected = CoprimePartition(
            coprime=ref.coprime_points,
            non_coprime=rest,
            both_nonempty=0 < len(ref.coprime_points) < ref.count,
        )
        assert repr(coprime_partition(p, q, g)) == repr(expected), (p, q, g)

    def test_criterion_07_box(self):
        for p in range(1, 8):
            for q in range(1, 9 - p):
                for g in (2, 3, 4):
                    self.check(p, q, g)

    @pytest.mark.parametrize("p, q, g", WORKLOAD_SIZES)
    def test_census_workload_sizes(self, p, q, g):
        self.check(p, q, g)

    @pytest.mark.parametrize(
        "name", ["CensusReport", "defaultdict"], ids=["report", "lines"]
    )
    def test_the_partition_builds_no_report_and_no_lines(
        self, monkeypatch, name
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("called census.%s" % name)

        monkeypatch.setattr(census_module, name, refuse)
        # the stub is live: the census itself needs it
        with pytest.raises(AssertionError, match=name):
            enumerate_region(5, 3, 18)
        part = coprime_partition(5, 3, 18)
        assert len(part.coprime) + len(part.non_coprime) == 2 * 8 * 3 * 17 + 1
