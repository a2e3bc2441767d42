"""Weight-space profiles and Morse indices of fixed-point chains."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplemoduli import (
    DomainError,
    HodgeChain,
    MORSE_NEGATIVE_ADVISORY,
    dim_h1_weight,
    morse_index,
    uk_profile,
)

from oracles import oracle_line_bundle_chains


def chains():
    lengths = st.integers(min_value=1, max_value=5)
    return lengths.flatmap(
        lambda m: st.tuples(
            st.lists(
                st.integers(min_value=1, max_value=3),
                min_size=m,
                max_size=m,
            ),
            st.lists(
                st.integers(min_value=-5, max_value=5),
                min_size=m,
                max_size=m,
            ),
        ).map(lambda rd: HodgeChain(tuple(rd[0]), tuple(rd[1])))
    )


class TestHodgeChain:
    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            HodgeChain((1, 1), (0,))

    def test_rejects_zero_rank(self):
        with pytest.raises(DomainError):
            HodgeChain((1, 0), (0, 0))

    def test_rejects_empty_chain(self):
        with pytest.raises(DomainError):
            HodgeChain((), ())


class TestUkProfile:
    def test_frozen_top_weight(self):
        C = HodgeChain((1, 1, 1), (2, 1, 0))
        assert uk_profile(C, 2) == (1, -2)

    def test_weight_zero_collects_all_endomorphisms(self):
        C = HodgeChain((1, 1, 1), (2, 1, 0))
        assert uk_profile(C, 0) == (3, 0)

    def test_out_of_range_weights_vanish(self):
        C = HodgeChain((1, 1, 1), (2, 1, 0))
        assert uk_profile(C, 3) == (0, 0)
        assert uk_profile(C, -3) == (0, 0)

    @given(chains(), st.integers(min_value=-6, max_value=6))
    def test_reflection_symmetry(self, C, k):
        rank_pos, deg_pos = uk_profile(C, k)
        rank_neg, deg_neg = uk_profile(C, -k)
        assert rank_pos == rank_neg
        assert deg_pos == -deg_neg

    @given(chains())
    def test_total_rank_and_degree(self, C):
        m = C.length
        total_rank = sum(
            uk_profile(C, k)[0] for k in range(-(m - 1), m)
        )
        total_deg = sum(
            uk_profile(C, k)[1] for k in range(-(m - 1), m)
        )
        assert total_rank == sum(C.ranks) ** 2
        assert total_deg == 0


class TestDimH1:
    def test_frozen_weight_one(self):
        C = HodgeChain((1, 1, 1), (2, 1, 0))
        assert dim_h1_weight(C, 1, 2) == 3

    def test_frozen_weight_zero_adds_the_invariant_direction(self):
        C = HodgeChain((1, 1), (0, 0))
        assert dim_h1_weight(C, 0, 2) == 4

    def test_negative_weight_rejected(self):
        C = HodgeChain((1, 1), (0, 0))
        with pytest.raises(DomainError):
            dim_h1_weight(C, -1, 2)

    def test_bad_genus_rejected(self):
        C = HodgeChain((1, 1), (0, 0))
        with pytest.raises(DomainError):
            dim_h1_weight(C, 0, 1)


class TestMorseIndex:
    def test_frozen_example(self):
        assert morse_index(HodgeChain((1, 1, 1), (2, 1, 0)), 2) == 3

    def test_frozen_negative_example(self):
        assert morse_index(HodgeChain((1, 1, 1), (0, 1, 2)), 2) == -1

    def test_advisory_constant_names_the_problem(self):
        assert "negative index" in MORSE_NEGATIVE_ADVISORY

    @given(chains(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=200)
    def test_length_two_chains_are_minima(self, C, g):
        if C.length <= 2:
            assert morse_index(C, g) == 0

    def test_length_two_examples(self):
        assert morse_index(HodgeChain((1, 2), (0, 3)), 2) == 0
        assert morse_index(HodgeChain((3, 1), (-2, 5)), 3) == 0

    def test_no_longer_line_bundle_chain_meeting_the_conditions_is_a_minimum(
        self,
    ):
        """The paper's minima are the chains of length 2. A line-bundle
        chain (every rank 1) of length 3 or more that meets the two
        necessary conditions of oracle_line_bundle_chains has Morse
        index at least 1, so it is no local minimum: every such chain of
        length 3 or 4 with degrees in -6..6, for g = 2, 3, 4."""
        checked = 0
        for g in (2, 3, 4):
            for es in oracle_line_bundle_chains(g, (3, 4), range(-6, 7)):
                assert morse_index(HodgeChain((1,) * len(es), es), g) >= 1, (
                    g,
                    es,
                )
                checked += 1
        assert checked == 6418

    def test_the_conditions_are_what_rules_out_the_low_chains(self):
        """Not vacuous: in the length-3, genus-2 box, 1,014 line-bundle
        chains have index <= 0, and each fails a condition."""
        kept = set(oracle_line_bundle_chains(2, (3,), range(-6, 7)))
        low = [
            es
            for es in itertools.product(range(-6, 7), repeat=3)
            if morse_index(HodgeChain((1, 1, 1), es), 2) < 1
        ]
        assert len(kept) == 86 and len(low) == 1014
        assert kept.isdisjoint(low)

    @given(chains(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=200)
    def test_index_matches_direct_summation(self, C, g):
        total = 0
        for k in range(2, C.length):
            rank, degree = uk_profile(C, k)
            total += (g - 1) * rank + ((-1) ** (k + 1)) * degree
        assert morse_index(C, g) == total
