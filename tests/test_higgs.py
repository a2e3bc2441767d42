"""Toledo invariant, minima triples, bound placement, rigidity."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplemoduli import (
    DomainError,
    HiggsType,
    RIGIDITY_DIM_WARNING,
    alpha_range,
    coprime_smooth,
    enumerate_region,
    expected_dim,
    minima_triple_type,
    mw_relations,
    rigidity,
    toledo,
    vanishing_pattern,
)

from oracles import (
    oracle_minima_triple_type,
    oracle_mw_relations,
    oracle_toledo,
)

pq = st.integers(min_value=1, max_value=4)
deg = st.integers(min_value=-10, max_value=10)
genera = st.integers(min_value=2, max_value=4)


def higgs_types():
    return st.builds(HiggsType, pq, pq, deg, deg, genera)


class TestHiggsType:
    def test_rejects_bad_rank(self):
        with pytest.raises(DomainError):
            HiggsType(0, 1, 0, 0, 2)

    def test_rejects_genus_below_two(self):
        with pytest.raises(DomainError):
            HiggsType(1, 1, 0, 0, 1)

    def test_rejects_non_integer_degree(self):
        with pytest.raises(DomainError):
            HiggsType(1, 1, F(1, 2), 0, 2)


class TestToledo:
    def test_interior_example(self):
        rep = toledo(HiggsType(2, 3, 1, 1, 2))
        assert rep.tau == F(2, 5)
        assert rep.tau_M == 4
        assert rep.within_bound and not rep.saturated

    def test_saturated_example(self):
        rep = toledo(HiggsType(1, 2, 2, 1, 2))
        assert rep.tau == F(2)
        assert rep.tau_M == 2
        assert rep.saturated

    def test_out_of_bound_example(self):
        rep = toledo(HiggsType(1, 1, 5, 0, 2))
        assert not rep.within_bound

    @given(higgs_types(), st.integers(min_value=-3, max_value=3))
    def test_translation_invariance(self, H, l):
        shifted = HiggsType(H.p, H.q, H.a + l * H.p, H.b + l * H.q, H.g)
        assert toledo(shifted).tau == toledo(H).tau

    @given(higgs_types())
    def test_sign_flips_under_degree_negation(self, H):
        neg = HiggsType(H.p, H.q, -H.a, -H.b, H.g)
        assert toledo(neg).tau == -toledo(H).tau


class TestExpectedDim:
    def test_examples(self):
        assert expected_dim(HiggsType(1, 1, 0, 0, 2)) == 5
        assert expected_dim(HiggsType(2, 3, 1, 1, 2)) == 26


class TestVanishingAndMinima:
    def test_pattern_cases(self):
        assert vanishing_pattern(HiggsType(1, 1, 0, 1, 2)) == "gamma_zero"
        assert vanishing_pattern(HiggsType(1, 2, 2, 1, 2)) == "beta_zero"
        assert vanishing_pattern(HiggsType(2, 2, 3, 3, 2)) == "both_zero"

    def test_gamma_zero_minima_triple(self):
        real = minima_triple_type(HiggsType(1, 1, 0, 1, 2))
        assert real.case_tag == "gamma_zero"
        assert real.triple.as_tuple == (1, 1, 2, 1)
        assert real.alpha == F(2)
        assert real.product_factors is None

    def test_beta_zero_minima_triple(self):
        real = minima_triple_type(HiggsType(1, 2, 2, 1, 2))
        assert real.case_tag == "beta_zero"
        assert real.triple.as_tuple == (2, 1, 5, 2)

    def test_tie_reports_bundle_product(self):
        real = minima_triple_type(HiggsType(2, 2, 3, 3, 2))
        assert real.case_tag == "both_zero"
        assert real.product_factors == ((2, 3), (2, 3))

    @given(higgs_types())
    @settings(max_examples=300)
    def test_minima_triple_range_starts_at_slope_distance(self, H):
        real = minima_triple_type(H)
        gap = abs(F(H.a, H.p) - F(H.b, H.q))
        assert alpha_range(real.triple).lo == (2 * H.g - 2) - gap


class TestBoundPlacement:
    def test_zero_toledo_pins_the_range_start(self):
        rep = mw_relations(HiggsType(1, 1, 0, 0, 2))
        assert rep.alpha_m == F(2)
        assert rep.two_g_minus_2 == 2
        assert rep.alpha_m_vs_2g2 == "="

    def test_saturated_type_pins_the_range_end(self):
        rep = mw_relations(HiggsType(1, 2, 2, 1, 2))
        assert rep.alpha_M_vs_2g2 == "="
        assert rep.saturated

    @given(higgs_types())
    @settings(max_examples=500)
    def test_all_named_facts_hold(self, H):
        rep = mw_relations(H)
        failed = [name for name, ok in rep.facts if not ok]
        assert failed == []


class TestBridgeAgainstOracle:
    """toledo, minima_triple_type and mw_relations give the reports of
    the Fraction code they replaced, repr for repr."""

    def check(self, types):
        seen = dict.fromkeys(
            ("types", "tau_zero", "interior", "saturated",
             "alpha_M_below_2g2", "alpha_m_negative", "equal_ranks"), 0)
        for H in types:
            seen["types"] += 1
            for fast, slow in (
                (toledo, oracle_toledo),
                (minima_triple_type, oracle_minima_triple_type),
                (mw_relations, oracle_mw_relations),
            ):
                assert repr(fast(H)) == repr(slow(H)), (fast.__name__, H)
            rep = oracle_mw_relations(H)
            seen["tau_zero"] += rep.tau == 0
            seen["interior"] += rep.within_bound and not rep.saturated
            seen["saturated"] += rep.saturated
            seen["alpha_M_below_2g2"] += rep.alpha_M_vs_2g2 == ">"
            seen["alpha_m_negative"] += H.p == H.q and rep.alpha_m < 0
            seen["equal_ranks"] += H.p == H.q
        return seen

    def test_grid(self):
        # p, q <= 4, g in {2, 3}, a, b in -12..12: 20,000 types, with
        # every out-of-bound branch (2g-2 above alpha_M for p != q,
        # alpha_m < 0 for p = q) well represented.
        seen = self.check(
            HiggsType(p, q, a, b, g)
            for p, q, g, a, b in itertools.product(
                range(1, 5), range(1, 5), (2, 3), range(-12, 13), range(-12, 13)
            )
        )
        assert seen["types"] == 20000
        assert min(seen.values()) >= 100, seen

    def test_every_census_class(self):
        seen = self.check(
            HiggsType(p, q, cp.a, cp.b, g)
            for p, q, g in itertools.product(range(1, 7), range(1, 7), range(2, 5))
            for cp in enumerate_region(p, q, g).points
        )
        assert seen["types"] == seen["interior"] + seen["saturated"] == 9087
        assert seen["alpha_M_below_2g2"] == seen["alpha_m_negative"] == 0


class TestCoprimality:
    def test_examples(self):
        assert coprime_smooth(HiggsType(2, 3, 1, 1, 2))
        assert not coprime_smooth(HiggsType(1, 1, 2, 0, 2))

    @given(higgs_types(), st.integers(min_value=-3, max_value=3))
    def test_translation_invariance(self, H, l):
        shifted = HiggsType(H.p, H.q, H.a + l * H.p, H.b + l * H.q, H.g)
        assert coprime_smooth(shifted) == coprime_smooth(H)


def saturated_type(p, q, g, m, sign):
    """A type with tau = sign * tau_M, built from the integer m."""
    return HiggsType(p, q, p * m, q * m - sign * (g - 1) * (p + q), g)


class TestRigidity:
    def test_frozen_example(self):
        rep = rigidity(HiggsType(1, 2, 2, 1, 2))
        assert rep.applies
        assert rep.factor1 == HiggsType(1, 1, 2, 0, 2)
        assert (rep.factor2_rank, rep.factor2_degree) == (1, 1)
        assert rep.dim_sum == 7
        assert rep.expected_dim == 10
        assert rep.below_expected
        assert RIGIDITY_DIM_WARNING in rep.warnings

    def test_equal_ranks_never_apply(self):
        rep = rigidity(HiggsType(2, 2, 4, 0, 2))
        assert not rep.applies
        assert rep.reason == "requires p != q"

    def test_interior_toledo_never_applies(self):
        rep = rigidity(HiggsType(2, 3, 1, 1, 2))
        assert not rep.applies
        assert rep.reason == "requires |tau| = tau_M"

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        genera,
        st.integers(min_value=-5, max_value=5),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=400)
    def test_saturated_types_decompose_with_the_closed_form_dimension(
        self, p, dq, g, m, sign
    ):
        q = p + dq
        H = saturated_type(p, q, g, m, sign)
        assert toledo(H).saturated
        rep = rigidity(H)
        assert rep.applies
        assert rep.dim_sum == rep.dim_sum_closed_form
        assert rep.dim_sum == 2 + (5 * p * p + q * q - 2 * p * q) * (g - 1)
        assert rep.below_expected
        # the U(min,min) factor is itself saturated with the same sign
        t1 = toledo(rep.factor1)
        assert t1.saturated
        assert (t1.tau > 0) == (sign > 0)
        # rank and degree bookkeeping closes
        assert rep.factor1.p + rep.factor1.q + rep.factor2_rank == p + q
        assert (
            rep.factor1.a + rep.factor1.b + rep.factor2_degree
            == H.a + H.b
        )

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        genera,
        st.integers(min_value=-5, max_value=5),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=200)
    def test_rank_swap_symmetry(self, p, dq, g, m, sign):
        q = p + dq
        H = saturated_type(p, q, g, m, sign)
        swapped = HiggsType(H.q, H.p, H.b, H.a, H.g)
        assert toledo(swapped).tau == -toledo(H).tau
        a, b = rigidity(H), rigidity(swapped)
        assert a.dim_sum == b.dim_sum
        assert a.factor2_rank == b.factor2_rank
        assert a.factor2_degree == b.factor2_degree
