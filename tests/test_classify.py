"""Case analysis verdicts: coverage, determinacy, invariance, citations."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_classify
from triplemoduli import (
    HiggsType,
    SubspaceVerdict,
    classify,
    enumerate_region,
    expected_dim,
    toledo,
)

pq = st.integers(min_value=1, max_value=4)
deg = st.integers(min_value=-12, max_value=12)
genera = st.integers(min_value=2, max_value=3)

CASES = {
    "out-of-range",
    "zero-toledo",
    "interior-toledo",
    "maximal-toledo-equal-ranks",
    "maximal-toledo-rigid",
}

TRI = {"yes", "no", "unknown"}


def higgs_types():
    return st.builds(HiggsType, pq, pq, deg, deg, genera)


class TestFrozenVerdicts:
    def test_interior_coprime_type_is_fully_determined(self):
        v = classify(HiggsType(2, 3, 1, 1, 2))
        assert v.case == "interior-toledo"
        assert v.coprime
        assert v.stable_nonempty == "yes"
        assert v.stable_smooth_dim == 26
        assert v.closure_of_stable_connected == "yes"
        assert v.full_space_nonempty == "yes"
        assert v.full_space_connected == "yes"
        assert not v.rigid
        assert (
            v.citations["full_space_connected"]
            == "coprime-no-strict-semistables"
        )
        assert v.r_gamma.smooth_of_expected_dim == "yes"

    def test_rigid_type(self):
        v = classify(HiggsType(1, 2, 2, 1, 2))
        assert v.case == "maximal-toledo-rigid"
        assert v.rigid
        assert v.stable_nonempty == "no"
        assert v.stable_smooth_dim is None
        assert v.full_space_nonempty == "yes"
        assert v.full_space_connected == "yes"
        assert v.rigidity_data.dim_sum == 7
        assert v.citations["rigidity_data"] == "maximal-toledo-rigidity"
        assert any("erratum" in w for w in v.warnings)

    def test_equal_rank_maximal_type(self):
        v = classify(HiggsType(1, 1, 2, 0, 2))
        assert v.case == "maximal-toledo-equal-ranks"
        assert v.saturated
        assert v.stable_nonempty == "yes"
        assert v.stable_smooth_dim == expected_dim(HiggsType(1, 1, 2, 0, 2))
        assert v.full_space_connected == "yes"
        assert not v.rigid

    def test_out_of_range_type_is_empty(self):
        v = classify(HiggsType(1, 1, 5, 0, 2))
        assert v.case == "out-of-range"
        assert not v.in_range
        assert v.stable_nonempty == "no"
        assert v.full_space_nonempty == "no"
        assert v.full_space_connected == "no"
        assert v.citations["full_space_nonempty"] == "milnor-wood-bound"

    def test_zero_toledo_type(self):
        v = classify(HiggsType(1, 1, 1, 1, 2))
        assert v.case == "zero-toledo"
        assert v.stable_nonempty == "unknown"
        assert v.full_space_nonempty == "yes"
        assert v.full_space_connected == "yes"
        assert (
            v.citations["full_space_connected"] == "zero-toledo-connectedness"
        )

    def test_equal_rank_window_settles_connectedness(self):
        # non-coprime, p = q, (p-1)(2g-2) < |tau| < tau_M
        v = classify(HiggsType(3, 3, 4, -1, 2))
        assert v.case == "interior-toledo"
        assert not v.coprime
        assert v.full_space_connected == "yes"
        assert (
            v.citations["full_space_connected"]
            == "equal-rank-window-connectedness"
        )

    def test_equal_rank_window_edge_stays_unknown(self):
        # non-coprime, p = q, |tau| = (p-1)(2g-2): the window is open
        v = classify(HiggsType(3, 3, 4, 0, 2))
        assert v.case == "interior-toledo"
        assert not v.coprime
        assert v.tau == (3 - 1) * (2 * 2 - 2)
        assert v.full_space_connected == "unknown"
        assert "full_space_connected" not in v.citations

    def test_interior_without_any_criterion_stays_unknown(self):
        v = classify(HiggsType(2, 3, 1, 4, 2))
        assert v.case == "interior-toledo"
        assert not v.coprime
        assert v.full_space_connected == "unknown"
        assert "full_space_connected" not in v.citations


class TestStructuralProperties:
    @given(higgs_types())
    @settings(max_examples=500)
    def test_cases_partition_the_inputs(self, H):
        v = classify(H)
        assert v.case in CASES
        for field in (
            v.stable_nonempty,
            v.closure_of_stable_connected,
            v.full_space_nonempty,
            v.full_space_connected,
        ):
            assert field in TRI

    @given(higgs_types())
    @settings(max_examples=500)
    def test_emptiness_exactly_at_bound_violation(self, H):
        v = classify(H)
        assert (v.full_space_nonempty == "no") == (not v.in_range)

    @given(higgs_types())
    @settings(max_examples=500)
    def test_rigid_iff_unequal_saturated(self, H):
        v = classify(H)
        expected = H.p != H.q and toledo(H).saturated
        assert v.rigid == expected
        assert (v.rigidity_data is not None) == expected

    @given(higgs_types())
    @settings(max_examples=500)
    def test_coprime_types_leave_nothing_unknown(self, H):
        v = classify(H)
        if not (v.coprime and v.in_range):
            return
        fields = [
            v.stable_nonempty,
            v.closure_of_stable_connected,
            v.full_space_nonempty,
            v.full_space_connected,
            v.r_gamma.nonempty,
            v.r_gamma.connected,
            v.r_gamma.stable_nonempty,
            v.r_gamma.closure_of_stable_connected,
            v.r_gamma.smooth_of_expected_dim,
            v.r_pu.nonempty,
            v.r_pu.connected,
        ]
        assert "unknown" not in fields
        assert v.stable_smooth_dim == expected_dim(H)

    @given(higgs_types())
    @settings(max_examples=300)
    def test_smooth_dimension_is_the_expected_one_when_reported(self, H):
        v = classify(H)
        if v.stable_smooth_dim is not None:
            assert v.stable_smooth_dim == expected_dim(H)

    @given(higgs_types(), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=400)
    def test_translation_invariance_of_the_verdict(self, H, l):
        shifted = HiggsType(H.p, H.q, H.a + l * H.p, H.b + l * H.q, H.g)
        v, w = classify(H), classify(shifted)
        assert v.tau == w.tau
        assert v.case == w.case
        assert v.coprime == w.coprime
        assert v.stable_nonempty == w.stable_nonempty
        assert v.stable_smooth_dim == w.stable_smooth_dim
        assert v.closure_of_stable_connected == w.closure_of_stable_connected
        assert v.full_space_nonempty == w.full_space_nonempty
        assert v.full_space_connected == w.full_space_connected
        assert v.rigid == w.rigid
        assert v.r_gamma == w.r_gamma
        assert v.r_pu == w.r_pu
        assert v.citations == w.citations
        if v.rigid:
            # factor shapes agree; degrees are representative-dependent
            assert (
                v.rigidity_data.factor2_rank == w.rigidity_data.factor2_rank
            )
            assert v.rigidity_data.dim_sum == w.rigidity_data.dim_sum

    @given(higgs_types())
    @settings(max_examples=400)
    def test_every_definite_answer_carries_a_citation(self, H):
        v = classify(H)
        for field, value in (
            ("stable_nonempty", v.stable_nonempty),
            ("closure_of_stable_connected", v.closure_of_stable_connected),
            ("full_space_nonempty", v.full_space_nonempty),
            ("full_space_connected", v.full_space_connected),
        ):
            if value != "unknown":
                assert field in v.citations, field

    @given(higgs_types())
    @settings(max_examples=300)
    def test_representation_varieties_mirror_the_higgs_verdict(self, H):
        v = classify(H)
        assert v.r_gamma.nonempty == v.full_space_nonempty
        assert v.r_gamma.connected == v.full_space_connected
        assert v.r_pu.nonempty == v.full_space_nonempty
        assert v.r_pu.connected == v.full_space_connected
        # smoothness is never asserted for the adjoint-quotient variety
        if v.in_range:
            assert v.r_pu.smooth_of_expected_dim == "unknown"
        assert v.citations["r_gamma"] == "higgs-representation-correspondence"
        assert v.citations["r_pu"] == "jacobian-fibration-descent"


def criterion_10_types():
    """The types test_criterion_10_classifier draws, with its translates."""
    rng = random.Random(16180)
    yield HiggsType(1, 2, 2, 1, 2)
    yield HiggsType(2, 3, 1, 1, 2)
    for _ in range(3000):
        p, q, g = rng.randint(1, 4), rng.randint(1, 4), rng.randint(2, 4)
        a, b = rng.randint(-12, 12), rng.randint(-12, 12)
        for step in (0, -2, 1, 3):
            yield HiggsType(p, q, a + step * p, b + step * q, g)


def criterion_07_types():
    """Every class of the census box test_criterion_07_census checks."""
    for p in range(1, 8):
        for q in range(1, 9 - p):
            for g in (2, 3, 4):
                for cp in enumerate_region(p, q, g).points:
                    yield HiggsType(p, q, cp.a, cp.b, g)


def census_types():
    for p, q, g in itertools.product(range(1, 7), range(1, 7), range(2, 5)):
        for cp in enumerate_region(p, q, g).points:
            yield HiggsType(p, q, cp.a, cp.b, g)


def grid_types():
    ranks, degrees = range(1, 7), range(-12, 13)
    for p, q, a, b, g in itertools.product(
        ranks, ranks, degrees, degrees, range(2, 5)
    ):
        yield HiggsType(p, q, a, b, g)


class TestCaseTableAgainstOracle:
    """The case table gives the Verdict of the if chain it replaced,
    field for field and with the citations in the same order."""

    def check(self, types):
        n = 0
        for H in types:
            v, w = classify(H), oracle_classify(H)
            assert repr(v) == repr(w), H
            assert list(v.citations.items()) == list(w.citations.items()), H
            n += 1
        return n

    def test_criterion_10_types(self):
        assert self.check(criterion_10_types()) == 12002

    def test_every_census_class(self):
        assert self.check(census_types()) == 9087

    def test_grid(self):
        assert self.check(grid_types()) == 67500


class TestEqualRankWindowEdge:
    """For p = q, tau = a - b, and the window (p-1)(2g-2) < |tau| is
    tested in integers as (p-1)(2g-2)(p+q) < |2(qa - pb)|."""

    @given(
        st.integers(1, 6),
        st.integers(2, 5),
        st.sampled_from((-1, 0, 1)),
        st.sampled_from((-1, 1)),
        st.integers(-30, 30),
    )
    @settings(max_examples=300)
    def test_types_beside_the_edge_match_the_oracle(
        self, p, g, offset, sign, b
    ):
        edge = (p - 1) * (2 * g - 2)
        H = HiggsType(p, p, b + sign * (edge + offset), b, g)
        assert abs(toledo(H).tau) == abs(edge + offset)
        v, w = classify(H), oracle_classify(H)
        assert repr(v) == repr(w)
        assert list(v.citations.items()) == list(w.citations.items())


# One type per case: out of range, zero Toledo, interior in the
# equal-rank window, interior coprime, maximal with equal ranks, rigid.
ONE_PER_CASE = (
    HiggsType(1, 1, 5, 0, 2),
    HiggsType(1, 1, 1, 1, 2),
    HiggsType(3, 3, 4, -1, 2),
    HiggsType(2, 3, 1, 1, 2),
    HiggsType(1, 1, 2, 0, 2),
    HiggsType(1, 2, 2, 1, 2),
)


class TestSharedValues:
    """Verdicts share their r_gamma and r_pu records but never a
    citations dict."""

    def test_mutated_citations_leave_the_next_verdict_alone(self):
        for H in ONE_PER_CASE:
            first = classify(H)
            items = list(first.citations.items())
            first.citations["full_space_connected"] = "tampered"
            first.citations.pop("r_gamma")
            first.citations["extra"] = "tampered"
            again = classify(H)
            assert again.citations is not first.citations
            assert list(again.citations.items()) == items, H
            assert repr(again) == repr(oracle_classify(H)), H

    def test_no_two_census_verdicts_share_citations(self):
        """Over the census box of criterion 07: each verdict owns its
        citations, so clearing them changes no other verdict and no
        later classify of the same type."""
        types = list(criterion_07_types())
        verdicts = [classify(H) for H in types]
        assert len({id(v.citations) for v in verdicts}) == len(types) == 3954
        kept = [list(v.citations.items()) for v in verdicts]
        for H, v, items in zip(types, verdicts, kept):
            # the verdicts cleared before this one left it alone
            assert list(v.citations.items()) == items, H
            assert repr(v) == repr(oracle_classify(H)), H
            v.citations.clear()
            again = classify(H)
            assert list(again.citations.items()) == items, H
            assert repr(again) == repr(oracle_classify(H)), H
        assert all(v.citations == {} for v in verdicts)

    def test_shared_subspace_verdicts_equal_fresh_ones(self):
        for H in ONE_PER_CASE:
            v = classify(H)
            assert v.r_pu is classify(H).r_pu
            for shared in (v.r_gamma, v.r_pu):
                fresh = SubspaceVerdict(
                    shared.nonempty,
                    shared.connected,
                    shared.stable_nonempty,
                    shared.closure_of_stable_connected,
                    shared.smooth_of_expected_dim,
                )
                assert shared == fresh and repr(shared) == repr(fresh)
                assert hash(shared) == hash(fresh)
                for clone in (
                    pickle.loads(pickle.dumps(shared)),
                    copy.copy(shared),
                    copy.deepcopy(shared),
                ):
                    assert clone == fresh and hash(clone) == hash(fresh)
            assert pickle.loads(pickle.dumps(v)) == v
            assert copy.deepcopy(v) == v

    def test_shared_subspace_verdicts_refuse_assignment(self):
        from dataclasses import FrozenInstanceError

        v = classify(ONE_PER_CASE[2])
        with pytest.raises(FrozenInstanceError):
            v.r_gamma.connected = "no"
        assert classify(ONE_PER_CASE[2]).r_gamma.connected == "yes"
