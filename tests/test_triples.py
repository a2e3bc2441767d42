"""Core triple invariants: ranges, thresholds, Euler pairing, dimensions."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplemoduli import (
    DomainError,
    HiggsType,
    HodgeChain,
    TripleType,
    alpha_range,
    alpha_slope,
    canonicalize,
    chambers,
    chi,
    coprime_partition,
    delta_alpha,
    dim_h1_weight,
    dim_stable_moduli,
    dual,
    enumerate_region,
    enumerate_walls,
    fibration_dims,
    flip_dims,
    integer_genericity,
    is_critical,
    morse_index,
    omega_membership,
    slope,
    tau_quotient_facts,
    thresholds,
    triple_slope,
    uk_profile,
    wall_alpha,
    witness_check,
)

from oracles import oracle_alpha_L, oracle_alpha_range, oracle_thresholds

ranks = st.integers(min_value=1, max_value=5)
degrees = st.integers(min_value=-12, max_value=12)
genera = st.integers(min_value=2, max_value=5)


def triple_types():
    return st.builds(TripleType, ranks, ranks, degrees, degrees)


class TestTripleType:
    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            TripleType(1, 1, F(1, 2), 0)

    def test_rejects_negative_ranks(self):
        with pytest.raises(DomainError):
            TripleType(-1, 2, 0, 0)

    def test_rejects_rank_zero_pair(self):
        with pytest.raises(DomainError):
            TripleType(0, 0, 1, 1)

    def test_one_rank_may_be_zero(self):
        T = TripleType(0, 1, 0, 3)
        assert T.total_rank == 1
        assert T.total_degree == 3


class TestSlopes:
    def test_slope(self):
        assert slope(2, 5) == F(5, 2)

    def test_triple_slope(self):
        assert triple_slope(TripleType(2, 1, 4, 1)) == F(5, 3)

    def test_alpha_slope_adds_rank_weighted_parameter(self):
        T = TripleType(2, 1, 4, 1)
        assert alpha_slope(T, F(2)) == F(5, 3) + F(2) * F(1, 3)

    def test_delta_alpha_sign_example(self):
        T = TripleType(1, 1, 1, 0)
        W = TripleType(1, 0, 1, 0)
        assert delta_alpha(T, W, F(2)) == F(-1, 2)


class TestAlphaRange:
    def test_example_window(self):
        rng = alpha_range(TripleType(2, 1, 4, 1))
        assert (rng.lo, rng.hi) == (F(1), F(4))
        assert not rng.empty and not rng.single_point

    def test_equal_ranks_unbounded(self):
        rng = alpha_range(TripleType(1, 1, 1, 0))
        assert rng.lo == F(1)
        assert rng.hi is None

    def test_empty_iff_slopes_inverted(self):
        assert alpha_range(TripleType(2, 1, 0, 5)).empty

    def test_single_point_at_equal_slopes_unequal_ranks(self):
        rng = alpha_range(TripleType(2, 1, 2, 1))
        assert rng.single_point
        assert rng.lo == rng.hi == F(0)

    @given(triple_types())
    def test_flags_match_slope_gap(self, T):
        rng = alpha_range(T)
        gap = F(T.d1, T.n1) - F(T.d2, T.n2)
        assert rng.empty == (gap < 0)
        assert rng.single_point == (gap == 0 and T.n1 != T.n2)
        assert rng.lo == gap
        if T.n1 == T.n2:
            assert rng.hi is None
        else:
            assert rng.hi == (1 + F(T.total_rank, abs(T.n1 - T.n2))) * gap

    @given(triple_types())
    def test_dual_is_an_involution_preserving_the_window(self, T):
        D = dual(T)
        assert dual(D) == T
        a, b = alpha_range(T), alpha_range(D)
        assert (a.lo, a.hi, a.empty, a.single_point) == (
            b.lo, b.hi, b.empty, b.single_point,
        )


class TestAlphaRangeAgainstOracle:
    def test_every_small_type(self):
        # Ranks 0..6 and degrees -15..15: empty, single-point, equal-rank
        # and zero-rank types all occur, and a zero-rank type is refused
        # with the same message.
        seen = dict.fromkeys(
            ("empty", "single_point", "equal_ranks", "refused", "other"), 0)
        for n1, n2 in itertools.product(range(7), repeat=2):
            if n1 == n2 == 0:
                continue
            for d1, d2 in itertools.product(range(-15, 16), repeat=2):
                T = TripleType(n1, n2, d1, d2)
                try:
                    want = oracle_alpha_range(T)
                except DomainError as err:
                    with pytest.raises(DomainError) as info:
                        alpha_range(T)
                    assert str(info.value) == str(err)
                    seen["refused"] += 1
                    continue
                assert repr(alpha_range(T)) == repr(want), T
                seen["empty"] += want.empty
                seen["single_point"] += want.single_point
                seen["equal_ranks"] += want.hi is None
                seen["other"] += not (want.empty or want.single_point)
        assert sum(seen.values()) - seen["equal_ranks"] == 48 * 31 * 31
        assert min(seen.values()) >= 100, seen


class TestThresholds:
    def test_unequal_rank_example(self):
        th = thresholds(TripleType(3, 2, 5, 2))
        assert th.alpha_m == F(2, 3)
        assert th.alpha_M == F(4)
        assert th.alpha_0 == F(8, 7)
        assert th.alpha_js == (F(8, 7), F(2, 3))
        assert th.alpha_t == F(3, 2)
        assert th.alpha_e == F(3, 2)
        assert not th.dualized

    def test_equal_rank_example(self):
        th = thresholds(TripleType(2, 2, 3, 1))
        assert th.alpha_m == F(1)
        assert th.alpha_M is None
        assert th.alpha_0 == F(2)
        assert th.alpha_t is None
        assert th.alpha_L == F(2)
        assert th.alpha_e == F(2)

    def test_smaller_first_rank_dualizes(self):
        th = thresholds(TripleType(2, 3, 3, 0))
        assert th.dualized
        assert th.alpha_m == F(3, 2)

    def test_inverted_slopes_raise(self):
        with pytest.raises(DomainError):
            thresholds(TripleType(2, 1, 0, 5))

    def test_unequal_rank_alpha_L_matches_oracle(self):
        # Every unequal-rank type with mu1 >= mu2 in the box, input as
        # given: n1 < n2 goes through the dual, mu1 = mu2 is a one-point
        # range, and some types have no interior wall at all.
        seen = {"dualized": 0, "single_point": 0, "no_wall": 0, "wall": 0}
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                if n1 == n2:
                    continue
                for d1 in range(-6, 7):
                    for d2 in range(-6, 7):
                        gap = F(d1, n1) - F(d2, n2)
                        if gap < 0:
                            continue
                        T = TripleType(n1, n2, d1, d2)
                        th = thresholds(T)
                        want = oracle_alpha_L(T)
                        assert (th.alpha_L, th.alpha_L_is_fallback) == want, T
                        seen["dualized"] += th.dualized
                        seen["single_point"] += gap == 0
                        seen["no_wall"] += want[1] and gap > 0
                        seen["wall"] += not want[1]
        assert min(seen.values()) >= 20, seen

    def test_alpha_js_and_alpha_t_match_oracle(self):
        # Ranks 1..6 and degrees -9..9 with mu1 >= mu2, input as given:
        # n1 < n2 goes through the dual, and equal ranks have no alpha_t.
        count = 0
        for n1, n2 in itertools.product(range(1, 7), repeat=2):
            for d1, d2 in itertools.product(range(-9, 10), repeat=2):
                if d1 * n2 < d2 * n1:
                    continue
                T = TripleType(n1, n2, d1, d2)
                th = thresholds(T)
                got = (th.alpha_js, th.alpha_t, th.alpha_e)
                assert got == oracle_thresholds(T), T
                assert th.alpha_0 == th.alpha_js[0]
                count += 1
        assert count == 6638

    @given(triple_types())
    @settings(max_examples=300)
    def test_threshold_laws(self, T):
        gap = F(T.d1, T.n1) - F(T.d2, T.n2)
        if gap < 0:
            with pytest.raises(DomainError):
                thresholds(T)
            return
        th = thresholds(T)
        small = min(T.n1, T.n2)
        assert th.alpha_0 >= th.alpha_m
        assert (th.alpha_0 == th.alpha_m) == (small == 1 or gap == 0)
        if gap > 0:
            assert all(
                x > y for x, y in zip(th.alpha_js, th.alpha_js[1:])
            )
        if T.n1 != T.n2 and th.alpha_M is not None:
            assert th.alpha_t is not None
            assert th.alpha_t < th.alpha_M
        assert th.alpha_e == max(
            x for x in (th.alpha_m, th.alpha_0, th.alpha_t) if x is not None
        )


class TestEulerPairing:
    def test_worked_example(self):
        assert chi(TripleType(1, 1, 1, 0), TripleType(1, 0, 2, 0), 2) == -1

    def test_self_pairing_example(self):
        assert chi(TripleType(2, 1, 4, 1), TripleType(2, 1, 4, 1), 2) == -5

    def test_dimension_is_one_minus_self_pairing(self):
        assert dim_stable_moduli(TripleType(2, 1, 4, 1), 2) == 6
        assert dim_stable_moduli(TripleType(1, 1, 2, 0), 2) == 4

    @given(triple_types(), genera)
    def test_dimension_closed_form(self, T, g):
        expected = (
            (g - 1) * (T.n1 ** 2 + T.n2 ** 2 - T.n1 * T.n2)
            + T.n2 * T.d1
            - T.n1 * T.d2
            + 1
        )
        assert dim_stable_moduli(T, g) == expected
        assert dim_stable_moduli(T, g) == 1 - chi(T, T, g)

    @given(triple_types(), triple_types(), triple_types(), genera)
    @settings(max_examples=300)
    def test_pairing_is_biadditive(self, A, B, C, g):
        AB = TripleType(
            A.n1 + B.n1, A.n2 + B.n2, A.d1 + B.d1, A.d2 + B.d2
        )
        assert chi(AB, C, g) == chi(A, C, g) + chi(B, C, g)
        assert chi(C, AB, g) == chi(C, A, g) + chi(C, B, g)

    def test_genus_must_be_at_least_two(self):
        with pytest.raises(DomainError):
            chi(TripleType(1, 1, 0, 0), TripleType(1, 1, 0, 0), 1)


class TestFibration:
    def test_larger_first_rank(self):
        fib = fibration_dims(TripleType(2, 1, 4, 1), 2)
        assert fib.fiber_dim == 3
        assert not fib.via_duality and not fib.empty_fiber
        kinds = [(f.kind, f.rank, f.degree) for f in fib.base_factors]
        assert kinds == [
            ("stable_bundles", 1, 3),
            ("stable_bundles", 1, 1),
        ]

    def test_equal_ranks_use_symmetric_product(self):
        fib = fibration_dims(TripleType(2, 2, 3, 1), 2)
        assert fib.fiber_dim == 3
        kinds = [(f.kind, f.rank, f.degree) for f in fib.base_factors]
        assert kinds == [
            ("stable_bundles", 2, 1),
            ("symmetric_product", None, 2),
        ]

    def test_smaller_first_rank_goes_through_the_dual(self):
        fib = fibration_dims(TripleType(1, 2, 0, 1), 3)
        assert fib.via_duality

    def test_negative_fiber_dimension_is_flagged(self):
        fib = fibration_dims(TripleType(2, 1, 0, 0), 2)
        assert fib.fiber_dim == 1
        T = TripleType(2, 1, -1, 1)
        fib2 = fibration_dims(T, 2)
        assert fib2.fiber_dim < 0
        assert fib2.empty_fiber


class TestWitnessCheck:
    def test_passing_certificate(self):
        T = TripleType(1, 1, 1, 0)
        rep = witness_check(T, [TripleType(1, 0, 1, 0)], F(2))
        assert rep.passed
        item = rep.items[0]
        assert item.delta == F(-1, 2)
        assert item.satisfies

    def test_nonstrict_allows_equality(self):
        T = TripleType(2, 1, 4, 1)
        W = TripleType(0, 1, 0, 0)
        strict = witness_check(T, [W], F(5, 2), strict=True)
        weak = witness_check(T, [W], F(5, 2), strict=False)
        assert not strict.passed
        assert weak.passed
        assert weak.items[0].delta == F(0)

    def test_out_of_bounds_witness_reports_error(self):
        T = TripleType(1, 1, 1, 0)
        rep = witness_check(T, [TripleType(2, 0, 1, 0)], F(2))
        assert not rep.passed
        assert rep.items[0].error is not None

    def test_whole_triple_rejected_only_in_strict_mode(self):
        T = TripleType(1, 1, 1, 0)
        strict = witness_check(T, [T], F(2))
        weak = witness_check(T, [T], F(2), strict=False)
        assert not strict.passed
        assert strict.items[0].error is not None
        assert weak.passed


ZERO_RANK = TripleType(0, 1, 0, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: alpha_range(ZERO_RANK), "alpha_range needs both ranks >= 1"),
        (lambda: thresholds(ZERO_RANK), "thresholds needs both ranks >= 1"),
        (
            lambda: enumerate_walls(ZERO_RANK),
            "enumerate_walls needs both ranks >= 1",
        ),
        (
            lambda: is_critical(ZERO_RANK, 1),
            "is_critical needs both ranks >= 1",
        ),
        (lambda: chambers(ZERO_RANK, 2), "chambers needs both ranks >= 1"),
        (
            lambda: flip_dims(ZERO_RANK, TripleType(0, 1, 0, 0), 2),
            "flip_dims needs both ranks of T >= 1",
        ),
        (
            lambda: fibration_dims(ZERO_RANK, 2),
            "fibration_dims needs both ranks >= 1",
        ),
    ],
    ids=[
        "alpha_range",
        "thresholds",
        "enumerate_walls",
        "is_critical",
        "chambers",
        "flip_dims",
        "fibration_dims",
    ],
)
def test_zero_rank_refusal_names_the_function(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


T21 = TripleType(2, 1, 4, 1)
T11 = TripleType(1, 1, 1, 0)
T22 = TripleType(2, 2, 1, 0)

# every caller-facing rational parameter: how to pass it, and its name
RATIONAL_PARAMETERS = {
    "alpha_slope": (lambda x: alpha_slope(T21, x), "alpha"),
    "delta_alpha": (
        lambda x: delta_alpha(T21, TripleType(0, 1, 0, 0), x),
        "alpha",
    ),
    "witness_check": (
        lambda x: witness_check(T21, [TripleType(0, 1, 0, 0)], x),
        "alpha",
    ),
    "is_critical": (lambda x: is_critical(T21, x), "alpha"),
    "enumerate_walls lo": (
        lambda x: enumerate_walls(T21, interval=(x, F(4))),
        "interval lo",
    ),
    "enumerate_walls hi": (
        lambda x: enumerate_walls(T21, interval=(F(1), x)),
        "interval hi",
    ),
    "chambers equal ranks": (lambda x: chambers(T11, 2, cutoff=x), "cutoff"),
    # not used for unequal ranks, but still checked
    "chambers": (lambda x: chambers(T21, 2, cutoff=x), "cutoff"),
}


@pytest.mark.parametrize(
    "value",
    [0.1, 2.0, True, "1/2", float("nan"), float("inf")],
    ids=["float", "integral-float", "bool", "str", "nan", "inf"],
)
@pytest.mark.parametrize("site", sorted(RATIONAL_PARAMETERS))
def test_a_rational_parameter_takes_only_int_or_fraction(site, value):
    call, name = RATIONAL_PARAMETERS[site]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == "%s must be an integer or a Fraction, not %s" % (
        name,
        type(value).__name__,
    )
    # an int or a Fraction is taken
    call(3)
    call(F(7, 2))


CHAIN = HodgeChain((1, 2, 1), (3, 1, -2))

# every caller-facing integer parameter: how to pass it, and its name;
# each site takes 2
INTEGER_PARAMETERS = {
    "TripleType n1": (lambda x: TripleType(x, 1, 4, 1), "n1"),
    "TripleType n2": (lambda x: TripleType(2, x, 4, 1), "n2"),
    "TripleType d1": (lambda x: TripleType(2, 1, x, 1), "d1"),
    "TripleType d2": (lambda x: TripleType(2, 1, 4, x), "d2"),
    "slope n": (lambda x: slope(x, 1), "rank"),
    "slope d": (lambda x: slope(2, x), "degree"),
    "chi": (lambda x: chi(T21, T11, x), "genus"),
    "dim_stable_moduli": (lambda x: dim_stable_moduli(T21, x), "genus"),
    "fibration_dims": (lambda x: fibration_dims(T21, x), "genus"),
    "wall_alpha n1p": (lambda x: wall_alpha(T21, x, 0, 5), "n1p"),
    "wall_alpha n2p": (lambda x: wall_alpha(T22, 1, x, 5), "n2p"),
    "wall_alpha dsum": (lambda x: wall_alpha(T21, 1, 0, x), "dsum"),
    "enumerate_walls": (lambda x: enumerate_walls(T21, g=x), "genus"),
    "integer_genericity": (lambda x: integer_genericity(T21, x), "m"),
    "chambers": (lambda x: chambers(T21, x), "genus"),
    "flip_dims": (
        lambda x: flip_dims(T21, TripleType(2, 0, 5, 0), x),
        "genus",
    ),
    "HiggsType p": (lambda x: HiggsType(x, 3, 1, 1, 2), "p"),
    "HiggsType q": (lambda x: HiggsType(2, x, 1, 1, 2), "q"),
    "HiggsType a": (lambda x: HiggsType(2, 3, x, 1, 2), "a"),
    "HiggsType b": (lambda x: HiggsType(2, 3, 1, x, 2), "b"),
    "HiggsType g": (lambda x: HiggsType(2, 3, 1, 1, x), "genus"),
    "omega_membership p": (lambda x: omega_membership(x, 3, 2, 1, 1), "p"),
    "omega_membership q": (lambda x: omega_membership(2, x, 2, 1, 1), "q"),
    "omega_membership g": (
        lambda x: omega_membership(2, 3, x, 1, 1),
        "genus",
    ),
    "omega_membership a": (lambda x: omega_membership(2, 3, 2, x, 1), "a"),
    "omega_membership b": (lambda x: omega_membership(2, 3, 2, 1, x), "b"),
    "canonicalize p": (lambda x: canonicalize(x, 3, 2, 1, 1), "p"),
    "canonicalize q": (lambda x: canonicalize(2, x, 2, 1, 1), "q"),
    "canonicalize g": (lambda x: canonicalize(2, 3, x, 1, 1), "genus"),
    "canonicalize a": (lambda x: canonicalize(2, 3, 2, x, 1), "a"),
    "canonicalize b": (lambda x: canonicalize(2, 3, 2, 1, x), "b"),
    "enumerate_region p": (lambda x: enumerate_region(x, 3, 2), "p"),
    "enumerate_region q": (lambda x: enumerate_region(2, x, 2), "q"),
    "enumerate_region g": (lambda x: enumerate_region(2, 3, x), "genus"),
    "tau_quotient_facts p": (lambda x: tau_quotient_facts(x, 3), "p"),
    "tau_quotient_facts q": (lambda x: tau_quotient_facts(2, x), "q"),
    "coprime_partition p": (lambda x: coprime_partition(x, 3, 2), "p"),
    "coprime_partition q": (lambda x: coprime_partition(2, x, 2), "q"),
    "coprime_partition g": (lambda x: coprime_partition(2, 3, x), "genus"),
    "HodgeChain rank": (lambda x: HodgeChain((1, x), (1, 0)), "chain rank"),
    "HodgeChain degree": (
        lambda x: HodgeChain((1, 1), (1, x)),
        "chain degree",
    ),
    "uk_profile": (lambda x: uk_profile(CHAIN, x), "weight k"),
    "dim_h1_weight k": (lambda x: dim_h1_weight(CHAIN, x, 2), "weight k"),
    "dim_h1_weight g": (lambda x: dim_h1_weight(CHAIN, 1, x), "genus"),
    "morse_index": (lambda x: morse_index(CHAIN, x), "genus"),
}


@pytest.mark.parametrize(
    "value",
    [True, 0.5, 2.0, F(1, 2), "2"],
    ids=["bool", "float", "integral-float", "fraction", "str"],
)
@pytest.mark.parametrize("site", sorted(INTEGER_PARAMETERS))
def test_an_integer_parameter_takes_only_int(site, value):
    call, name = INTEGER_PARAMETERS[site]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value).startswith("%s must be an integer" % name)
    call(2)


class Int(int):
    """A non-bool int subclass, which every integer check accepts."""


@pytest.mark.parametrize("site", sorted(INTEGER_PARAMETERS))
def test_an_integer_parameter_takes_an_int_subclass(site):
    call, _ = INTEGER_PARAMETERS[site]
    assert call(Int(2)) == call(2)


def test_the_checked_records_store_an_int_subclass_as_given():
    """TripleType and HiggsType keep the int given, of its own type, and
    refuse one out of bounds with the message a plain int gets."""
    given = (Int(2), Int(0), Int(4), Int(-1))
    T = TripleType(*given)
    assert T == TripleType(2, 0, 4, -1)
    assert all(x is y for x, y in zip(T.as_tuple, given))
    given = (Int(2), Int(3), Int(-5), Int(1), Int(2))
    H = HiggsType(*given)
    assert H == HiggsType(2, 3, -5, 1, 2)
    assert all(getattr(H, f) is x for f, x in zip("pqabg", given))
    for call, message in (
        (lambda: TripleType(Int(-1), 1, 0, 0), "ranks must be nonnegative"),
        (lambda: TripleType(Int(0), Int(0), 0, 0), "ranks must not both"),
        (lambda: HiggsType(Int(0), 3, 1, 1, 2), "p must be an integer >= 1"),
        (lambda: HiggsType(2, 3, 1, 1, Int(1)), "genus must be an integer"),
    ):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value).startswith(message)
