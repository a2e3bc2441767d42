"""Wall sets against a brute-force oracle, chambers, and flip data."""

import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F
from functools import partial
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triplemoduli import (
    Chamber,
    ChamberReport,
    DomainError,
    TripleType,
    Wall,
    WallTest,
    WallWitness,
    alpha_range,
    chambers,
    chi,
    dim_stable_moduli,
    dual,
    enumerate_walls,
    flip_dims,
    integer_genericity,
    is_critical,
    wall_alpha,
)
from triplemoduli import walls as walls_module
from triplemoduli.walls import _wall_plan, _wall_rows

from oracles import (
    oracle_critical_at_integer,
    oracle_is_critical,
    oracle_twin,
    oracle_walls,
    reference_grouped,
)

ranks = st.integers(min_value=1, max_value=4)
degrees = st.integers(min_value=-8, max_value=8)


def triple_types():
    return st.builds(TripleType, ranks, ranks, degrees, degrees)


def wall_set(walls):
    return {
        w.alpha: {(x.n1p, x.n2p, x.dsum) for x in w.witnesses}
        for w in walls
    }


def alpha_L_equal(T):
    rng = alpha_range(T)
    return T.n1 * (T.n1 - 1) * rng.lo if T.n1 == T.n2 else None


def default_window(T, g):
    rng = alpha_range(T)
    if T.n1 == T.n2:
        return rng.lo, max(alpha_L_equal(T), F(2 * g - 2), rng.lo) + 1
    return rng.lo, rng.hi


def oracle_wall_tuple(T, lo, hi, include_endpoints=False):
    """What enumerate_walls must return for the closed window [lo, hi],
    built from the brute-force oracle: ascending walls, sorted witnesses,
    stabilized above alpha_L for n1 = n2."""
    rng = alpha_range(T)
    found = oracle_walls(T, lo, hi)
    if not include_endpoints:
        found.pop(rng.lo, None)
        found.pop(rng.hi, None)
    aL = alpha_L_equal(T)
    return tuple(
        Wall(
            a,
            tuple(WallWitness(*x) for x in sorted(found[a])),
            aL is not None and a > aL,
        )
        for a in sorted(found)
    )


def reference_chambers(T, g, cutoff=None):
    """ChamberReport rebuilt from the oracle walls by linear scans."""
    rng = alpha_range(T)
    lo = rng.lo
    aL = alpha_L_equal(T)
    if aL is None:
        top = rng.hi
    elif cutoff is None:
        top = default_window(T, g)[1]
    else:
        top = cutoff
    walls = tuple(
        w for w in oracle_wall_tuple(T, lo, top) if lo < w.alpha < top
    )
    bounds = [lo] + [w.alpha for w in walls] + [top]
    spans = list(zip(bounds, bounds[1:]))
    large = [
        i == len(spans) - 1 or (aL is not None and c_lo >= aL)
        for i, (c_lo, _) in enumerate(spans)
    ]
    marker = F(2 * g - 2)
    inside = [i for i, (a, b) in enumerate(spans) if a < marker < b]
    if marker < lo:
        status = "below_range"
    elif marker == lo:
        status = "at_alpha_m"
    elif aL is None and marker == top:
        status = "at_alpha_M"
    elif marker > top:
        status = "above_range"
    elif marker in bounds:
        status = "on_wall" if marker != top else "inside"
    else:
        status = "inside"
    mc = inside[0] if inside else None
    flips = None
    if mc is not None:
        flips = min(abs(i - mc) for i, f in enumerate(large) if f)
    return ChamberReport(
        chambers=tuple(
            Chamber(a, b, mc == i, large[i]) for i, (a, b) in enumerate(spans)
        ),
        walls=walls,
        alpha_m=lo,
        top=top,
        top_is_alpha_M=aL is None,
        alpha_L=aL,
        marker=marker,
        marker_status=status,
        marker_chamber=mc,
        flips_to_large=flips,
    )


class TestEnumerateWalls:
    def test_frozen_example_with_two_witnesses(self):
        walls = enumerate_walls(TripleType(2, 1, 4, 1))
        assert wall_set(walls) == {F(5, 2): {(0, 1, 0), (2, 0, 5)}}

    def test_frozen_example_with_no_interior_walls(self):
        assert enumerate_walls(TripleType(2, 1, 3, 1)) == ()

    def test_frozen_equal_rank_window(self):
        walls = enumerate_walls(TripleType(1, 1, 1, 0), interval=(F(1), F(5)))
        assert [w.alpha for w in walls] == [F(3), F(5)]

    def test_range_endpoints_dropped_by_default(self):
        T = TripleType(2, 1, 3, 1)
        kept = enumerate_walls(T, include_endpoints=True)
        assert F(1, 2) in {w.alpha for w in kept}

    def test_window_endpoint_that_is_not_a_range_endpoint_stays(self):
        # interval (1, 5] on an equal-rank type: 1 is alpha_m (dropped),
        # 5 is merely the window edge (kept).
        walls = enumerate_walls(TripleType(1, 1, 1, 0), interval=(F(1), F(5)))
        assert F(5) in {w.alpha for w in walls}
        assert F(1) not in {w.alpha for w in walls}

    def test_empty_range_has_no_walls(self):
        assert enumerate_walls(TripleType(2, 1, 0, 5)) == ()
        assert enumerate_walls(TripleType(1, 1, 0, 3), g=2) == ()

    def test_equal_ranks_need_interval_or_genus(self):
        with pytest.raises(DomainError):
            enumerate_walls(TripleType(1, 1, 1, 0))

    def test_explicit_inverted_interval_raises(self):
        with pytest.raises(DomainError):
            enumerate_walls(TripleType(2, 1, 4, 1), interval=(F(3), F(2)))

    def test_equal_rank_walls_above_stabilization_are_tagged(self):
        walls = enumerate_walls(TripleType(1, 1, 1, 0), interval=(F(1), F(5)))
        assert all(w.stabilized for w in walls)  # alpha_L = 0 here

    def test_sorted_and_deduplicated(self):
        walls = enumerate_walls(TripleType(3, 2, 7, 1))
        alphas = [w.alpha for w in walls]
        assert alphas == sorted(set(alphas))

    @given(triple_types())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_the_default_window(self, T):
        rng = alpha_range(T)
        if rng.empty:
            assert enumerate_walls(T, g=2) == ()
            return
        walls = enumerate_walls(T, g=2)
        expected = oracle_walls(T, *default_window(T, 2))
        expected.pop(rng.lo, None)
        if rng.hi is not None:
            expected.pop(rng.hi, None)
        assert wall_set(walls) == expected

    @given(triple_types())
    @settings(max_examples=150, deadline=None)
    def test_wall_set_is_duality_invariant(self, T):
        D = dual(T)
        if alpha_range(T).empty:
            assert enumerate_walls(T, g=2) == enumerate_walls(D, g=2) == ()
            return
        a = {w.alpha for w in enumerate_walls(T, g=2)}
        b = {w.alpha for w in enumerate_walls(D, g=2)}
        assert a == b

    @given(triple_types())
    @settings(max_examples=100, deadline=None)
    def test_every_wall_tests_critical_and_witnesses_solve_the_equation(
        self, T
    ):
        if alpha_range(T).empty:
            return
        for w in enumerate_walls(T, g=2):
            test = is_critical(T, w.alpha)
            assert test.critical and test.witnesses == w.witnesses
            for x in w.witnesses:
                assert wall_alpha(T, x.n1p, x.n2p, x.dsum) == w.alpha


class TestWallTupleAgainstOracle:
    """Whole Wall tuples, so alpha order, witness order and the
    stabilized flags are checked, not just the wall sets."""

    @given(triple_types(), st.integers(2, 4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_default_window(self, T, g, include_endpoints):
        if alpha_range(T).empty:
            return
        walls = enumerate_walls(T, include_endpoints=include_endpoints, g=g)
        expected = oracle_wall_tuple(
            T, *default_window(T, g), include_endpoints
        )
        assert walls == expected

    @given(
        triple_types(),
        st.integers(0, 120),
        st.integers(0, 480),
        st.sampled_from([17, 19, 23]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_explicit_interval_off_the_lattice(
        self, T, below, above, den, include_endpoints
    ):
        # For ranks <= 4 every |n1' n2 - n1 n2'| is at most 16, so these
        # edges are off the lattice (1/L)Z unless den divides the offset.
        lo = alpha_range(T).lo
        window = (lo - F(below, den), lo + F(above, den))
        walls = enumerate_walls(
            T, interval=window, include_endpoints=include_endpoints
        )
        assert walls == oracle_wall_tuple(T, *window, include_endpoints)

    def test_sampled_larger_ranks(self):
        rnd = random.Random(88)
        checked = 0
        while checked < 40:
            T = TripleType(
                rnd.randint(1, 8),
                rnd.randint(1, 8),
                rnd.randint(-12, 12),
                rnd.randint(-12, 12),
            )
            if alpha_range(T).empty:
                continue
            g = rnd.randint(2, 4)
            expected = oracle_wall_tuple(T, *default_window(T, g))
            assert enumerate_walls(T, g=g) == expected
            checked += 1


def assert_rows_match(T, **kwargs):
    """The CLI's integer rows against the public Wall tuple."""
    rows = _wall_rows(T, **kwargs)
    walls = enumerate_walls(T, **kwargs)
    assert len(rows) == len(walls)
    for (num, den, wits, stabilized), w in zip(rows, walls):
        assert den > 0 and math.gcd(num, den) == 1
        assert F(num, den) == w.alpha
        assert list(wits) == [(x.n1p, x.n2p, x.dsum) for x in w.witnesses]
        assert stabilized == w.stabilized


class TestWallRowsAgainstEnumerateWalls:
    """walls._wall_rows, which the CLI writes, on the sweeps of
    TestWallTupleAgainstOracle."""

    @given(triple_types(), st.integers(2, 4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_default_window(self, T, g, include_endpoints):
        assert_rows_match(T, include_endpoints=include_endpoints, g=g)

    @given(
        triple_types(),
        st.integers(0, 120),
        st.integers(0, 480),
        st.sampled_from([17, 19, 23]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_explicit_interval_off_the_lattice(
        self, T, below, above, den, include_endpoints
    ):
        lo = alpha_range(T).lo
        window = (lo - F(below, den), lo + F(above, den))
        assert_rows_match(
            T, interval=window, include_endpoints=include_endpoints
        )

    def test_sampled_larger_ranks(self):
        rnd = random.Random(88)
        checked = 0
        while checked < 40:
            T = TripleType(
                rnd.randint(1, 8),
                rnd.randint(1, 8),
                rnd.randint(-12, 12),
                rnd.randint(-12, 12),
            )
            if alpha_range(T).empty:
                continue
            assert_rows_match(T, g=rnd.randint(2, 4))
            checked += 1

    def test_refusals_are_the_same(self):
        genus = "genus must be an integer >= 2"
        for T, kwargs, message in [
            (TripleType(1, 1, 1, 0), {}, "unbounded"),
            (TripleType(2, 1, 4, 1), {"interval": (F(3), F(2))}, "lo > hi"),
            (TripleType(1, 1, 1, 0), {"g": 1}, genus),
            # a given genus is checked where the window does not use it
            (TripleType(2, 1, 4, 1), {"g": "x"}, genus),
            (TripleType(1, 1, 1, 0), {"g": 1, "interval": (0, 3)}, genus),
            (TripleType(1, 1, 0, 1), {"g": 1}, genus),
        ]:
            with pytest.raises(DomainError, match=message) as public:
                enumerate_walls(T, **kwargs)
            with pytest.raises(DomainError) as rows:
                _wall_rows(T, **kwargs)
            assert str(rows.value) == str(public.value)


def plan_candidates(T, **kwargs):
    """Witness candidates of the scan plan: the sum of its d'-range
    lengths, with no scan run."""
    *_, plan = _wall_plan(T, kwargs.get("interval"), True, kwargs.get("g"))
    return sum(len(dps) for _, _, dps, _ in plan)


class TestPlanCandidates:
    @given(triple_types(), st.integers(2, 4))
    @settings(max_examples=200, deadline=None)
    def test_plan_counts_every_witness_of_the_closed_window(self, T, g):
        walls = enumerate_walls(T, include_endpoints=True, g=g)
        assert plan_candidates(T, g=g) == sum(len(w.witnesses) for w in walls)

    def test_frozen_large_count(self):
        assert plan_candidates(TripleType(5, 3, 4000, -4000)) == 157878


def scan_inputs(T, interval=None, include_endpoints=False, g=None):
    """_grouped's arguments for one enumerate_walls call."""
    _, _, aL, L, drop, plan = _wall_plan(T, interval, include_endpoints, g)
    return aL, L, drop, plan


# the row and record builders of the library, and records built one
# call per witness
BUILDERS = [zip, walls_module._witness_records, partial(map, WallWitness)]


def grouped_as_lists(*args):
    """walls._grouped's walls with each witness group as a list, the
    form reference_grouped gives."""
    return [
        (k, list(witnesses), stabilized)
        for k, witnesses, stabilized in walls_module._grouped(*args)
    ]


def scan_cases():
    """(g, include_endpoints, offsets): the default window with g, or
    the interval from alpha_m - offsets[0]/17 to alpha_m + offsets[1]/17."""
    return st.one_of(
        st.tuples(st.integers(2, 4), st.booleans(), st.none()),
        st.tuples(
            st.none(),
            st.booleans(),
            st.tuples(st.integers(0, 60), st.integers(0, 240)),
        ),
    )


class TestWindowedScan:
    """walls._grouped groups one key window of about _WINDOW candidates
    at a time. With windows of 1-9 candidates every scan below runs
    through many windows, so rank pairs with falling keys (det < 0),
    dropped endpoint keys and the stabilized flags meet window edges."""

    @given(triple_types(), st.integers(1, 9), scan_cases())
    @settings(max_examples=150, deadline=None)
    def test_small_windows_match_the_reference_and_the_oracle(
        self, T, window, case
    ):
        g, include_endpoints, offsets = case
        interval = None
        if offsets is not None:
            lo = alpha_range(T).lo
            interval = (lo - F(offsets[0], 17), lo + F(offsets[1], 17))
        elif alpha_range(T).empty:
            return
        args = scan_inputs(T, interval, include_endpoints, g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walls_module, "_WINDOW", window)
            for build in BUILDERS:
                got = grouped_as_lists(*args, build)
                assert got == list(reference_grouped(*args, build))
            walls = enumerate_walls(
                T, interval, include_endpoints=include_endpoints, g=g
            )
        if interval is None:
            interval = default_window(T, g)
        assert walls == oracle_wall_tuple(T, *interval, include_endpoints)

    @given(
        triple_types(),
        st.integers(1, 9),
        st.integers(2, 4),
        st.one_of(st.none(), st.integers(1, 60)),
    )
    @settings(max_examples=100, deadline=None)
    def test_small_windows_give_the_same_chambers(self, T, window, g, cut):
        rng = alpha_range(T)
        if rng.empty or rng.single_point:
            return
        cutoff = None if cut is None or T.n1 != T.n2 else rng.lo + F(cut, 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walls_module, "_WINDOW", window)
            report = chambers(T, g, cutoff)
        assert report == reference_chambers(T, g, cutoff)

    def test_windows_partition_the_plan(self, monkeypatch):
        """The candidates of each window, recorded through walls._group,
        together are the plan's, each once; windows ascend in key and
        hold at most _WINDOW candidates plus a few per rank pair. Over
        the sweep some window edge falls on a dropped key, and some
        between the last plain and the first stabilized key."""
        real_group = walls_module._group
        windows = []

        def recording_group(aL, L, drop, plan, witnesses):
            windows.append(plan)
            return real_group(aL, L, drop, plan, witnesses)

        def candidates(plan):
            return [
                (k, n1p, n2p, d)
                for n1p, n2p, dps, keys in plan
                for d, k in zip(dps, keys)
            ]

        monkeypatch.setattr(walls_module, "_group", recording_group)
        dropped_at_edge = stabilized_at_edge = 0
        for n1, n2, d1, d2 in itertools.product(
            range(1, 4), range(1, 4), range(-6, 7, 3), range(-6, 7, 3)
        ):
            T = TripleType(n1, n2, d1, d2)
            if alpha_range(T).empty:
                continue
            aL, L, drop, plan = args = scan_inputs(T, g=2)
            expected = list(reference_grouped(*args, zip))
            whole = sorted(candidates(plan))
            for window in range(1, 10):
                monkeypatch.setattr(walls_module, "_WINDOW", window)
                windows.clear()
                assert grouped_as_lists(*args, zip) == expected
                parts = [sorted(candidates(cut)) for cut in windows]
                assert sorted(c for part in parts for c in part) == whole
                assert max(map(len, parts)) <= window + 4 * len(plan)
                spans = [(part[0][0], part[-1][0]) for part in parts if part]
                assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
                edges = {k for span in spans for k in span}
                dropped_at_edge += len(spans) > 1 and any(
                    k in edges for k in drop
                )
                if aL is not None:
                    last_plain = math.floor(aL * L)
                    stabilized_at_edge += any(
                        a[1] <= last_plain < b[0]
                        for a, b in zip(spans, spans[1:])
                    )
        assert dropped_at_edge > 0
        assert stabilized_at_edge > 0

    def test_memory_is_bounded_by_the_window(self):
        """Iterating the scan without keeping its output peaks at about
        one window's dict, whatever the request: the plan of
        (5,3,4000,-4000) has 157,878 candidates, four times
        (5,3,1000,-1000)'s, and one dict of them all peaked at about
        four times as high."""
        peaks = []
        for D in (1000, 4000):
            args = scan_inputs(TripleType(5, 3, D, -D))
            tracemalloc.start()
            try:
                for _ in walls_module._grouped(*args, zip):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestPeriodicity:
    """The fact the translated scan relies on, checked on the oracle
    alone: moving the window by n = n1 + n2 moves every wall by n, and
    each witness (n1', n2', d') to (n1', n2', d' + det), with
    det = n1' n2 - n1 n2'."""

    @given(
        triple_types(),
        st.integers(-60, 60),
        st.integers(1, 6),
        st.integers(0, 60),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_walls_move_by_n_and_witnesses_by_det(self, T, p, q, length, r):
        lo = F(p, q)
        hi = lo + F(length, r)
        n = T.n1 + T.n2
        moved = {
            alpha + n: {
                (n1p, n2p, d + n1p * T.n2 - T.n1 * n2p)
                for n1p, n2p, d in witnesses
            }
            for alpha, witnesses in oracle_walls(T, lo, hi).items()
        }
        assert oracle_walls(T, lo + n, hi + n) == moved


def refuse_group(aL, L, drop, plan, witnesses):
    """A stand-in for walls._group that fails on any candidate, so a
    scan that passes built every window by translation."""
    assert not any(dps for _, _, dps, _ in plan), "a window was grouped"
    return [], [], repeat(False)


class TestTranslatedScan:
    """walls._columns builds every key window spanning _PERIODS periods
    or more by translating one period of candidates. With _PERIODS = 0
    every scan is built that way, also one spanning less than a period;
    over the strategies of TestWindowedScan, with or without windows of
    1-9 candidates, that covers falling rank pairs, dropped keys inside
    a window and stabilized flags on both sides of window edges."""

    @given(
        triple_types(), st.one_of(st.none(), st.integers(1, 9)), scan_cases()
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_matches_the_reference_and_the_oracle(
        self, T, window, case
    ):
        g, include_endpoints, offsets = case
        interval = None
        if offsets is not None:
            lo = alpha_range(T).lo
            interval = (lo - F(offsets[0], 17), lo + F(offsets[1], 17))
        elif alpha_range(T).empty:
            return
        args = scan_inputs(T, interval, include_endpoints, g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walls_module, "_PERIODS", 0)
            if window is not None:
                mp.setattr(walls_module, "_WINDOW", window)
            mp.setattr(walls_module, "_group", refuse_group)
            for build in BUILDERS:
                got = grouped_as_lists(*args, build)
                assert got == list(reference_grouped(*args, build))
            walls = enumerate_walls(
                T, interval, include_endpoints=include_endpoints, g=g
            )
        if interval is None:
            interval = default_window(T, g)
        assert walls == oracle_wall_tuple(T, *interval, include_endpoints)

    @given(
        triple_types(),
        st.one_of(st.none(), st.integers(1, 9)),
        st.integers(2, 4),
        st.one_of(st.none(), st.integers(1, 60)),
    )
    @settings(max_examples=150, deadline=None)
    def test_translation_gives_the_same_chambers(self, T, window, g, cut):
        rng = alpha_range(T)
        if rng.empty or rng.single_point:
            return
        cutoff = None if cut is None or T.n1 != T.n2 else rng.lo + F(cut, 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walls_module, "_PERIODS", 0)
            if window is not None:
                mp.setattr(walls_module, "_WINDOW", window)
            mp.setattr(walls_module, "_group", refuse_group)
            report = chambers(T, g, cutoff)
        assert report == reference_chambers(T, g, cutoff)

    def test_translated_windows_meet_drops_and_stabilization(
        self, monkeypatch
    ):
        """Over a sweep of translated scans, the output is the
        reference's, some window holds a dropped key strictly inside,
        and the last unstabilized key falls both strictly inside a
        window and at the end of one. Each type is scanned on its
        default window and on one reaching 3 past each end of it, where
        the dropped range endpoints are inside the scan."""
        real_translated = walls_module._translated
        windows = []

        def recording_translated(template, a, b, *rest):
            windows.append((a, b))
            return real_translated(template, a, b, *rest)

        one_window = walls_module._WINDOW
        monkeypatch.setattr(walls_module, "_PERIODS", 0)
        monkeypatch.setattr(walls_module, "_group", refuse_group)
        monkeypatch.setattr(walls_module, "_translated", recording_translated)
        dropped_inside = stabilized_inside = stabilized_at_end = 0
        for n1, n2, d1, d2 in itertools.product(
            range(1, 4), range(1, 4), range(-6, 7, 3), range(-6, 7, 3)
        ):
            T = TripleType(n1, n2, d1, d2)
            if alpha_range(T).empty:
                continue
            lo, hi = default_window(T, 2)
            for interval in (None, (lo - 3, hi + 3)):
                aL, L, drop, plan = args = scan_inputs(T, interval, g=2)
                expected = list(reference_grouped(*args, zip))
                for window in (one_window, *range(1, 10)):
                    monkeypatch.setattr(walls_module, "_WINDOW", window)
                    windows.clear()
                    assert grouped_as_lists(*args, zip) == expected
                    dropped_inside += any(
                        a < k < b - 1 for a, b in windows for k in drop
                    )
                    if aL is not None:
                        last = math.floor(aL * L)
                        stabilized_inside += any(
                            a < last < b - 1 for a, b in windows
                        )
                        stabilized_at_end += any(
                            last == b - 1 for _, b in windows
                        )
        assert dropped_inside > 0
        assert stabilized_inside > 0
        assert stabilized_at_end > 0

    def test_a_long_scan_is_translated_at_the_default_setting(
        self, monkeypatch
    ):
        """(3,2,40,-40) spans about 33 periods of alpha (n = 5) in one
        window, and (5,3,310,-310) about 80 in two; neither groups a
        window in a dict, and both give the reference walls."""
        for T in (TripleType(3, 2, 40, -40), TripleType(5, 3, 310, -310)):
            args = scan_inputs(T)
            expected = list(reference_grouped(*args, zip))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(walls_module, "_group", refuse_group)
                assert grouped_as_lists(*args, zip) == expected


class TestIsCritical:
    def test_frozen_critical_example(self):
        test = is_critical(TripleType(2, 1, 3, 1), F(1, 2))
        assert test.critical
        assert (0, 1, 1) in {(x.n1p, x.n2p, x.dsum) for x in test.witnesses}

    def test_frozen_noncritical_example(self):
        assert not is_critical(TripleType(2, 1, 4, 1), F(2)).critical

    @given(triple_types(), st.integers(-60, 60), st.integers(1, 24))
    @settings(max_examples=300)
    def test_matches_oracle_on_random_rationals(self, T, p, q):
        a = F(p, q)
        expected = tuple(WallWitness(*x) for x in oracle_is_critical(T, a))
        assert is_critical(T, a) == WallTest(a, bool(expected), expected)

    @given(triple_types(), st.integers(min_value=-10, max_value=10))
    @settings(max_examples=300)
    def test_integer_points_match_oracle(self, T, m):
        assert is_critical(T, F(m)).critical == oracle_critical_at_integer(
            T, m
        )


class TestIntegerGenericity:
    def test_frozen_examples(self):
        facts = integer_genericity(TripleType(2, 1, 4, 1), 2)
        assert facts.guaranteed_noncritical
        facts2 = integer_genericity(TripleType(2, 2, 2, 2), 1)
        assert not facts2.guaranteed_noncritical
        assert integer_genericity(
            TripleType(1, 1, 1, 0), 0
        ).no_alpha_independent

    @given(triple_types(), st.integers(min_value=-10, max_value=10))
    @settings(max_examples=300)
    def test_guarantee_is_sound(self, T, m):
        if integer_genericity(T, m).guaranteed_noncritical:
            assert not oracle_critical_at_integer(T, m)


class TestChambers:
    def test_frozen_two_chamber_example(self):
        rep = chambers(TripleType(2, 1, 4, 1), 2)
        spans = [(c.lo, c.hi) for c in rep.chambers]
        assert spans == [(F(1), F(5, 2)), (F(5, 2), F(4))]
        assert rep.chambers[0].contains_2g_minus_2
        assert not rep.chambers[0].is_large_chamber
        assert rep.chambers[1].is_large_chamber
        assert rep.marker_status == "inside"
        assert rep.marker_chamber == 0
        assert rep.flips_to_large == 1
        assert rep.top_is_alpha_M

    def test_frozen_single_chamber_with_degenerate_marker(self):
        rep = chambers(TripleType(2, 1, 3, 1), 2)
        assert [(c.lo, c.hi) for c in rep.chambers] == [(F(1, 2), F(2))]
        assert rep.marker_status == "at_alpha_M"
        assert rep.marker_chamber is None
        assert rep.flips_to_large is None

    def test_frozen_equal_rank_cutoff_example(self):
        rep = chambers(TripleType(1, 1, 1, 0), 2, cutoff=F(5))
        assert [(c.lo, c.hi) for c in rep.chambers] == [
            (F(1), F(3)),
            (F(3), F(5)),
        ]
        assert all(c.is_large_chamber for c in rep.chambers)
        assert rep.alpha_L == F(0)
        assert not rep.top_is_alpha_M

    def test_empty_range_raises(self):
        with pytest.raises(DomainError):
            chambers(TripleType(2, 1, 0, 5), 2)

    def test_single_point_range_raises(self):
        with pytest.raises(DomainError):
            chambers(TripleType(2, 1, 2, 1), 2)

    def test_cutoff_below_range_start_raises(self):
        with pytest.raises(DomainError):
            chambers(TripleType(1, 1, 1, 0), 2, cutoff=F(1, 2))

    @given(triple_types(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_chambers_tile_the_window(self, T, g):
        rng = alpha_range(T)
        if rng.empty or rng.single_point:
            return
        rep = chambers(T, g)
        assert rep.chambers[0].lo == rep.alpha_m
        assert rep.chambers[-1].hi == rep.top
        for left, right in zip(rep.chambers, rep.chambers[1:]):
            assert left.hi == right.lo
        separators = {w.alpha for w in rep.walls}
        internal = {c.hi for c in rep.chambers[:-1]}
        assert separators == internal
        assert rep.chambers[-1].is_large_chamber

    @given(
        triple_types(),
        st.integers(2, 4),
        st.one_of(st.none(), st.integers(1, 60)),
    )
    @example(TripleType(1, 1, 1, 0), 2, 4)  # cutoff = 2g-2, no wall there
    @example(TripleType(1, 1, 1, 0), 2, 8)  # cutoff on the wall alpha = 3
    @example(TripleType(1, 1, 1, 0), 2, None)  # default top 3 is a wall
    @settings(max_examples=200, deadline=None)
    def test_chambers_match_the_linear_reference(self, T, g, cut):
        rng = alpha_range(T)
        if rng.empty or rng.single_point:
            return
        # cutoffs at walls, at 2g-2 and between them, equal ranks only
        cutoff = None if cut is None or T.n1 != T.n2 else rng.lo + F(cut, 4)
        expected = reference_chambers(T, g, cutoff)
        assert chambers(T, g, cutoff) == expected


class TestFlipDims:
    def test_frozen_splits_of_the_two_witness_wall(self):
        T = TripleType(2, 1, 4, 1)
        fd = flip_dims(T, TripleType(0, 1, 0, 0), 2)
        assert fd.alpha_c == F(5, 2)
        assert fd.stilde_dim == 5
        assert fd.minus_chi_cross == 1
        assert fd.minus_chi_cross_rev == 1
        assert fd.codim_in_moduli == 1
        assert fd.dim_moduli == 6
        assert fd.side == "minus"

        fd2 = flip_dims(T, TripleType(2, 0, 5, 0), 2)
        assert fd2.stilde_dim == 4
        assert fd2.minus_chi_cross == -1
        assert fd2.minus_chi_cross_rev == 2
        assert fd2.codim_in_moduli == 2
        assert fd2.side == "plus"

        fd3 = flip_dims(T, TripleType(2, 0, 3, 2), 2)
        assert fd3.stilde_dim == 6
        assert fd3.minus_chi_cross == 3
        assert fd3.minus_chi_cross_rev == 0
        assert fd3.codim_in_moduli == 0

    def test_the_codim_bound_needs_stable_pieces(self):
        """flip_dims checks (C1) and (C2) only: this split meets both and
        reports a codimension below guaranteed_codim, but its T' has the
        one-point range {0}, so no alpha_c-stable object exists."""
        Tp = TripleType(1, 2, 0, 0)
        fd = flip_dims(TripleType(2, 2, 1, 0), Tp, 2)
        assert fd.alpha_c == F(3, 2)
        assert fd.fiber_nonempty and fd.fiber_dim == 1
        assert fd.codim_in_moduli == 0 < fd.guaranteed_codim == 1
        rng = alpha_range(Tp)
        assert rng.single_point and rng.lo == 0 != fd.alpha_c

    def test_rank_violation_names_c1(self):
        with pytest.raises(DomainError, match=r"\(C1\)"):
            flip_dims(TripleType(2, 1, 4, 1), TripleType(3, 0, 1, 0), 2)

    def test_interior_violation_names_c2(self):
        # d' chosen so the induced wall lands outside (alpha_m, alpha_M)
        with pytest.raises(DomainError, match=r"\(C2\)"):
            flip_dims(TripleType(2, 1, 4, 1), TripleType(2, 0, 9, 0), 2)

    def test_balanced_split_names_c2(self):
        with pytest.raises(DomainError, match=r"\(C2\)"):
            flip_dims(TripleType(2, 2, 4, 0), TripleType(1, 1, 1, 0), 2)

    def test_decomposition_identity_across_random_splits(self):
        rng = random.Random(20210 + 4)
        hits = 0
        while hits < 200:
            T = TripleType(
                rng.randint(1, 4),
                rng.randint(1, 4),
                rng.randint(-8, 8),
                rng.randint(-8, 8),
            )
            if alpha_range(T).empty or alpha_range(T).single_point:
                continue
            walls = (
                enumerate_walls(T, g=2)
                if T.n1 == T.n2
                else enumerate_walls(T)
            )
            for w in walls:
                for x in w.witnesses:
                    d1p = rng.randint(-6, 6)
                    Tp = TripleType(x.n1p, x.n2p, d1p, x.dsum - d1p)
                    fd = flip_dims(T, Tp, 2)
                    assert fd.dim_moduli == dim_stable_moduli(T, 2)
                    assert (
                        fd.stilde_dim + fd.minus_chi_cross_rev
                        == fd.dim_moduli
                    )
                    Tpp = TripleType(
                        T.n1 - Tp.n1,
                        T.n2 - Tp.n2,
                        T.d1 - Tp.d1,
                        T.d2 - Tp.d2,
                    )
                    assert fd.minus_chi_cross == -chi(Tpp, Tp, 2)
                    assert fd.minus_chi_cross_rev == -chi(Tp, Tpp, 2)
                    assert fd.guaranteed_codim >= 0
                    hits += 1

    def test_fiber_dimension_sign_drives_nonempty_flag(self):
        T = TripleType(2, 1, 4, 1)
        fd = flip_dims(T, TripleType(2, 0, 5, 0), 2)
        assert fd.fiber_nonempty == (fd.fiber_dim >= 0)


class TestRecordsAgainstPlainTwins:
    def test_the_integer_keyed_scan_sweep(self):
        """Every Wall (with its witnesses) and Chamber returned on ranks
        1-4, degrees -6..6 and g in {2, 3} has the repr, hash and astuple
        of its plain frozen-dataclass twin in tests/oracles.py."""
        records = 0
        for n1, n2, d1, d2 in itertools.product(
            range(1, 5), range(1, 5), range(-6, 7), range(-6, 7)
        ):
            T = TripleType(n1, n2, d1, d2)
            rng = alpha_range(T)
            if rng.empty:
                continue
            for g in (2, 3):
                outputs = []
                if n1 == n2 or g == 2:
                    outputs.append(enumerate_walls(T, g=g))
                if not rng.single_point:
                    outputs.append(chambers(T, g).chambers)
                for out in outputs:
                    twin = oracle_twin(out)
                    assert repr(out) == repr(twin)
                    assert list(map(hash, out)) == list(map(hash, twin))
                    assert list(map(dataclasses.astuple, out)) == list(
                        map(dataclasses.astuple, twin)
                    )
                    records += len(out)
        assert records > 60000


def counting_stub(cls, made):
    """A stand-in for cls that builds the records it is asked for and
    counts them: one per call, and n per ``_from_columns(n, ...)``."""

    def stub(*args, **kwargs):
        made[cls.__name__] += 1
        return cls(*args, **kwargs)

    def from_columns(n, *columns):
        made[cls.__name__] += n
        return cls._from_columns(n, *columns)

    stub._from_columns = from_columns
    return stub


class TestRecordsAreBuiltThroughTheirClassNames:
    """The scan builds each record through the module-level class name,
    in bulk through its ``_from_columns``, which the counting stub
    counts per record. The CLI's stub test
    (test_a_large_request_builds_no_wall_objects) relies on that: a
    factory that bypassed the names would make it pass without checking
    anything, and fail these instead."""

    TYPES = [
        TripleType(2, 1, 4, 1),
        TripleType(3, 2, 40, -40),
        TripleType(4, 4, 9, -7),
        TripleType(5, 3, 31, -31),
    ]

    @pytest.fixture
    def made(self, monkeypatch):
        made = dict.fromkeys(["WallWitness", "Wall", "Chamber"], 0)
        for cls in (WallWitness, Wall, Chamber):
            monkeypatch.setattr(
                walls_module, cls.__name__, counting_stub(cls, made)
            )
        return made

    @pytest.mark.parametrize("include_endpoints", [False, True])
    def test_enumerate_walls_once_per_candidate_and_wall(
        self, made, include_endpoints
    ):
        for T in self.TYPES:
            kwargs = {"include_endpoints": include_endpoints, "g": 2}
            expected = _wall_rows(T, **kwargs)
            made.update(dict.fromkeys(made, 0))
            walls = enumerate_walls(T, **kwargs)
            assert len(walls) == len(expected) == made["Wall"]
            # endpoint witnesses are built, then dropped with their key
            assert made["WallWitness"] == plan_candidates(T, g=2)
            if include_endpoints:
                witnesses = sum(len(w.witnesses) for w in walls)
                assert made["WallWitness"] == witnesses

    def test_is_critical_once_per_witness(self, made):
        for T in self.TYPES:
            for w in enumerate_walls(T, g=2):
                made.update(dict.fromkeys(made, 0))
                assert is_critical(T, w.alpha).witnesses == w.witnesses
                assert made["WallWitness"] == len(w.witnesses)
                assert made["Wall"] == 0

    def test_chambers_once_per_chamber(self, made):
        for T in self.TYPES:
            made.update(dict.fromkeys(made, 0))
            rep = chambers(T, 2)
            assert made["Chamber"] == len(rep.chambers)
            # a wall at the top of an equal-rank window is dropped by its
            # key, before any Wall is built
            assert made["Wall"] == len(rep.walls)
