"""Unit and property tests for Interval and interval-graph helpers."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Interval,
    max_overlap_density,
    overlapping_pairs,
    point_density,
)


def interval_strategy(lo=-30, hi=30):
    return st.tuples(
        st.integers(min_value=lo, max_value=hi),
        st.integers(min_value=0, max_value=20),
    ).map(lambda t: Interval(t[0], t[0] + t[1]))


class TestInterval:
    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_length_inclusive(self):
        assert Interval(2, 2).length == 1
        assert Interval(0, 4).length == 5

    def test_contains(self):
        iv = Interval(1, 3)
        assert iv.contains(1) and iv.contains(3)
        assert not iv.contains(0) and not iv.contains(4)

    def test_overlap_at_single_point(self):
        assert Interval(0, 2).overlaps(Interval(2, 5))
        assert not Interval(0, 2).overlaps(Interval(3, 5))

    def test_intersection(self):
        a, b = Interval(0, 5), Interval(3, 8)
        assert a.intersection(b) == Interval(3, 5)

    def test_shifted(self):
        assert Interval(1, 4).shifted(-1) == Interval(0, 3)

    @given(interval_strategy(), interval_strategy())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(interval_strategy(), interval_strategy())
    def test_intersection_consistent_with_overlap(self, a, b):
        inter = a.intersection(b)
        assert (inter is not None) == a.overlaps(b)
        if inter is not None:
            assert inter.lo >= max(a.lo, b.lo)
            assert inter.hi <= min(a.hi, b.hi)


class TestDensity:
    def test_max_overlap_density_empty(self):
        assert max_overlap_density([]) == 0

    def test_max_overlap_density_nested(self):
        ivs = [Interval(0, 10), Interval(2, 5), Interval(3, 4)]
        assert max_overlap_density(ivs) == 3

    def test_max_overlap_density_chain(self):
        # Touching endpoints count as overlap (closed intervals).
        ivs = [Interval(0, 2), Interval(2, 4), Interval(4, 6)]
        assert max_overlap_density(ivs) == 2

    def test_point_density(self):
        ivs = [Interval(0, 3), Interval(2, 5)]
        assert point_density(ivs, 2) == 2
        assert point_density(ivs, 0) == 1
        assert point_density(ivs, 6) == 0

    @given(st.lists(interval_strategy(), max_size=15))
    def test_density_equals_max_point_density(self, ivs):
        if not ivs:
            assert max_overlap_density(ivs) == 0
            return
        lo = min(iv.lo for iv in ivs)
        hi = max(iv.hi for iv in ivs)
        brute = max(point_density(ivs, p) for p in range(lo, hi + 1))
        assert max_overlap_density(ivs) == brute


class TestOverlappingPairs:
    def test_simple(self):
        ivs = [Interval(0, 2), Interval(1, 3), Interval(5, 6)]
        assert overlapping_pairs(ivs) == [(0, 1)]

    @given(st.lists(interval_strategy(), max_size=12))
    def test_matches_brute_force(self, ivs):
        expected = sorted(
            (i, j)
            for i, j in itertools.combinations(range(len(ivs)), 2)
            if ivs[i].overlaps(ivs[j])
        )
        assert overlapping_pairs(ivs) == expected


class TestMergeLaws:
    """Overlap and intersection algebra."""

    @given(interval_strategy())
    def test_intersection_idempotent(self, a):
        assert a.intersection(a) == a

    @given(interval_strategy(), interval_strategy())
    def test_intersection_commutative(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(interval_strategy(), interval_strategy())
    def test_overlap_iff_union_shorter_than_sum(self, a, b):
        # Closed integer intervals: they share a point exactly when
        # the covering span is shorter than the summed lengths.
        span = Interval(min(a.lo, b.lo), max(a.hi, b.hi))
        assert a.overlaps(b) == (span.length < a.length + b.length)

    @given(
        interval_strategy(),
        interval_strategy(),
        st.integers(min_value=-25, max_value=25),
    )
    def test_shift_invariance(self, a, b, delta):
        assert a.overlaps(b) == a.shifted(delta).overlaps(b.shifted(delta))
