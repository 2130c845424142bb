"""Tests for stitching lines and stitch-unfriendly regions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import RouterConfig
from repro.layout import StitchingLines


class TestConstruction:
    def test_unsorted_raises(self):
        with pytest.raises(ValueError):
            StitchingLines((10, 5))

    def test_duplicates_raise(self):
        with pytest.raises(ValueError):
            StitchingLines((5, 5))

    def test_uniform_spacing(self):
        lines = StitchingLines.uniform(61, RouterConfig(stitch_spacing=15))
        assert lines.xs == (15, 30, 45, 60)

    def test_uniform_excludes_width(self):
        # A line at x == width would lie outside the die.
        lines = StitchingLines.uniform(45, RouterConfig(stitch_spacing=15))
        assert lines.xs == (15, 30)


class TestQueries:
    lines = StitchingLines((15, 30), epsilon=1, escape_width=4)

    def test_is_on_line(self):
        assert self.lines.is_on_line(15)
        assert not self.lines.is_on_line(16)

    def test_nearest_line(self):
        assert self.lines.nearest_line(0) == 15
        assert self.lines.nearest_line(22) == 15
        assert self.lines.nearest_line(23) == 30

    def test_nearest_line_empty(self):
        assert StitchingLines(()).nearest_line(5) is None

    def test_unfriendly_region(self):
        for x in (14, 15, 16):
            assert self.lines.in_unfriendly_region(x)
        assert not self.lines.in_unfriendly_region(13)
        assert not self.lines.in_unfriendly_region(17)

    def test_escape_region_excludes_line(self):
        assert not self.lines.in_escape_region(15)
        for x in (11, 12, 13, 14, 16, 17, 18, 19):
            assert self.lines.in_escape_region(x)
        assert not self.lines.in_escape_region(10)

    def test_lines_crossing_strict(self):
        # A wire ending exactly on the line is not cut in two.
        assert self.lines.lines_crossing(10, 20) == [15]
        assert self.lines.lines_crossing(15, 20) == []
        assert self.lines.lines_crossing(10, 15) == []
        assert self.lines.lines_crossing(0, 45) == [15, 30]

    def test_lines_in_range_inclusive(self):
        assert self.lines.lines_in_range(15, 30) == [15, 30]
        assert self.lines.lines_in_range(16, 29) == []

    def test_usable_vertical_tracks(self):
        # [10, 20] has 11 tracks, one occupied by the line at 15.
        assert self.lines.usable_vertical_tracks(10, 20) == 10

    def test_friendly_vertical_tracks(self):
        # [10, 20]: tracks 14, 15, 16 are unfriendly -> 8 remain.
        assert self.lines.friendly_vertical_tracks(10, 20) == 8


@given(
    st.integers(min_value=40, max_value=400),
    st.integers(min_value=5, max_value=40),
)
def test_uniform_lines_inside_die_and_spaced(width, spacing):
    lines = StitchingLines.uniform(width, RouterConfig(stitch_spacing=spacing))
    assert all(0 < x < width for x in lines)
    gaps = [b - a for a, b in zip(lines.xs, lines.xs[1:])]
    assert all(g == spacing for g in gaps)


@given(st.integers(min_value=0, max_value=100))
def test_region_nesting(x):
    """The unfriendly region is a subset of {line} union escape region."""
    lines = StitchingLines((20, 60), epsilon=1, escape_width=4)
    if lines.in_unfriendly_region(x):
        assert lines.is_on_line(x) or lines.in_escape_region(x)
