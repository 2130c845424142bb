"""Tests for wire segments."""

import pytest

from repro.geometry import GridPoint, Orientation, WireSegment


class TestWireSegment:
    def test_orientations(self):
        h = WireSegment(GridPoint(0, 2, 1), GridPoint(5, 2, 1))
        v = WireSegment(GridPoint(3, 0, 2), GridPoint(3, 4, 2))
        z = WireSegment(GridPoint(1, 1, 1), GridPoint(1, 1, 2))
        assert h.orientation is Orientation.HORIZONTAL
        assert v.orientation is Orientation.VERTICAL
        assert z.orientation is Orientation.VIA

    def test_endpoints_normalized(self):
        s = WireSegment(GridPoint(5, 2, 1), GridPoint(0, 2, 1))
        assert s.a == GridPoint(0, 2, 1)
        assert s.b == GridPoint(5, 2, 1)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            WireSegment(GridPoint(0, 0, 1), GridPoint(1, 1, 1))
