"""Regression tests for bugs found and fixed during development.

Each test documents a real failure mode; keep them even if the code
they guard is refactored away.
"""

import pytest

from repro.benchmarks_gen import SyntheticSpec, generate_design
from repro.api import StitchAwareRouter
from repro.detailed import DetailedGrid
from repro.detailed.wiring import path_edges
from repro.geometry import GridPoint, WireSegment


class TestWireSegmentNormalization:
    def test_swapped_endpoints_both_correct(self):
        """Endpoint normalization once assigned b to both fields."""
        seg = WireSegment(GridPoint(5, 2, 1), GridPoint(0, 2, 1))
        assert seg.a == GridPoint(0, 2, 1)
        assert seg.b == GridPoint(5, 2, 1)


class TestPathEdgesValidation:
    def test_diagonal_gap_rejected(self):
        """Dogleg materialization once skipped the jog corner node,
        silently fabricating diagonal wire."""
        with pytest.raises(ValueError):
            path_edges([(18, 14, 2), (19, 15, 2)])


class TestPinOwnershipPermanence:
    def test_release_never_frees_pins(self):
        """A transiently free pin was once claimed by another net's
        negotiated search, making its owner permanently unroutable."""
        spec = SyntheticSpec(name="regress-pin", nets=20, pins=50, layers=3)
        design = generate_design(spec)
        grid = DetailedGrid(design)
        pin = (3, 3, 1)
        grid.occupy(pin, "a")
        grid.mark_pin(pin)
        grid.release(pin, "a")
        assert grid.owner(pin) == "a"

    def test_force_occupy_rejects_pin_theft(self):
        spec = SyntheticSpec(name="regress-pin2", nets=20, pins=50, layers=3)
        design = generate_design(spec)
        grid = DetailedGrid(design)
        pin = (3, 3, 1)
        grid.occupy(pin, "a")
        grid.mark_pin(pin)
        with pytest.raises(ValueError):
            grid.claim([pin], "b")


class TestNoPhantomGeometry:
    def test_adjacent_same_net_wires_stay_separate(self):
        """Node-set geometry reconstruction once merged two parallel
        horizontal wires on adjacent tracks into phantom vertical wire
        (counted as vertical routing violations on stitching lines)."""
        from repro.detailed.wiring import edges_to_segments
        from repro.geometry import Orientation

        e1 = path_edges([(x, 4, 1) for x in range(0, 6)])
        e2 = path_edges([(x, 5, 1) for x in range(0, 6)])
        segments = edges_to_segments(e1 | e2)
        assert all(
            s.orientation is Orientation.HORIZONTAL for s in segments
        )
        assert len(segments) == 2


class TestExclusiveMetal:
    def test_full_flow_no_cross_net_overlap(self):
        """Negotiated rip-up once left stolen nodes inside the victim's
        recorded geometry."""
        # Dense enough that negotiated rip-up actually fires.
        spec = SyntheticSpec(
            name="regress-overlap", nets=90, pins=240, layers=3,
            cells_per_pin=13.0, locality=0.25,
        )
        design = generate_design(spec)
        flow = StitchAwareRouter().route(design)
        seen = {}
        for name, rn in flow.detailed_result.nets.items():
            for node in rn.nodes:
                assert seen.setdefault(node, name) == name
            for a, b in rn.edges:
                for node in (a, b):
                    assert seen.setdefault(node, name) == name
