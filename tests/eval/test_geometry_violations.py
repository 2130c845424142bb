"""Tests for geometry reconstruction, trimming, and violation counting."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detailed.wiring import (
    canonical_edge,
    edges_to_segments,
    path_edges,
    short_polygon_sites,
    trim_dangling,
    via_landing_points,
)
from repro.eval import via_count, wirelength
from repro.geometry import GridPoint, WireSegment
from repro.layout import StitchingLines

LINES = StitchingLines((15,), epsilon=1, escape_width=4)


def h_path(y, x_lo, x_hi, layer=1):
    return [(x, y, layer) for x in range(x_lo, x_hi + 1)]


class TestEdges:
    def test_canonical_edge_orders(self):
        assert canonical_edge((1, 0, 1), (0, 0, 1)) == ((0, 0, 1), (1, 0, 1))

    def test_canonical_edge_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            canonical_edge((0, 0, 1), (2, 0, 1))

    def test_path_edges(self):
        edges = path_edges(h_path(0, 0, 3))
        assert len(edges) == 3

    def test_wirelength_and_vias(self):
        edges = path_edges([(0, 0, 1), (1, 0, 1), (1, 0, 2), (1, 1, 2)])
        assert wirelength(edges) == 2
        assert via_count(edges) == 1


def reference_trim_dangling(edges, anchors):
    """The leaf peel with no degree count up front."""
    incident = defaultdict(set)
    for edge in edges:
        incident[edge[0]].add(edge)
        incident[edge[1]].add(edge)
    alive = set(edges)
    frontier = [
        node
        for node, inc in incident.items()
        if len(inc) == 1 and node not in anchors
    ]
    while frontier:
        node = frontier.pop()
        inc = incident.get(node, set())
        if len(inc) != 1 or node in anchors:
            continue
        (edge,) = inc
        if edge not in alive:
            continue
        alive.discard(edge)
        for endpoint in edge:
            incident[endpoint].discard(edge)
            if len(incident[endpoint]) == 1 and endpoint not in anchors:
                frontier.append(endpoint)
    return alive


grid_nodes = st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.integers(1, 3)
)


@st.composite
def wire_edges(draw):
    """Unit edges of a few random walks on a small three-layer grid:
    trees, cycles, stubs and separate pieces."""
    edges = set()
    for start in draw(st.lists(grid_nodes, min_size=1, max_size=4)):
        node = start
        moves = st.sampled_from(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
        for dx, dy, dz in draw(st.lists(moves, max_size=14)):
            x, y, z = node
            nxt = (x + dx, y + dy, z + dz)
            if 0 <= nxt[0] <= 5 and 0 <= nxt[1] <= 5 and 1 <= nxt[2] <= 3:
                edges.add(canonical_edge(node, nxt))
                node = nxt
    return edges


class TestTrimDangling:
    @settings(max_examples=300, deadline=None)
    @given(wire_edges(), st.data())
    def test_matches_the_plain_peel(self, edges, data):
        # Anchors: some endpoints, and nodes off the wire.
        anchors = set(data.draw(st.lists(grid_nodes, max_size=3)))
        endpoints = sorted({node for edge in edges for node in edge})
        if endpoints:
            anchors |= set(data.draw(st.lists(st.sampled_from(endpoints))))
        trimmed = trim_dangling(edges, anchors)
        assert trimmed == reference_trim_dangling(edges, anchors)
        assert trimmed is not edges
        # A trimmed set has no leaf left to peel: trimming it again
        # returns an equal copy.
        again = trim_dangling(trimmed, anchors)
        assert again == trimmed and again is not trimmed

    def test_keeps_anchored_path(self):
        path = h_path(0, 0, 5)
        edges = path_edges(path)
        trimmed = trim_dangling(edges, {(0, 0, 1), (5, 0, 1)})
        assert trimmed == edges

    def test_peels_unanchored_stub(self):
        # Anchored run 0..3, dangling stub 3..6.
        edges = path_edges(h_path(0, 0, 6))
        trimmed = trim_dangling(edges, {(0, 0, 1), (3, 0, 1)})
        assert trimmed == path_edges(h_path(0, 0, 3))

    def test_junction_stops_peeling(self):
        # A T shape: trunk 0..6 with a via at x=3; anchors at ends.
        edges = path_edges(h_path(0, 0, 6))
        edges |= path_edges([(3, 0, 1), (3, 0, 2)])
        trimmed = trim_dangling(edges, {(0, 0, 1), (3, 0, 2)})
        # The 3..6 half dangles; via and left half stay.
        assert path_edges([(3, 0, 1), (3, 0, 2)]) <= trimmed
        assert ((5, 0, 1), (6, 0, 1)) not in trimmed

    def test_everything_unanchored_vanishes(self):
        edges = path_edges(h_path(0, 0, 4))
        assert trim_dangling(edges, set()) == set()


class TestEdgesToSegments:
    def test_straight_runs_merge(self):
        edges = path_edges(h_path(2, 0, 5))
        segments = edges_to_segments(edges)
        assert segments == [
            WireSegment(GridPoint(0, 2, 1), GridPoint(5, 2, 1))
        ]

    def test_l_shape_two_segments(self):
        path = [(0, 0, 1), (1, 0, 1), (1, 0, 2), (1, 1, 2), (1, 2, 2)]
        segments = edges_to_segments(path_edges(path))
        orientations = sorted(s.orientation.value for s in segments)
        assert orientations == ["horizontal", "vertical", "via"]

    def test_disjoint_runs_stay_apart(self):
        edges = path_edges(h_path(0, 0, 2)) | path_edges(h_path(0, 5, 8))
        segments = edges_to_segments(edges)
        assert len(segments) == 2


class TestShortPolygonSites:
    def test_detects_pin_stub_crossing(self):
        # Horizontal wire 14..20 crosses the line at 15; end x=14 is in
        # the SUR and is a pin (landing contact) -> short polygon.
        edges = path_edges(h_path(3, 14, 20))
        pins = {(14, 3, 1)}
        sites = short_polygon_sites(edges, pins, LINES)
        assert len(sites) == 1
        crossing, end = sites[0]
        assert crossing == (15, 3, 1)
        assert end == (14, 3, 1)

    def test_no_site_without_landing_via(self):
        edges = path_edges(h_path(3, 14, 20))
        assert short_polygon_sites(edges, set(), LINES) == []

    def test_no_site_when_end_far_from_line(self):
        edges = path_edges(h_path(3, 10, 20))
        pins = {(10, 3, 1)}
        assert short_polygon_sites(edges, pins, LINES) == []

    def test_no_site_when_wire_not_cut(self):
        # Wire ends exactly on the line: not cut into two polygons.
        edges = path_edges(h_path(3, 14, 15))
        pins = {(14, 3, 1)}
        assert short_polygon_sites(edges, pins, LINES) == []

    def test_via_landing_counts(self):
        # Wire 14..20 with a via at its end x=14.
        edges = path_edges(h_path(3, 14, 20))
        edges |= path_edges([(14, 3, 1), (14, 3, 2)])
        sites = short_polygon_sites(edges, set(), LINES)
        assert len(sites) == 1

    def test_both_ends_both_lines(self):
        lines = StitchingLines((15, 30), epsilon=1, escape_width=4)
        edges = path_edges(h_path(3, 14, 31))
        edges |= path_edges([(14, 3, 1), (14, 3, 2)])
        edges |= path_edges([(31, 3, 1), (31, 3, 2)])
        sites = short_polygon_sites(edges, set(), lines)
        assert len(sites) == 2

    def test_via_landing_points_include_pins(self):
        edges = path_edges([(0, 0, 1), (0, 0, 2)])
        landings = via_landing_points(edges, {(9, 9, 1)})
        assert (0, 0, 1) in landings and (0, 0, 2) in landings
        assert (9, 9, 1) in landings
