"""Tests for the detailed router end to end."""


from repro.assign import (
    DesignTrackAssignment,
    TrackMethod,
    assign_layers,
    assign_tracks,
    extract_panels,
)
from repro.api import RouterConfig, StitchAwareRouter
from repro.benchmarks_gen import SyntheticSpec, generate_design, mcnc_design
from repro.detailed import DetailedRouter
from repro.eval import evaluate
from repro.globalroute import GlobalRouter
from tests.globalroute.test_router import design_with_nets, two_pin


def route_design(design, stitch_aware=True, method=TrackMethod.GRAPH):
    gr = GlobalRouter(stitch_aware=stitch_aware).route(design)
    columns, rows = extract_panels(gr)
    layers = assign_layers(columns, rows, design.technology)
    tracks = assign_tracks(design, gr.graph, layers, method)
    router = DetailedRouter(stitch_aware=stitch_aware)
    return router.route(design, gr.graph, tracks), tracks


SMALL = SyntheticSpec(
    name="router-t", nets=60, pins=160, layers=3, cells_per_pin=28.0
)


class TestDetailedRouter:
    def test_routes_simple_nets(self):
        nets = [two_pin("a", (1, 1), (40, 30)), two_pin("b", (10, 5), (50, 35))]
        design = design_with_nets(nets)
        result, _ = route_design(design)
        assert result.routability == 1.0
        assert not result.failed

    def test_each_net_connected(self):
        """Every routed net's edges form one component containing pins."""
        design = generate_design(SMALL)
        result, _ = route_design(design)
        for name, rn in result.nets.items():
            if not rn.routed:
                continue
            # Union-find over edges.
            from repro.algorithms import DisjointSet

            ds = DisjointSet()
            for a, b in rn.edges:
                ds.union(a, b)
            pins = list(rn.pin_nodes)
            for pin in pins[1:]:
                assert ds.connected(pins[0], pin), f"net {name} disconnected"

    def test_no_foreign_overlap(self):
        """No grid node carries two different nets."""
        design = generate_design(SMALL)
        result, _ = route_design(design)
        seen = {}
        for name, rn in result.nets.items():
            for node in rn.nodes:
                assert seen.get(node, name) == name
                seen[node] = name

    def test_hard_constraints_hold(self):
        """No vertical wire on a line; vias on lines only at pins."""
        design = generate_design(SMALL)
        result, _ = route_design(design)
        report = evaluate(result)
        assert report.vertical_violations == 0
        assert design.stitches is not None
        for rn in result.nets.values():
            pin_xy = {(n[0], n[1]) for n in rn.pin_nodes}
            for a, b in rn.edges:
                if a[2] != b[2] and design.stitches.is_on_line(a[0]):
                    assert (a[0], a[1]) in pin_xy

    def test_stitch_aware_cuts_short_polygons(self):
        design = generate_design(SMALL)
        aware, _ = route_design(design, stitch_aware=True)
        blind, _ = route_design(design, stitch_aware=False)
        assert (
            evaluate(aware).short_polygons
            <= evaluate(blind).short_polygons
        )

    def test_routability_in_expected_band(self):
        design = generate_design(SMALL)
        result, _ = route_design(design)
        assert result.routability >= 0.93

    def test_net_order_prioritizes_bad_ends(self):
        nets = [two_pin("a", (1, 1), (40, 30)), two_pin("b", (10, 5), (50, 35))]
        design = design_with_nets(nets)
        gr = GlobalRouter().route(design)
        columns, rows = extract_panels(gr)
        layers = assign_layers(columns, rows, design.technology)
        tracks = assign_tracks(design, gr.graph, layers, TrackMethod.GRAPH)
        tracks_bad = DesignTrackAssignment(
            columns=tracks.columns,
            rows=tracks.rows,
            failed_nets=tracks.failed_nets,
            cpu_seconds=0.0,
        )
        router = DetailedRouter(stitch_aware=True)
        # Monkey-style: fabricate bad-end counts by checking ordering.
        order = router._net_order(list(design.netlist), tracks_bad)
        assert len(order) == 2

    def test_deterministic(self):
        design = generate_design(SMALL)
        r1, _ = route_design(design)
        r2, _ = route_design(design)
        assert {n: rn.nodes for n, rn in r1.nets.items()} == {
            n: rn.nodes for n, rn in r2.nets.items()
        }

    def test_failed_track_nets_are_direct_routed(self):
        """Nets ripped by track assignment still get routed."""
        design = generate_design(SMALL)
        gr = GlobalRouter().route(design)
        columns, rows = extract_panels(gr)
        layers = assign_layers(columns, rows, design.technology)
        tracks = assign_tracks(design, gr.graph, layers, TrackMethod.GRAPH)
        victim = next(iter(design.netlist)).name
        tracks.failed_nets.add(victim)
        result = DetailedRouter().route(design, gr.graph, tracks)
        assert result.nets[victim].routed


def test_failed_lists_exactly_the_unrouted_nets():
    """A rip-up victim re-routed later in the same round is not failed.

    On S13207 at scale 0.1 one net is ripped as a victim and re-routed
    in the same round; it must not stay on ``failed`` or in the
    ``failed_nets`` counter.
    """
    flow = StitchAwareRouter(config=RouterConfig()).route(
        mcnc_design("S13207", 0.1)
    )
    result = flow.detailed_result
    unrouted = {n for n, rn in result.nets.items() if not rn.routed}
    assert unrouted
    assert set(result.failed) == unrouted
    assert len(result.failed) == len(unrouted)
    span = flow.trace.find("detailed-route")
    assert span is not None
    assert span.counters["failed_nets"] == len(unrouted)
