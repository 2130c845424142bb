"""Tests for the global router."""

import pytest

from repro.benchmarks_gen import SyntheticSpec, generate_design
from repro.config import RouterConfig
from repro.geometry import Point
from repro.layout import Design, Net, Netlist, Pin, Technology
from repro.globalroute import GlobalGraph, GlobalRouter


def design_with_nets(nets, width=60, height=45, layers=3):
    config = RouterConfig(stitch_spacing=15, tile_size=15)
    return Design(
        name="toy",
        width=width,
        height=height,
        technology=Technology(layers),
        netlist=Netlist(nets),
        config=config,
    )


def two_pin(name, a, b):
    return Net(name, (Pin(f"{name}.0", Point(*a), 1), Pin(f"{name}.1", Point(*b), 1)))


def vertical_run_line_ends(path):
    """The line-end tiles of ``path`` by :meth:`GlobalGraph.path_codes`."""
    graph = GlobalGraph(design_with_nets([two_pin("n", (1, 1), (3, 3))]))
    return [graph._tiles[t] for t in graph.path_codes(path)[2]]


class TestVerticalRunLineEnds:
    def test_pure_horizontal_has_none(self):
        assert vertical_run_line_ends([(0, 0), (1, 0), (2, 0)]) == []

    def test_pure_vertical_two_ends(self):
        ends = vertical_run_line_ends([(0, 0), (0, 1), (0, 2)])
        assert ends == [(0, 0), (0, 2)]

    def test_l_shape(self):
        ends = vertical_run_line_ends([(0, 0), (0, 1), (1, 1)])
        assert ends == [(0, 0), (0, 1)]

    def test_z_shape_two_runs(self):
        path = [(0, 0), (0, 1), (1, 1), (1, 2)]
        assert vertical_run_line_ends(path) == [(0, 0), (0, 1), (1, 1), (1, 2)]

    def test_single_tile(self):
        assert vertical_run_line_ends([(0, 0)]) == []


class TestTwoPinSubnets:
    def test_same_tile_pins_no_subnets(self):
        net = two_pin("n", (1, 1), (3, 3))
        design = design_with_nets([net])
        graph = GlobalGraph(design)
        assert GlobalRouter().two_pin_subnets(net, graph) == []

    def test_three_tile_net_spanning_tree(self):
        net = Net(
            "n",
            (
                Pin("a", Point(1, 1), 1),
                Pin("b", Point(31, 1), 1),
                Pin("c", Point(1, 31), 1),
            ),
        )
        design = design_with_nets([net])
        graph = GlobalGraph(design)
        subnets = GlobalRouter().two_pin_subnets(net, graph)
        assert len(subnets) == 2
        tiles = {t for pair in subnets for t in pair}
        assert tiles == {(0, 0), (2, 0), (0, 2)}


class TestRouting:
    def test_routes_simple_design(self):
        nets = [
            two_pin("a", (1, 1), (55, 40)),
            two_pin("b", (20, 5), (40, 30)),
        ]
        result = GlobalRouter().route(design_with_nets(nets))
        assert not result.failed
        assert set(result.routes) == {"a", "b"}
        assert result.wirelength > 0
        assert result.cpu_seconds >= 0

    def test_paths_are_connected_tile_sequences(self):
        nets = [two_pin("a", (1, 1), (55, 40))]
        result = GlobalRouter().route(design_with_nets(nets))
        for path in result.routes["a"].paths:
            for t1, t2 in zip(path, path[1:]):
                assert abs(t1[0] - t2[0]) + abs(t1[1] - t2[1]) == 1

    def test_path_endpoints_match_pin_tiles(self):
        nets = [two_pin("a", (1, 1), (55, 40))]
        design = design_with_nets(nets)
        result = GlobalRouter().route(design)
        graph = result.graph
        path = result.routes["a"].paths[0]
        assert path[0] == graph.tile_of(1, 1)
        assert path[-1] == graph.tile_of(55, 40)

    def test_local_net_empty_paths(self):
        nets = [two_pin("a", (1, 1), (3, 3))]
        result = GlobalRouter().route(design_with_nets(nets))
        assert result.routes["a"].paths == []
        assert result.routes["a"].wirelength_tiles == 0

    def test_demand_matches_routed_paths(self):
        nets = [two_pin("a", (1, 1), (55, 1)), two_pin("b", (1, 20), (55, 20))]
        result = GlobalRouter().route(design_with_nets(nets))
        g = result.graph
        total_demand = int(g.h_demand.sum() + g.v_demand.sum())
        total_hops = sum(r.wirelength_tiles for r in result.routes.values())
        assert total_demand == total_hops

    def test_stitch_aware_reduces_vertex_overflow(self):
        # A column of nets that all want vertical runs ending in the
        # same tile: stitch-aware routing spreads the line ends.
        spec = SyntheticSpec(
            name="gr-vertex", nets=250, pins=520, layers=3,
            cells_per_pin=16.0, locality=0.2,
        )
        design = generate_design(spec)
        aware = GlobalRouter(stitch_aware=True).route(design)
        blind = GlobalRouter(stitch_aware=False).route(design)
        assert aware.total_vertex_overflow <= blind.total_vertex_overflow

    def test_a_search_without_a_path_raises(self, monkeypatch):
        # Every window holds both end tiles and every step has a finite
        # price, so the maze always finds a path; a search that does not
        # is a bug, reported with the net and both tiles.
        monkeypatch.setattr(GlobalRouter, "_astar_in_window", lambda *args: None)
        design = design_with_nets([two_pin("a", (1, 1), (55, 40))])
        with pytest.raises(
            RuntimeError, match=r"net 'a' from tile \(0, 0\) to tile \(3, 2\)"
        ):
            GlobalRouter().route(design)

    def test_deterministic(self):
        nets = [two_pin("a", (1, 1), (55, 40)), two_pin("b", (5, 40), (50, 2))]
        r1 = GlobalRouter().route(design_with_nets(nets))
        r2 = GlobalRouter().route(design_with_nets(nets))
        assert {
            name: route.paths for name, route in r1.routes.items()
        } == {name: route.paths for name, route in r2.routes.items()}
