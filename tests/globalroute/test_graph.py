"""Tests for the global routing graph and MEBL resource estimation."""

import pytest

from repro.config import RouterConfig
from repro.geometry import Point
from repro.layout import Design, Net, Netlist, Pin, Technology
from repro.globalroute import GlobalGraph


def make_design(width=60, height=45, layers=3, spacing=15, tile=15):
    config = RouterConfig(stitch_spacing=spacing, tile_size=tile)
    nets = [
        Net(
            "n0",
            (Pin("a", Point(1, 1), 1), Pin("b", Point(width - 2, height - 2), 1)),
        )
    ]
    return Design(
        name="toy",
        width=width,
        height=height,
        technology=Technology(layers),
        netlist=Netlist(nets),
        config=config,
    )


class TestTileGeometry:
    def test_tile_counts(self):
        g = GlobalGraph(make_design())
        assert (g.nx, g.ny) == (4, 3)

    def test_tile_span_interior(self):
        g = GlobalGraph(make_design())
        span = g.tile_span((1, 1))
        assert (span.x_lo, span.x_hi) == (15, 29)
        assert (span.y_lo, span.y_hi) == (15, 29)

    def test_tile_span_clipped_at_edge(self):
        g = GlobalGraph(make_design(width=50, height=40))
        span = g.tile_span((g.nx - 1, g.ny - 1))
        assert span.x_hi == 49
        assert span.y_hi == 39

    def test_tile_of(self):
        g = GlobalGraph(make_design())
        assert g.tile_of(0, 0) == (0, 0)
        assert g.tile_of(15, 14) == (1, 0)
        assert g.tile_of(59, 44) == (3, 2)

    def test_tile_of_out_of_bounds(self):
        g = GlobalGraph(make_design())
        with pytest.raises(ValueError):
            g.tile_of(60, 0)

    def test_neighbors_corner_and_interior(self):
        g = GlobalGraph(make_design())
        assert set(g.neighbors((0, 0))) == {(1, 0), (0, 1)}
        assert len(g.neighbors((1, 1))) == 4


class TestCapacities:
    def test_vertical_capacity_excludes_stitch_tracks(self):
        # Tile column 1 spans x in [15, 29]; the stitching line at x=15
        # removes one vertical track.  One vertical layer (layer 2).
        g = GlobalGraph(make_design())
        assert g.v_capacity[1, 0] == 14

    def test_horizontal_capacity_full(self):
        # Two horizontal layers (1 and 3), 15 tracks per tile row.
        g = GlobalGraph(make_design())
        assert g.h_capacity[0, 0] == 30

    def test_vertex_capacity_excludes_unfriendly(self):
        # Tile column 1 spans [15, 29]: unfriendly tracks are 14..16 of
        # the line at 15 (14 is outside the span? no: span starts at 15)
        # => 15, 16 inside, plus 29 (adjacent to the line at 30).
        g = GlobalGraph(make_design())
        assert g.vertex_capacity[1, 0] == 15 - 3

    def test_vertical_capacity_more_vertical_layers(self):
        g = GlobalGraph(make_design(layers=6))
        # Layers 2, 4, 6 vertical -> 3x the single-layer capacity.
        assert g.v_capacity[1, 0] == 14 * 3

    def test_demands_start_zero(self):
        g = GlobalGraph(make_design())
        assert g.edge_overflow() == 0
        assert g.total_vertex_overflow() == 0
        assert g.max_vertex_overflow() == 0


class TestEdgeBookkeeping:
    def test_edge_between_normalizes(self):
        g = GlobalGraph(make_design())
        assert g.edge_between((0, 0), (1, 0)) == ("h", 0, 0)
        assert g.edge_between((1, 0), (0, 0)) == ("h", 0, 0)
        assert g.edge_between((2, 1), (2, 2)) == ("v", 2, 1)

    def test_edge_between_non_adjacent_raises(self):
        g = GlobalGraph(make_design())
        with pytest.raises(ValueError):
            g.edge_between((0, 0), (2, 0))
        with pytest.raises(ValueError):
            g.edge_between((0, 0), (1, 1))

    def test_apply_path_matches_the_single_entry_mutators(self):
        """``apply_path`` updates tile codes inline: the same demand,
        the same caches and one cache update per edge and line end as
        the mutators applied edge by edge."""
        path = [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (2, 1), (3, 1)]
        inline, by_entry = GlobalGraph(make_design()), GlobalGraph(make_design())
        inline.apply_path(path, +2)
        for a, b in zip(path, path[1:]):
            by_entry.add_edge_demand(by_entry.edge_between(a, b), +2)
        # Vertical runs (1, 0)-(1, 2) and (2, 2)-(2, 1).
        for tile in [(1, 0), (1, 2), (2, 2), (2, 1)]:
            by_entry.add_vertex_demand(tile, +2)
        assert inline.perf_cache_updates == by_entry.perf_cache_updates == 6 + 4
        for name in ("_h_dem", "_v_dem", "_t_dem", "_h_cost", "_v_cost", "_v_price"):
            assert getattr(inline, name) == getattr(by_entry, name)
        inline.apply_path(path, -2)
        assert not inline.h_demand.any() and not inline.v_demand.any()
        assert not inline.vertex_demand.any()

    def test_apply_path_rejects_non_adjacent_tiles(self):
        g = GlobalGraph(make_design())
        for path in ([(0, 0), (2, 0)], [(0, 0), (1, 1)], [(0, 2), (1, 0)]):
            with pytest.raises(ValueError, match="not adjacent"):
                g.apply_path(path, +1)

    def test_demand_roundtrip(self):
        g = GlobalGraph(make_design())
        key = ("v", 1, 0)
        g.add_edge_demand(key, 3)
        assert g.edge_demand(key) == 3
        g.add_edge_demand(key, -3)
        assert g.edge_demand(key) == 0

    def test_overflow_metrics(self):
        g = GlobalGraph(make_design())
        g.add_vertex_demand((1, 0), int(g.vertex_capacity[1, 0]) + 5)
        g.add_vertex_demand((2, 0), int(g.vertex_capacity[2, 0]) + 2)
        assert g.total_vertex_overflow() == 7
        assert g.max_vertex_overflow() == 5

    def test_state_copies_are_read_only(self):
        """A write to a copy raises instead of leaving the caches stale."""
        g = GlobalGraph(make_design())
        g.add_edge_demand(("h", 0, 0), 2)
        assert g.h_demand[0, 0] == 2
        assert g.h_demand.shape == g.h_capacity.shape == (g.nx - 1, g.ny)
        assert g.v_demand.shape == g.v_capacity.shape == (g.nx, g.ny - 1)
        assert g.vertex_demand.shape == g.vertex_capacity.shape == (g.nx, g.ny)
        for kind in ("h", "v", "vertex"):
            for name in (f"{kind}_demand", f"{kind}_capacity"):
                with pytest.raises(ValueError):
                    getattr(g, name)[0, 0] = 1
        assert g.h_demand[0, 0] == 2
