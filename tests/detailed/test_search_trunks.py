"""Tests for A* connection search and trunk materialization."""

import pytest

from repro.assign import TrackMethod, assign_layers, assign_tracks, extract_panels
from repro.detailed import (
    DetailedGrid,
    astar_connect,
    connection_window,
    materialize_trunks,
)
from repro.globalroute import GlobalRouter
from tests.detailed.test_grid import make_design
from tests.globalroute.test_router import design_with_nets, two_pin


def full_window(design):
    return (0, 0, design.width - 1, design.height - 1)


class TestAstarConnect:
    def test_straight_horizontal(self):
        design = make_design()
        g = DetailedGrid(design)
        path = astar_connect(
            g, "a", {(2, 5, 1)}, {(8, 5, 1)}, full_window(design), 10_000
        )
        assert path is not None
        assert path[0] == (2, 5, 1) and path[-1] == (8, 5, 1)
        assert len(path) == 7  # straight line, no detour

    def test_requires_layer_change_for_y(self):
        design = make_design()
        g = DetailedGrid(design)
        path = astar_connect(
            g, "a", {(5, 5, 1)}, {(5, 10, 1)}, full_window(design), 10_000
        )
        assert path is not None
        layers = {n[2] for n in path}
        assert 2 in layers  # must hop to the vertical layer

    def test_overlapping_source_target(self):
        design = make_design()
        g = DetailedGrid(design)
        path = astar_connect(
            g, "a", {(5, 5, 1)}, {(5, 5, 1)}, full_window(design), 10
        )
        assert path == [(5, 5, 1)]

    def test_respects_window(self):
        design = make_design()
        g = DetailedGrid(design)
        # Window too small to reach the target.
        path = astar_connect(
            g, "a", {(2, 5, 1)}, {(30, 5, 1)}, (0, 0, 10, 10), 10_000
        )
        assert path is None

    @pytest.mark.parametrize(
        "node,targets,end",
        [
            ((5, 5, 1), {(8, 5, 1)}, (8, 5, 1)),
            ((2, 5, 1), {(8, 5, 1)}, (8, 5, 1)),
            ((8, 5, 1), {(8, 5, 1), (8, 7, 1)}, (8, 7, 1)),
            ((8, 5, 1), {(8, 5, 1)}, None),
        ],
        ids=["interior", "source", "target", "only-target"],
    )
    def test_blocked_nodes_avoided(self, node, targets, end):
        # A blocked node is as impassable as a foreign-owned one: same
        # path, same expansions.  Unlike a foreign-owned node it is
        # still counted in cost_evaluations each time it is a candidate.
        design = make_design()
        runs = []
        for walled in (False, True):
            g = DetailedGrid(design)
            if walled:
                g.occupy(node, "wall")
            stats: dict[str, float] = {}
            path = astar_connect(
                g,
                "a",
                {(2, 5, 1)},
                targets,
                full_window(design),
                10_000,
                blocked=None if walled else {node},
                stats=stats,
            )
            runs.append((path, stats["astar_expansions"], g.cost_evaluations))
        (path, expansions, evals), (w_path, w_expansions, w_evals) = runs
        assert path == w_path
        assert expansions == w_expansions
        assert evals > w_evals
        if end is None:
            assert path is None
        else:
            assert path is not None
            assert path[0] == (2, 5, 1) and path[-1] == end
            assert node not in path[1:]

    def test_owned_structural_block_stays_impassable(self):
        # (15, 5, 2) is a vertical-layer node on a stitching line.  Owning
        # it does not make it passable, not even at the foreign penalty.
        design = make_design()
        g = DetailedGrid(design)
        assert g.is_blocked((15, 5, 2))
        g.force_occupy((15, 5, 2), "wall")
        path = astar_connect(
            g,
            "a",
            {(15, 4, 2)},
            {(15, 5, 2)},
            full_window(design),
            10_000,
            foreign_penalty=30.0,
        )
        assert path is None

    def test_detours_around_foreign_wire(self):
        design = make_design()
        g = DetailedGrid(design)
        # Wall across every horizontal layer at x=5 with one gap.
        for y in range(0, 45):
            g.occupy((5, y, 1), "wall")
            g.occupy((5, y, 3), "wall")
        g.release((5, 20, 1), "wall")  # single gap
        path = astar_connect(
            g, "a", {(2, 5, 1)}, {(8, 5, 1)}, full_window(design), 100_000
        )
        assert path is not None
        assert (5, 20, 1) in path  # squeezed through the gap

    def test_expansion_limit_respected(self):
        design = make_design()
        g = DetailedGrid(design)
        path = astar_connect(
            g, "a", {(2, 5, 1)}, {(50, 40, 1)}, full_window(design), 5
        )
        assert path is None

    def test_empty_sets(self):
        design = make_design()
        g = DetailedGrid(design)
        assert astar_connect(g, "a", set(), {(1, 1, 1)}, full_window(design), 10) is None
        assert astar_connect(g, "a", {(1, 1, 1)}, set(), full_window(design), 10) is None


class TestConnectionWindow:
    def test_margin_and_clipping(self):
        window = connection_window(
            {(5, 5, 1)}, {(10, 8, 1)}, margin=3, width=20, height=12
        )
        assert window == (2, 2, 13, 11)

    def test_clips_to_die(self):
        window = connection_window(
            {(0, 0, 1)}, {(19, 11, 1)}, margin=5, width=20, height=12
        )
        assert window == (0, 0, 19, 11)


class TestMaterializeTrunks:
    def route_and_assign(self):
        nets = [
            two_pin("a", (1, 1), (55, 40)),
            two_pin("b", (5, 1), (5, 40)),
        ]
        design = design_with_nets(nets)
        gr = GlobalRouter().route(design)
        columns, rows = extract_panels(gr)
        layers = assign_layers(columns, rows, design.technology)
        tracks = assign_tracks(design, gr.graph, layers, TrackMethod.GRAPH)
        return design, gr, tracks

    def test_trunks_occupy_grid(self):
        design, gr, tracks = self.route_and_assign()
        grid = DetailedGrid(design)
        pieces = materialize_trunks(design, grid, gr.graph, tracks)
        assert pieces  # at least one net has trunks
        for net, net_pieces in pieces.items():
            for piece in net_pieces:
                for node in piece.nodes:
                    assert grid.owner(node) == net

    def test_trunk_nodes_contiguous(self):
        design, gr, tracks = self.route_and_assign()
        grid = DetailedGrid(design)
        pieces = materialize_trunks(design, grid, gr.graph, tracks)
        for net_pieces in pieces.values():
            for piece in net_pieces:
                for a, b in zip(piece.nodes, piece.nodes[1:]):
                    dist = sum(abs(p - q) for p, q in zip(a, b))
                    assert dist == 1

    def test_failed_nets_skipped(self):
        design, gr, tracks = self.route_and_assign()
        tracks.failed_nets.add("a")
        grid = DetailedGrid(design)
        pieces = materialize_trunks(design, grid, gr.graph, tracks)
        assert "a" not in pieces

    def test_trunks_avoid_stitch_line_tracks(self):
        design, gr, tracks = self.route_and_assign()
        grid = DetailedGrid(design)
        pieces = materialize_trunks(design, grid, gr.graph, tracks)
        assert design.stitches is not None
        for net_pieces in pieces.values():
            for piece in net_pieces:
                for x, _y, layer in piece.nodes:
                    if design.technology.is_vertical(layer):
                        assert not design.stitches.is_on_line(x)
