"""Tests for A* connection search and trunk materialization."""

import pytest

from repro.assign import TrackMethod, assign_layers, assign_tracks, extract_panels
from repro.config import RouterConfig
from repro.detailed import (
    DetailedGrid,
    astar_connect,
    connection_window,
    materialize_trunks,
    search_ends,
)
from repro.globalroute import GlobalRouter
from repro.layout import Design, Netlist, Technology
from tests.detailed.test_grid import make_design
from tests.engine import reference
from tests.globalroute.test_router import design_with_nets, two_pin


def full_window(design):
    return (0, 0, design.width - 1, design.height - 1)


def open_design(width, height):
    """A netless die without stitching lines inside it."""
    return Design(
        name="open",
        width=width,
        height=height,
        technology=Technology(3),
        netlist=Netlist([]),
        config=RouterConfig(stitch_spacing=15, tile_size=15),
    )


def connect(
    grid, sources, targets, window, limit, kernel=astar_connect, blocked=None, **kw
):
    """Search net "a" from ``sources`` to ``targets`` (node sets), with
    both sides and ``blocked`` prepared as the router prepares them."""
    return kernel(
        grid,
        "a",
        search_ends(grid, sources),
        search_ends(grid, targets),
        window,
        limit,
        blocked=None if blocked is None else search_ends(grid, blocked)[0],
        **kw,
    )


class TestAstarConnect:
    def test_straight_horizontal(self):
        design = make_design()
        g = DetailedGrid(design)
        path = connect(g, {(2, 5, 1)}, {(8, 5, 1)}, full_window(design), 10_000)
        assert path is not None
        assert path[0] == (2, 5, 1) and path[-1] == (8, 5, 1)
        assert len(path) == 7  # straight line, no detour

    def test_requires_layer_change_for_y(self):
        design = make_design()
        g = DetailedGrid(design)
        path = connect(g, {(5, 5, 1)}, {(5, 10, 1)}, full_window(design), 10_000)
        assert path is not None
        layers = {n[2] for n in path}
        assert 2 in layers  # must hop to the vertical layer

    def test_overlapping_source_target(self):
        design = make_design()
        g = DetailedGrid(design)
        path = connect(g, {(5, 5, 1)}, {(5, 5, 1)}, full_window(design), 10)
        assert path == [(5, 5, 1)]

    def test_shared_nodes_return_the_smallest(self):
        # Several shared nodes: the pick is the smallest id, which is
        # the smallest node tuple, whatever the set order.
        design = make_design()
        g = DetailedGrid(design)
        shared = {(7, 2, 3), (5, 9, 1), (5, 8, 2)}
        path = connect(
            g, shared | {(1, 1, 1)}, shared | {(40, 3, 1)},
            full_window(design), 10,
        )
        assert path == [(5, 8, 2)]

    def test_respects_window(self):
        design = make_design()
        g = DetailedGrid(design)
        # Window too small to reach the target.
        path = connect(g, {(2, 5, 1)}, {(30, 5, 1)}, (0, 0, 10, 10), 10_000)
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
            path = connect(
                g,
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
        g.claim([(15, 5, 2)], "wall")
        path = connect(
            g,
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
        path = connect(g, {(2, 5, 1)}, {(8, 5, 1)}, full_window(design), 100_000)
        assert path is not None
        assert (5, 20, 1) in path  # squeezed through the gap

    def test_expansion_limit_respected(self):
        design = make_design()
        g = DetailedGrid(design)
        path = connect(g, {(2, 5, 1)}, {(50, 40, 1)}, full_window(design), 5)
        assert path is None

    def test_empty_sets(self):
        design = make_design()
        g = DetailedGrid(design)
        assert connect(g, set(), {(1, 1, 1)}, full_window(design), 10) is None
        assert connect(g, {(1, 1, 1)}, set(), full_window(design), 10) is None


#: The window of the edge cases, inside a 10 x 10 die without
#: stitching lines (layers 1 and 3 horizontal, layer 2 vertical).
EDGE_WINDOW = (1, 1, 7, 7)

#: Per window side: a source on that edge, a target inside, and the
#: source's free neighbour just beyond the edge.
EDGE_CASES = {
    "lo_x": ((1, 4, 1), (5, 4, 1), (0, 4, 1)),
    "hi_x": ((7, 4, 1), (3, 4, 1), (8, 4, 1)),
    "lo_y": ((4, 1, 2), (4, 5, 2), (4, 0, 2)),
    "hi_y": ((4, 7, 2), (4, 3, 2), (4, 8, 2)),
}


class TestWindowEdges:
    """A node on the window edge counts its neighbour beyond it.

    Each planar move tests only the window bound it moves toward, and
    a node popped on that edge counts a passable neighbour outside the
    window without entering it, as the reference's filter after the
    count does.
    """

    @pytest.mark.parametrize("side", sorted(EDGE_CASES))
    def test_outside_neighbour_is_counted_not_entered(self, side):
        design = open_design(10, 10)
        source, target, outside = EDGE_CASES[side]

        def search(kernel, walled):
            grid = DetailedGrid(design)
            if walled:
                grid.occupy(outside, "w")
            stats: dict[str, float] = {}
            path = connect(
                grid, {source}, {target}, EDGE_WINDOW, 10_000,
                kernel=kernel, stats=stats, profile=True,
            )
            return path, stats, grid.cost_evaluations

        for walled in (False, True):
            assert search(astar_connect, walled) == search(
                reference.astar_connect, walled
            )
        path, stats, evals = search(astar_connect, False)
        w_path, w_stats, w_evals = search(astar_connect, True)
        assert path is not None and path[0] == source and path[-1] == target
        assert outside not in path
        # Only the source is next to the outside node, and it is
        # expanded once: the free neighbour adds exactly one count.
        assert (path, stats) == (w_path, w_stats)
        assert evals == w_evals + 1


class TestSearchEnds:
    def test_ids_and_box(self):
        g = DetailedGrid(make_design())
        nodes = {(5, 9, 1), (7, 2, 3), (5, 8, 2)}
        assert search_ends(g, nodes) == (
            frozenset(g._encode(n) for n in nodes), 5, 2, 7, 9
        )

    def test_empty_side_has_no_ids_and_an_empty_box(self):
        g = DetailedGrid(make_design())
        ids, lo_x, lo_y, hi_x, hi_y = search_ends(g, ())
        assert ids == frozenset()
        assert lo_x > hi_x and lo_y > hi_y


class TestConnectionWindow:
    def grid(self):
        return DetailedGrid(open_design(20, 12))

    def test_margin_and_clipping(self):
        g = self.grid()
        window = connection_window(
            search_ends(g, {(5, 5, 1)}),
            search_ends(g, {(10, 8, 1)}),
            margin=3,
            width=20,
            height=12,
        )
        assert window == (2, 2, 13, 11)

    def test_clips_to_die(self):
        g = self.grid()
        window = connection_window(
            search_ends(g, {(0, 0, 1)}),
            search_ends(g, {(19, 11, 1)}),
            margin=5,
            width=20,
            height=12,
        )
        assert window == (0, 0, 19, 11)

    def test_empty_side_leaves_the_other_box(self):
        g = self.grid()
        empty = search_ends(g, ())
        side = search_ends(g, {(5, 5, 1), (10, 8, 1)})
        assert connection_window(empty, side, 3, 20, 12) == (2, 2, 13, 11)
        assert connection_window(side, empty, 3, 20, 12) == (2, 2, 13, 11)


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
