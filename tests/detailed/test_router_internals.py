"""White-box tests for trunk crossing preconnection, fragments and
salvage grouping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import DisjointSet
from repro.detailed import DetailedGrid, RoutedNet, TrunkPiece
from repro.detailed.router import (
    _piece_fragments,
    _preconnect_crossings,
    _salvage_components,
)
from repro.detailed.wiring import path_edges
from repro.geometry import Point
from repro.layout import Net, Pin
from tests.detailed.test_grid import make_design


def vertical_piece(net, x, y_lo, y_hi, layer=2):
    return TrunkPiece(net=net, nodes=[(x, y, layer) for y in range(y_lo, y_hi + 1)])


def horizontal_piece(net, y, x_lo, x_hi, layer=1):
    return TrunkPiece(net=net, nodes=[(x, y, layer) for x in range(x_lo, x_hi + 1)])


class TestPreconnectCrossings:
    def occupy(self, grid, pieces):
        for piece in pieces:
            for node in piece.nodes:
                grid.occupy(node, piece.net)

    def test_single_crossing_gets_via(self):
        grid = DetailedGrid(make_design())
        pieces = [
            vertical_piece("n", 5, 0, 10),
            horizontal_piece("n", 4, 0, 10),
        ]
        self.occupy(grid, pieces)
        edges, components = _preconnect_crossings(grid, "n", pieces)
        assert components == [{(5, 4, 1), (5, 4, 2)}]
        assert edges == {((5, 4, 1), (5, 4, 2))}
        assert grid.owner((5, 4, 1)) == "n"

    def test_connected_pieces_no_redundant_vias(self):
        grid = DetailedGrid(make_design())
        pieces = [
            vertical_piece("n", 5, 0, 10),
            horizontal_piece("n", 4, 0, 10),
            horizontal_piece("n", 8, 0, 10, layer=3),
        ]
        self.occupy(grid, pieces)
        edges, components = _preconnect_crossings(grid, "n", pieces)
        # Two vias suffice to join three pieces (a spanning structure).
        assert len(components) == 2

    def test_blocked_crossing_left_for_astar(self):
        grid = DetailedGrid(make_design())
        pieces = [
            vertical_piece("n", 5, 0, 10),
            horizontal_piece("n", 4, 0, 4),  # crossing at (5,4)? no: ends at 4
        ]
        # Pieces do not intersect in (x, y): no via possible.
        self.occupy(grid, pieces)
        edges, components = _preconnect_crossings(grid, "n", pieces)
        assert edges == set() and components == []

    def test_foreign_blockage_skips_via(self):
        grid = DetailedGrid(make_design())
        pieces = [
            vertical_piece("n", 5, 0, 10, layer=2),
            horizontal_piece("n", 4, 0, 10, layer=3),
        ]
        self.occupy(grid, pieces)
        # A foreign wire occupies the crossing... there is nothing
        # between layers 2 and 3; instead block the crossing by taking
        # an intermediate node of a 1-3 crossing.
        grid2 = DetailedGrid(make_design())
        pieces2 = [
            vertical_piece("m", 5, 0, 10, layer=2),
            horizontal_piece("m", 4, 0, 10, layer=1),
        ]
        for piece in pieces2:
            for node in piece.nodes:
                grid2.occupy(node, "m")
        # (5, 4, 1) and (5, 4, 2) belong to m itself: via allowed.
        edges, comps = _preconnect_crossings(grid2, "m", pieces2)
        assert comps

    def test_same_layer_touch_counts_as_connected(self):
        grid = DetailedGrid(make_design())
        pieces = [
            horizontal_piece("n", 4, 0, 5),
            horizontal_piece("n", 4, 5, 10),  # shares (5, 4, 1)
        ]
        grid.occupy((5, 4, 1), "n")
        for piece in pieces:
            for node in piece.nodes:
                if grid.owner(node) is None:
                    grid.occupy(node, "n")
        edges, components = _preconnect_crossings(grid, "n", pieces)
        assert edges == set()  # no via needed
        assert components == []

    def test_single_piece_noop(self):
        grid = DetailedGrid(make_design())
        pieces = [vertical_piece("n", 5, 0, 10)]
        edges, components = _preconnect_crossings(grid, "n", pieces)
        assert edges == set() and components == []


class TestPieceFragments:
    def test_full_piece_survives(self):
        piece = vertical_piece("n", 5, 0, 4)
        fragments = _piece_fragments([piece], set(piece.nodes))
        assert len(fragments) == 1
        assert fragments[0].nodes == piece.nodes

    def test_gap_splits(self):
        piece = vertical_piece("n", 5, 0, 4)
        live = set(piece.nodes) - {(5, 2, 2)}
        fragments = _piece_fragments([piece], live)
        assert len(fragments) == 2
        assert [len(f.nodes) for f in fragments] == [2, 2]

    def test_fully_released_piece_vanishes(self):
        piece = vertical_piece("n", 5, 0, 4)
        assert _piece_fragments([piece], set()) == []


STEPS = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]


@st.composite
def unit_edge_walks(draw, width=12, height=10, layers=3):
    """Walks of unit steps on a small corner of the die (they may cross
    and double back), as the edges of one net's route."""
    edges = set()
    for _ in range(draw(st.integers(0, 5))):
        node = (
            draw(st.integers(0, width - 1)),
            draw(st.integers(0, height - 1)),
            draw(st.integers(1, layers)),
        )
        walk = [node]
        for dx, dy, dz in draw(st.lists(st.sampled_from(STEPS), max_size=10)):
            x, y, layer = walk[-1]
            succ = (x + dx, y + dy, layer + dz)
            if 0 <= succ[0] < width and 0 <= succ[1] < height and (
                1 <= succ[2] <= layers
            ):
                walk.append(succ)
        edges |= path_edges(walk)
    return edges


def union_find_groups(grid, name, edges):
    """The grouping the salvage used to make: live edges through a
    union-find, groups in the order their root is first met."""
    live = {
        e for e in edges
        if grid.owner(e[0]) == name and grid.owner(e[1]) == name
    }
    if not live:
        return None
    ds = DisjointSet()
    for a, b in live:
        ds.union(a, b)
    groups = {}
    for edge in live:
        for node in edge:
            groups.setdefault(ds.find(node), set()).add(node)
    return list(groups.values()), live


class TestSalvageComponents:
    @settings(max_examples=200, deadline=None)
    @given(unit_edge_walks(), st.data())
    def test_groups_match_a_union_find_in_order(self, edges, data):
        # Some of the net's wire was stolen by another net, so only the
        # edges whose two ends it still owns are salvaged.
        grid = DetailedGrid(make_design())
        nodes = sorted({node for edge in edges for node in edge})
        stolen = data.draw(st.lists(st.sampled_from(nodes), unique=True)) if nodes else []
        for node in nodes:
            grid.occupy(node, "m" if node in stolen else "n")
        net = Net("n", (Pin("p", Point(0, 0), 1), Pin("q", Point(1, 0), 1)))
        record = RoutedNet(net=net, nodes=set(nodes), edges=edges, routed=False)

        assert _salvage_components(grid, record) == union_find_groups(
            grid, "n", edges
        )
