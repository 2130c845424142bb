"""The router's separation proof skips retries, never connections.

``DetailedRouter._connect_net`` retries a failed connection in wider
windows.  After the first window fails, it floods the widest window
with :func:`~repro.detailed.search.separated` and skips the retries
when no path exists there.  The unit tests show the skip, that a
detour the wider window holds is not skipped, and that a way through
the window's edge columns and rows is not proved closed; the property
shows that the proof changes nothing but the work: with it patched to
always fail, every call returns the same result and leaves the same
grid.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.detailed.router as detailed_router
from repro.config import RouterConfig
from repro.detailed import (
    DetailedGrid,
    DetailedRouter,
    TrunkPiece,
    astar_connect,
    search_ends,
    separated,
)
from repro.detailed.router import (
    NEGOTIATION_PENALTY,
    WINDOW_MARGINS,
    _piece_fragments,
)
from repro.detailed.wiring import path_edges
from repro.geometry import Point
from repro.layout import Design, Direction, Net, Netlist, Pin, Technology

FOREIGN = ("v", "w")


def claim_pins(grid, net):
    for pin in net.pins:
        node = (pin.location.x, pin.location.y, pin.layer)
        grid.occupy(node, net.name)
        grid.mark_pin(node)


def no_proof(*args, **kwargs):
    return False


def connect_two_pins(walls, patch=None):
    """Route a two-pin net of a 40 x 40 die with ``walls`` foreign."""
    net = Net("n", (Pin("a", Point(10, 10), 1), Pin("b", Point(14, 10), 1)))
    design = Design(
        name="walls",
        width=40,
        height=40,
        technology=Technology(3),
        netlist=Netlist([net]),
        config=RouterConfig(stitch_spacing=15, tile_size=15),
    )
    grid = DetailedGrid(design)
    claim_pins(grid, net)
    for node in walls:
        grid.occupy(node, "w")
    router = DetailedRouter()
    with mock.patch.object(detailed_router, "separated", patch or separated):
        ok, _nodes, _edges, victims = router._connect_net(
            design, grid, net, {}
        )
    assert not victims
    return ok, router._search_stats


#: Foreign wire on the three nodes pin (14, 10, 1) can step to.
WALLED_IN = ((13, 10, 1), (15, 10, 1), (14, 10, 2))


def fence(top):
    """A wall through every layer at x = 12, from y = 0 to ``top - 1``."""
    return [(12, y, layer) for y in range(top) for layer in (1, 2, 3)]


class TestRetries:
    def test_walled_in_pin_fails_after_one_search(self):
        ok, stats = connect_two_pins(WALLED_IN)
        assert not ok
        assert stats["astar_searches"] == 1
        assert stats["separations_proved"] == 1

    def test_without_the_proof_every_margin_searches(self):
        ok, stats = connect_two_pins(WALLED_IN, patch=no_proof)
        assert not ok
        assert stats["astar_searches"] == len(WINDOW_MARGINS)
        assert "separations_proved" not in stats
        assert stats["astar_failed_expansions"] == stats["astar_expansions"]

    def test_detour_beyond_the_first_window_is_not_proved(self):
        # The first window reaches y = 16; the way around the fence is
        # at y = 20, inside the second window.
        ok, stats = connect_two_pins(fence(20))
        assert ok
        assert stats["astar_searches"] == 2
        assert "separations_proved" not in stats
        assert 0 < stats["astar_failed_expansions"] < stats["astar_expansions"]


#: The window of the edge-gap cases, inside a 10 x 10 die without
#: stitching lines.
EDGE_WINDOW = (1, 1, 7, 7)


def edge_gap(side):
    """Seeds on either side of a wall through every layer, and the
    wall's one gap: the window's ``side`` column or row.  Each flood
    must step onto that edge of the window from inside to meet the
    other, so a move test one short of the bound fails the proof."""
    lo_x, lo_y, hi_x, hi_y = EDGE_WINDOW
    layers = (1, 2, 3)
    if side in ("lo_x", "hi_x"):
        gap = lo_x if side == "lo_x" else hi_x
        wall = [
            (x, 4, layer) for x in range(lo_x, hi_x + 1) if x != gap
            for layer in layers
        ]
        return {(4, 2, 1)}, {(4, 6, 1)}, wall, [(gap, 4, m) for m in layers]
    gap = lo_y if side == "lo_y" else hi_y
    wall = [
        (4, y, layer) for y in range(lo_y, hi_y + 1) if y != gap
        for layer in layers
    ]
    return {(2, 4, 1)}, {(6, 4, 1)}, wall, [(4, gap, m) for m in layers]


class TestWindowEdges:
    @pytest.mark.parametrize("side", ["lo_x", "hi_x", "lo_y", "hi_y"])
    def test_a_gap_on_the_window_edge_is_not_proved(self, side):
        design = Design(
            name="edges",
            width=10,
            height=10,
            technology=Technology(3),
            netlist=Netlist([]),
            config=RouterConfig(stitch_spacing=15, tile_size=15),
        )
        grid = DetailedGrid(design)
        sources, targets, wall, gap = edge_gap(side)
        src, tgt = search_ends(grid, sources), search_ends(grid, targets)
        for node in wall:
            grid.occupy(node, "w")
        assert astar_connect(grid, "n", src, tgt, EDGE_WINDOW, 10**6)
        assert not separated(grid, "n", src, tgt, EDGE_WINDOW)
        for node in gap:
            grid.occupy(node, "w")
        assert separated(grid, "n", src, tgt, EDGE_WINDOW)


@st.composite
def connect_cases(draw):
    """A design whose one net ``n`` meets barriers and foreign wire."""
    spacing = draw(st.integers(3, 9))
    config = RouterConfig(
        stitch_spacing=spacing,
        epsilon=draw(st.integers(0, (spacing - 2) // 2)),
        escape_width=draw(st.integers(0, 4)),
        tile_size=draw(st.integers(2, 6)),
    )
    width = draw(st.integers(4, 48))
    height = draw(st.integers(4, 40))
    layers = draw(st.integers(2, 3))
    # Pins close together in a larger die, so that the first window
    # (margin 6) is a small part of it and a detour around a barrier
    # may need a wider retry.
    ax = draw(st.integers(width // 4, (3 * width) // 4))
    ay = draw(st.integers(height // 4, (3 * height) // 4))
    xy = st.tuples(
        st.integers(ax, min(width - 1, ax + 5)),
        st.integers(ay, min(height - 1, ay + 5)),
    )
    pins = draw(st.lists(xy, min_size=2, max_size=4, unique=True))
    net = Net(
        "n",
        tuple(
            Pin(f"n.{k}", Point(x, y), 1) for k, (x, y) in enumerate(pins)
        ),
    )
    design = Design(
        name="pockets",
        width=width,
        height=height,
        technology=Technology(
            layers,
            draw(st.sampled_from([Direction.HORIZONTAL, Direction.VERTICAL])),
        ),
        netlist=Netlist([net]),
        config=config,
    )
    node = st.tuples(
        st.integers(0, width - 1),
        st.integers(0, height - 1),
        st.integers(1, layers),
    )
    # Trunk pieces: straight runs along each layer's preferred
    # direction, as track assignment lays them.
    pieces = []
    for x, y, layer in draw(st.lists(node, max_size=2)):
        length = draw(st.integers(1, 6))
        if design.technology.is_vertical(layer):
            run = [(x, v, layer) for v in range(y, min(height, y + length))]
        else:
            run = [(u, y, layer) for u in range(x, min(width, x + length))]
        pieces.append(TrunkPiece(net="n", nodes=run))
    # Barriers through every layer across the pin cluster, which a
    # path must walk around, often beyond the first window.
    barriers = []
    for vertical, at, below, above in draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 5),
                st.integers(0, 24),
                st.integers(0, 24),
            ),
            max_size=2,
        )
    ):
        for layer in range(1, layers + 1):
            if vertical:
                barriers += [
                    (ax + at, y, layer)
                    for y in range(ay - below, ay + 6 + above)
                ]
            else:
                barriers += [
                    (x, ay + at, layer)
                    for x in range(ax - below, ax + 6 + above)
                ]
    density = draw(st.sampled_from([0.0, 0.05, 0.2]))
    seed = draw(st.integers(0, 2**32 - 1))
    call = draw(
        st.sampled_from(
            ["first-pass", "no-negotiation", "direct", "negotiated",
             "salvage", "repair"]
        )
    )
    blocked = set(draw(st.lists(node, max_size=12)))
    return design, pieces, barriers, density, seed, call, blocked


def build(design, pieces, barriers, density, seed):
    """The grid: the net's pins, foreign wire, then the net's trunks."""
    grid = DetailedGrid(design)
    claim_pins(grid, design.netlist.nets[0])
    for node in barriers:
        if grid.in_bounds(node) and grid.owner(node) is None:
            grid.occupy(node, FOREIGN[0])
    rng = random.Random(seed)
    for x in range(design.width):
        for y in range(design.height):
            for layer in range(1, design.technology.num_layers + 1):
                node = (x, y, layer)
                if rng.random() < density and grid.owner(node) is None:
                    grid.occupy(node, rng.choice(FOREIGN))
                    if rng.random() < 0.2:
                        grid.mark_pin(node)
    for piece in pieces:
        for node in piece.nodes:
            if grid.owner(node) is None:
                grid.occupy(node, "n")
    return grid


def connect(case):
    design, pieces, barriers, density, seed, call, blocked = case
    grid = build(design, pieces, barriers, density, seed)
    net = design.netlist.nets[0]
    router = DetailedRouter()
    trunks = {"n": pieces}
    if call == "first-pass":
        result = router._connect_net(design, grid, net, trunks)
    elif call == "no-negotiation":
        result = router._connect_net(
            design, grid, net, trunks, allow_negotiation=False
        )
    elif call == "direct":
        result = router._connect_net(design, grid, net, {}, direct=True)
    elif call == "negotiated":
        result = router._connect_net(
            design, grid, net, {}, direct=True,
            foreign_penalty=NEGOTIATION_PENALTY,
        )
    elif call == "salvage":
        owned = {n for piece in pieces for n in piece.nodes}
        wire = _piece_fragments(pieces, grid.occupied_by("n") & owned)
        salvage = (
            [piece.node_set for piece in wire],
            set().union(*(path_edges(piece.nodes) for piece in wire)),
        )
        result = router._connect_net(
            design, grid, net, {}, direct=True, salvage=salvage,
            allow_negotiation=False,
        )
    else:
        result = router._connect_net(
            design, grid, net, trunks, blocked=blocked,
            allow_negotiation=False,
        )
    return result, list(grid._owner_ids)


@settings(max_examples=150, deadline=None)
@given(connect_cases())
def test_the_proof_changes_no_result(case):
    proved = connect(case)
    with mock.patch.object(detailed_router, "separated", no_proof):
        searched = connect(case)
    assert proved == searched
