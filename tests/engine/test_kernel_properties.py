"""Per-search differential properties: production kernel vs reference.

The whole-flow differentials only reach the code paths the gate and
stress circuits happen to exercise.  These properties draw tiny random
designs — 2 to 4 layers, either layer-1 direction, random stitch
spacing, epsilon and cost weights, stitch-aware on and off — put
random ownership, pins, demand and history on them, and run one
search through the production kernel and one through the reference
(``tests/engine/reference.py``) on the same grid or graph.  Both must
return the same path (or both ``None``) and report the same counters:
expansions, heap pushes and pops, and for the detailed A* the same
``cost_evaluations`` delta.  The detailed kernel reads its prices from
the grid's step table, so one more property checks that table entry by
entry against the reference's Eq. (10) price.

Both kernels keep their best costs in a list their grid or graph owns
and reuse it from search to search, so a second property per kernel
runs two to four searches in a row on one grid or graph, placing each
found path before the next search.  Every search must match the
reference, and afterwards every entry of the reused list must read
``inf`` again.

Searches are drawn the way the routers issue them: detailed windows
from :func:`~repro.detailed.search.connection_window`, the full grid
or any window that holds the sources, with and without
``foreign_penalty`` (the owned-node branch of the search loop) and
``blocked`` (nodes seeded as unrelaxable), with small source and
target sets as well as large ones like the whole net components
rip-up reconnects pass, both sides prepared by
:func:`~repro.detailed.search.search_ends`; global windows as the
``ASTAR_WINDOW_MARGIN`` box around the two tiles or any window that
holds the source.  The global maze keeps the source in its tile's
``h`` state, leaves out dominated states and pushes no entry above the
cheapest target entry (see
:meth:`~repro.globalroute.graph.GlobalGraph.astar_in_window`), as the
reference does by default; one more property runs the plain reference
and checks that every path stays the same, and another that no search
pushes a second state at the source tile unless it undercuts the
source by more than the tile's line-end price.
The detailed kernel tests one window bound per planar move, so one
more property records every finite best cost it writes: each must
land on a node inside the window.

The separation proof (:func:`~repro.detailed.search.separated`) gets
the same designs under dense wire of every net: where it holds, both
kernels must fail in its window and in every smaller
``connection_window``, and where every target is enterable it must
hold exactly when the reference finds no path.  It floods over the
grid's reused mark list, which must read all zero after every call,
also after a call interrupted by an exception in mid-flood, and whose
reached nodes must all lie inside the window.
"""

import heapq
import math
import random
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import RouterConfig
from repro.detailed import (
    DetailedGrid,
    astar_connect,
    connection_window,
    search_ends,
    separated,
)
from repro.detailed.grid import BLOCKED_STEP
from repro.geometry import Point
import repro.globalroute.graph as global_graph
from repro.globalroute import GlobalGraph, GlobalRouter
from repro.globalroute.router import ASTAR_WINDOW_MARGIN
from repro.layout import Design, Direction, Net, Netlist, Pin, Technology
from tests.engine import reference

NETS = ("a", "b", "c")

weights = st.sampled_from([0.0, 0.3, 1.0, 1.7, 5.0, 10.0])


@st.composite
def designs(draw, max_width, max_height):
    """A small design with random layers, stitching lines and weights."""
    spacing = draw(st.integers(3, 9))
    config = RouterConfig(
        stitch_spacing=spacing,
        epsilon=draw(st.integers(0, (spacing - 2) // 2)),
        escape_width=draw(st.integers(0, 4)),
        tile_size=draw(st.integers(2, 6)),
        alpha=draw(st.sampled_from([0.5, 1.0, 1.3])),
        beta=draw(weights),
        gamma=draw(weights),
    )
    width = draw(st.integers(4, max_width))
    height = draw(st.integers(4, max_height))
    nets = [
        Net(
            name,
            (
                Pin(f"{name}.0", Point(k, 0), 1),
                Pin(f"{name}.1", Point(width - 1 - k, height - 1), 1),
            ),
        )
        for k, name in enumerate(NETS)
    ]
    technology = Technology(
        draw(st.integers(2, 4)),
        draw(st.sampled_from([Direction.HORIZONTAL, Direction.VERTICAL])),
    )
    return Design(
        name="random",
        width=width,
        height=height,
        technology=technology,
        netlist=Netlist(nets),
        config=config,
    )


def nodes_of(design):
    return st.tuples(
        st.integers(0, design.width - 1),
        st.integers(0, design.height - 1),
        st.integers(1, design.technology.num_layers),
    )


def node_sets(design):
    # Few endpoints, as a pin attach issues, or many, as a rip-up
    # reconnect of whole net components issues.
    nodes = nodes_of(design)
    return st.one_of(
        st.lists(nodes, min_size=1, max_size=6, unique=True),
        st.lists(nodes, min_size=16, max_size=28, unique=True),
    ).map(set)


def owned_grid(data, design):
    """A detailed grid of ``design`` with random ownership and pins."""
    grid = DetailedGrid(design, stitch_aware=data.draw(st.booleans()))
    owned = data.draw(
        st.lists(
            st.tuples(nodes_of(design), st.sampled_from(NETS), st.booleans()),
            max_size=60,
        )
    )
    for node, net, pin in owned:
        if not grid.is_pin(node):
            grid.claim([node], net)
            if pin:
                grid.mark_pin(node)
    return grid


def windows_around(ends, design):
    """Any window inside the grid that holds every node of ``ends``."""
    _ids, lo_x, lo_y, hi_x, hi_y = ends
    return st.tuples(
        st.integers(0, lo_x),
        st.integers(0, lo_y),
        st.integers(hi_x, design.width - 1),
        st.integers(hi_y, design.height - 1),
    )


def detailed_search(data, grid):
    """A detailed search as the router issues one: the arguments after
    the grid, the net and the kernel's keywords, drawn from ``data``.

    Sources and targets may share nodes (the early exit), budgets run
    from none to unlimited (expansion-limit stops), and narrow windows
    or ``blocked`` nodes can leave no path (window-exhausted failures).
    Besides the router's windows, any window that holds the sources
    meets the kernel's precondition; one that leaves targets out makes
    the search fail once it is exhausted.
    """
    design = grid.design
    sources = data.draw(node_sets(design))
    targets = data.draw(node_sets(design))
    if not data.draw(st.booleans()):
        targets -= sources
        assume(targets)
    sources, targets = search_ends(grid, sources), search_ends(grid, targets)
    window = data.draw(
        st.one_of(
            st.just((0, 0, design.width - 1, design.height - 1)),
            st.sampled_from([0, 1, 2, 6, 16]).map(
                lambda margin: connection_window(
                    sources, targets, margin, design.width, design.height
                )
            ),
            windows_around(sources, design),
        )
    )
    limit = data.draw(st.one_of(st.integers(0, 300), st.just(200_000)))
    blocked = data.draw(st.one_of(st.none(), node_sets(design)))
    if blocked is not None:
        blocked = search_ends(grid, blocked)[0]
    penalty = data.draw(st.sampled_from([None, 2.5, 30.0]))
    return (sources, targets, window, limit), {
        "blocked": blocked, "foreign_penalty": penalty,
    }


def run_detailed(kernel, grid, net, args, kwargs):
    """Path, counters and ``cost_evaluations`` delta of one search."""
    stats = {}
    before = grid.cost_evaluations
    path = kernel(grid, net, *args, **kwargs, stats=stats, profile=True)
    return path, stats, grid.cost_evaluations - before


def dense_wire(data, design, grid):
    """Random wire of every net on ``grid``, so that many searches face
    a closed pocket; a third of it is the searching net's own, which it
    may pass through."""
    density = data.draw(st.sampled_from([0.0, 0.3, 0.6]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for x in range(design.width):
        for y in range(design.height):
            for layer in range(1, design.technology.num_layers + 1):
                node = (x, y, layer)
                if rng.random() < density and not grid.is_pin(node):
                    grid.claim([node], rng.choice(NETS))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_step_table_prices_eq10_node_by_node(data):
    # The kernel reads its Eq. (10) prices from the step table, never
    # from the weights: every entry, in id order, is the reference's
    # price of entering that node, or the blocked sentinel where the
    # vertical routing constraint applies.
    design = data.draw(designs(max_width=20, max_height=14))
    grid = DetailedGrid(design, stitch_aware=data.draw(st.booleans()))
    tech = design.technology
    nodes = [
        (x, y, layer)
        for x in range(design.width)
        for y in range(design.height)
        for layer in range(1, tech.num_layers + 1)
    ]
    assert len(grid._step) == len(nodes)
    for node, step in zip(nodes, grid._step):
        assert type(step) is float
        x, _y, layer = node
        if tech.is_vertical(layer) and design.stitches.is_on_line(x):
            assert step == BLOCKED_STEP
        else:
            assert step == design.config.alpha + reference._node_cost(grid, node)
    # Nothing is owned yet, so the ownership-folded table is the same.
    assert grid._free_step == grid._step


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_detailed_search_matches_reference(data):
    design = data.draw(designs(max_width=20, max_height=14))
    grid = owned_grid(data, design)
    args, kwargs = detailed_search(data, grid)

    assert run_detailed(astar_connect, grid, "a", args, kwargs) == run_detailed(
        reference.astar_connect, grid, "a", args, kwargs
    )


class RecordedCosts(list):
    """A best-cost list that records every id given a finite cost."""

    def __init__(self, entries):
        super().__init__(entries)
        self.finite = set()

    def __setitem__(self, index, value):
        if math.isfinite(value):
            self.finite.add(index)
        super().__setitem__(index, value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_detailed_search_writes_costs_only_inside_its_window(data):
    # Each planar move tests only the window bound it moves toward, so
    # the search must never relax a node beyond the window: every
    # finite cost it writes (the 0 of a source, a relaxed candidate)
    # lands on a window node.  Blocked seeds are written -inf.
    design = data.draw(designs(max_width=20, max_height=14))
    grid = owned_grid(data, design)
    dense_wire(data, design, grid)
    args, kwargs = detailed_search(data, grid)

    grid._best_g = costs = RecordedCosts(grid._best_g)
    found = run_detailed(astar_connect, grid, "a", args, kwargs)
    assert all(cost == math.inf for cost in costs)
    lo_x, lo_y, hi_x, hi_y = args[2]
    for idx in costs.finite:
        x, y, _layer = grid._decode(idx)
        assert lo_x <= x <= hi_x and lo_y <= y <= hi_y
    assert found == run_detailed(
        reference.astar_connect, grid, "a", args, kwargs
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_detailed_searches_in_a_row_match_reference(data):
    # The kernel reuses the grid's best-cost list from search to
    # search: whatever one search leaves there, the next one reads.
    design = data.draw(designs(max_width=20, max_height=14))
    grid = owned_grid(data, design)
    dense_wire(data, design, grid)
    for _ in range(data.draw(st.integers(2, 4))):
        net = data.draw(st.sampled_from(NETS))
        args, kwargs = detailed_search(data, grid)

        found = run_detailed(astar_connect, grid, net, args, kwargs)
        assert all(cost == math.inf for cost in grid._best_g)
        assert found == run_detailed(
            reference.astar_connect, grid, net, args, kwargs
        )
        # Place the wire, as the router does, so the next search sees
        # a different grid.
        for node in found[0] or ():
            if not grid.is_pin(node):
                grid.claim([node], net)


#: Margins of the windows a separation proof must cover: the nested
#: ``connection_window`` margins up to the one the proof floods.
PROOF_MARGINS = (0, 1, 2, 6, 16)


class Interrupted(Exception):
    pass


class ReadBudget(list):
    """A step list that raises :class:`Interrupted` once ``reads``
    entries have been read, to stop a flood in mid-flight."""

    def __init__(self, entries, reads):
        super().__init__(entries)
        self.reads = reads

    def __getitem__(self, index):
        if self.reads == 0:
            raise Interrupted
        self.reads -= 1
        return super().__getitem__(index)


class RecordedMarks(bytearray):
    """A mark list that records every id a flood marks as reached."""

    def __init__(self, size):
        super().__init__(size)
        self.reached = set()

    def __setitem__(self, index, value):
        if value in (1, 2):
            self.reached.add(index)
        super().__setitem__(index, value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_separated_is_a_proof_for_every_smaller_window(data):
    design = data.draw(designs(max_width=20, max_height=14))
    grid = owned_grid(data, design)
    dense_wire(data, design, grid)
    sources = data.draw(node_sets(design))
    targets = data.draw(node_sets(design))
    if not data.draw(st.booleans()):
        targets -= sources
        assume(targets)
    blocked = data.draw(st.one_of(st.none(), node_sets(design)))
    src, tgt = search_ends(grid, sources), search_ends(grid, targets)
    blocked_ids = None if blocked is None else search_ends(grid, blocked)[0]
    widest = data.draw(st.integers(0, len(PROOF_MARGINS) - 1))
    windows = [
        connection_window(src, tgt, margin, design.width, design.height)
        for margin in PROOF_MARGINS[: widest + 1]
    ]

    # A flood stopped by an exception leaves no mark behind either.
    reads = data.draw(st.one_of(st.none(), st.integers(0, 40)))
    if reads is not None:
        free_step = grid._free_step
        grid._free_step = ReadBudget(free_step, reads)
        try:
            separated(grid, "a", src, tgt, windows[-1], blocked_ids)
        except Interrupted:
            pass  # else the verdict came within the read budget
        finally:
            grid._free_step = free_step
        assert not any(grid._mark)

    grid._mark = marks = RecordedMarks(len(grid._mark))
    proved = separated(grid, "a", src, tgt, windows[-1], blocked_ids)
    assert not any(grid._mark)
    # The window holds every seed, so both floods stay inside it.
    lo_x, lo_y, hi_x, hi_y = windows[-1]
    for idx in marks.reached:
        x, y, _layer = grid._decode(idx)
        assert lo_x <= x <= hi_x and lo_y <= y <= hi_y

    # No penalty and an unlimited budget: the search fails only where
    # no path exists.
    unlimited = design.width * design.height * design.technology.num_layers
    if proved:
        for window in windows:
            for kernel in (astar_connect, reference.astar_connect):
                assert kernel(
                    grid, "a", src, tgt, window, unlimited,
                    blocked=blocked_ids,
                ) is None
    # With every target enterable, the floods follow exactly the moves
    # the search may make, so the proof is also complete.
    if all(
        grid.is_free_for(t, "a") and (blocked is None or t not in blocked)
        for t in targets
    ):
        found = reference.astar_connect(
            grid, "a", src, tgt, windows[-1], unlimited,
            blocked=blocked_ids,
        )
        assert proved == (found is None)


@st.composite
def tile_walks(draw, nx, ny):
    """A walk over adjacent tiles (it may double back on itself)."""
    i = draw(st.integers(0, nx - 1))
    j = draw(st.integers(0, ny - 1))
    path = [(i, j)]
    steps = st.sampled_from([(-1, 0), (1, 0), (0, -1), (0, 1)])
    for di, dj in draw(st.lists(steps, max_size=12)):
        if 0 <= i + di < nx and 0 <= j + dj < ny:
            i, j = i + di, j + dj
            path.append((i, j))
    return path


def loaded_graph(data, design):
    """A global graph of ``design`` with random demand and history."""
    graph = GlobalGraph(design)
    nx, ny = graph.nx, graph.ny
    walks = data.draw(
        st.lists(st.tuples(tile_walks(nx, ny), st.integers(1, 6)), max_size=10)
    )
    for path, copies in walks:
        for _ in range(copies):
            graph.apply_path(path, +1)
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    if seed is not None:
        # Negotiated history: multiples of 0.5, then the re-pricing
        # that ``GlobalGraph.bump_history`` performs.
        rng = np.random.default_rng(seed)
        for history in (graph._h_hist, graph._v_hist, graph._t_hist):
            history[:] = (0.5 * rng.integers(0, 6, size=len(history))).tolist()
        graph.refresh_cost_cache()
    return graph


@st.composite
def tile_searches(draw, nx, ny):
    """A maze search ``(src, dst, window)``.

    The window is the router's, the ``ASTAR_WINDOW_MARGIN`` box around
    the two tiles, or any window around ``src``: one that leaves
    ``dst`` out fails once it is exhausted.  ``src == dst``, which the
    router answers without a search, is drawn too.
    """
    src = (draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)))
    dst = (draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)))
    margin = ASTAR_WINDOW_MARGIN
    router_window = (
        max(0, min(src[0], dst[0]) - margin),
        max(0, min(src[1], dst[1]) - margin),
        min(nx - 1, max(src[0], dst[0]) + margin),
        min(ny - 1, max(src[1], dst[1]) + margin),
    )
    window = draw(
        st.one_of(
            st.just(router_window),
            st.tuples(
                st.integers(0, src[0]),
                st.integers(0, src[1]),
                st.integers(src[0], nx - 1),
                st.integers(src[1], ny - 1),
            ),
        )
    )
    return src, dst, window


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_global_search_matches_reference(data):
    design = data.draw(designs(max_width=40, max_height=30))
    graph = loaded_graph(data, design)
    src, dst, window = data.draw(tile_searches(graph.nx, graph.ny))
    router = GlobalRouter(
        stitch_aware=data.draw(st.booleans()), profile="counters"
    )

    production, ref = {}, {}
    path = router._astar_in_window(graph, src, dst, window, production)
    assert path == reference.astar_in_window(
        router, graph, src, dst, window, ref
    )
    assert production == ref


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_global_searches_in_a_row_match_reference(data):
    # The maze reuses the graph's best-cost list from search to
    # search: whatever one search leaves there, the next one reads.
    design = data.draw(designs(max_width=40, max_height=30))
    graph = loaded_graph(data, design)
    for _ in range(data.draw(st.integers(2, 4))):
        src, dst, window = data.draw(tile_searches(graph.nx, graph.ny))
        router = GlobalRouter(
            stitch_aware=data.draw(st.booleans()), profile="counters"
        )

        production, ref = {}, {}
        path = router._astar_in_window(graph, src, dst, window, production)
        assert all(cost == math.inf for cost in graph._best)
        assert path == reference.astar_in_window(
            router, graph, src, dst, window, ref
        )
        assert production == ref
        # Place the demand, as the router does, so the next search
        # sees different prices.
        if path is not None:
            graph.apply_path(path, +1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_global_paths_do_not_depend_on_dominance(data):
    # The source in its tile's h state, dominance and the push bound
    # save work and must move no path: the production maze, which
    # follows all three rules, against the plain reference maze, which
    # keeps the source apart and pushes every relaxed state.
    design = data.draw(designs(max_width=40, max_height=30))
    graph = loaded_graph(data, design)
    for _ in range(data.draw(st.integers(1, 4))):
        src, dst, window = data.draw(tile_searches(graph.nx, graph.ny))
        router = GlobalRouter(stitch_aware=data.draw(st.booleans()))
        path = router._astar_in_window(graph, src, dst, window, {})
        assert path == reference.astar_in_window(
            router, graph, src, dst, window, {}, plain=True
        )
        if path is not None:
            graph.apply_path(path, +1)


class RecordingHeap:
    """A stand-in for the graph module's ``heapq`` that records every
    pushed entry."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.pushed = []

    def heappush(self, heap, entry):
        self.pushed.append(entry)
        heapq.heappush(heap, entry)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_no_search_pushes_a_loop_back_the_source_beats(data):
    # The source is its tile's h state at cost 0 (state id 2 * tile
    # code), so a path back to it along x never relaxes that state.  A
    # v arrival there (id one above) is dominated unless it costs less
    # than the tile's line-end price, which is 0.0 without the
    # line-end term.  Only a pushed entry pops, so no other state at the
    # source tile is ever expanded.
    design = data.draw(designs(max_width=40, max_height=30))
    graph = loaded_graph(data, design)
    src, dst, window = data.draw(tile_searches(graph.nx, graph.ny))
    stitch_aware = data.draw(st.booleans())
    recorder = RecordingHeap()
    with mock.patch.object(global_graph, "heapq", recorder):
        graph.astar_in_window(src, dst, window, stitch_aware, {})
    source = 2 * (src[0] * graph.ny + src[1])
    price = graph._v_price[source // 2] if stitch_aware else 0.0
    for _f, g, state in recorder.pushed:
        if state // 2 == source // 2:
            assert state == source + 1 and g < price, (state, g, price)
