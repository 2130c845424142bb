"""The global graph's state and cost caches against the placed paths.

The search reads cost caches that the demand mutators and the history
bump keep fresh entry by entry.  The property drives a
:class:`GlobalGraph` through random placements, rip-ups and history
bumps and checks that every cache entry is a plain ``float``
bit-equal to :func:`~repro.globalroute.cost.edge_cost_if_used` or
:func:`~repro.globalroute.cost.vertex_price`, which price the graph's
state lists directly, and that the demand lists equal a recount from
the paths placed so far.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.config import RouterConfig
from repro.globalroute import GlobalGraph
from repro.globalroute.cost import WL_WEIGHT, edge_cost_if_used, vertex_price
from repro.layout import Design, Netlist, Technology
from tests.globalroute.test_router import two_pin

# An 8 x 5 tile grid with edge capacities around 5 and line-end
# capacities of 1 to 5, so a few stacked paths overflow.
TINY = Design(
    name="tiny",
    width=36,
    height=24,
    technology=Technology(2),
    netlist=Netlist([two_pin("a", (1, 1), (30, 20))]),
    config=RouterConfig(stitch_spacing=12, tile_size=5),
)
NX, NY = GlobalGraph.grid_shape(TINY)
STEPS = [(-1, 0), (1, 0), (0, -1), (0, 1)]


@st.composite
def tile_paths(draw):
    """A walk over adjacent tiles (it may double back on itself)."""
    i = draw(st.integers(0, NX - 1))
    j = draw(st.integers(0, NY - 1))
    path = [(i, j)]
    for di, dj in draw(st.lists(st.sampled_from(STEPS), max_size=10)):
        if 0 <= i + di < NX and 0 <= j + dj < NY:
            i, j = i + di, j + dj
            path.append((i, j))
    return path


operations = st.lists(
    st.one_of(
        st.tuples(st.just("place"), tile_paths(), st.integers(1, 4)),
        st.tuples(st.just("unplace"), st.integers(0, 99)),
        st.tuples(st.just("bump"), st.booleans()),
    ),
    max_size=20,
)


def recount(placed):
    """Edge and line-end demand of the placed paths, by tile code.

    Each step of a path puts one wire on the edge it crosses: the ``h``
    edge of its left tile for a step along x, the ``v`` edge of its
    lower tile for a step along y.  Each maximal vertical run (a
    longest stretch of consecutive steps along y) puts one line end on
    the tile where it starts and one on the tile where it ends, also
    where a walk doubles back on itself.
    """
    h = [0] * ((NX - 1) * NY)
    v = [0] * (NX * NY)
    ends = [0] * (NX * NY)
    for path in placed:
        run_start = None
        for (ia, ja), (ib, jb) in zip(path, path[1:]):
            if ia == ib:
                v[ia * NY + min(ja, jb)] += 1
                if run_start is None:
                    run_start = (ia, ja)
            else:
                h[min(ia, ib) * NY + ja] += 1
                if run_start is not None:
                    for i, j in (run_start, (ia, ja)):
                        ends[i * NY + j] += 1
                    run_start = None
        if run_start is not None:
            for i, j in (run_start, path[-1]):
                ends[i * NY + j] += 1
    return h, v, ends


def assert_state_exact(graph, placed):
    """The demand lists recount the placed paths, and every cache
    entry prices them."""
    assert (graph._h_dem, graph._v_dem, graph._t_dem) == recount(placed)
    assert_cache_exact(graph)


def assert_cache_exact(graph):
    """Every cache entry is a ``float`` bit-equal to the pricing of
    the state lists."""
    ny = graph.ny
    for i in range(graph.nx):
        for j in range(ny):
            t = i * ny + j
            expected = {"vertex": (graph._v_price[t], vertex_price(graph, (i, j)))}
            if i + 1 < graph.nx:
                expected["h"] = (
                    graph._h_cost[t],
                    WL_WEIGHT + edge_cost_if_used(graph, ("h", i, j)),
                )
            if j + 1 < ny:
                expected["v"] = (
                    graph._v_cost[t],
                    WL_WEIGHT + edge_cost_if_used(graph, ("v", i, j)),
                )
            for kind, (entry, reference) in expected.items():
                assert type(entry) is float, (kind, i, j, type(entry))
                assert entry.hex() == float(reference).hex(), (kind, i, j)


@given(operations, tile_paths())
def test_cache_entries_are_floats_equal_to_reference(ops, probe):
    graph = GlobalGraph(TINY)
    placed = []
    assert_state_exact(graph, placed)
    for op in ops:
        if op[0] == "place":
            _, path, copies = op
            for _ in range(copies):
                graph.apply_path(path, +1)
                placed.append(path)
        elif op[0] == "unplace":
            if not placed:
                continue
            graph.apply_path(placed.pop(op[1] % len(placed)), -1)
        else:
            graph.bump_history(line_ends=op[1])
        assert_state_exact(graph, placed)

    graph.apply_path(probe, +1)
    assert_state_exact(graph, placed + [probe])
