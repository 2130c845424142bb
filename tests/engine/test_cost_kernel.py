"""The congestion kernels and the array engine's cost caches.

:func:`repro.globalroute.cost.congestion_cost_array` powers bulk
analysis; the array engine's cost caches deliberately call the scalar
kernel instead (``numpy.exp2`` vs CPython ``2.0 ** x`` may differ in
the last ulp).  These properties pin down both facts: the piecewise
branches agree exactly, and the smooth branch agrees to float64
round-off.  The last property drives an :class:`ArrayGlobalGraph`
through random demand changes and history bumps and checks that every
cache entry is a plain ``float`` bit-equal to the reference pricing.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import RouterConfig
from repro.engine import ArrayGlobalGraph
from repro.globalroute import GlobalGraph, GlobalRouter
from repro.globalroute.cost import (
    _ZERO_CAPACITY_PENALTY,
    congestion_cost,
    congestion_cost_array,
    edge_cost_if_used,
    vertex_price,
)
from repro.globalroute.router import WL_WEIGHT
from repro.layout import Design, Netlist, Technology
from tests.globalroute.test_router import two_pin

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
demands = st.integers(min_value=-50, max_value=200)
capacities = st.integers(min_value=-5, max_value=100)


@given(st.lists(st.tuples(demands, capacities), min_size=1, max_size=32))
def test_matches_scalar_kernel_elementwise(pairs):
    d = np.array([p[0] for p in pairs], dtype=np.float64)
    c = np.array([p[1] for p in pairs], dtype=np.float64)
    out = congestion_cost_array(d, c)
    for k, (demand, capacity) in enumerate(pairs):
        expected = congestion_cost(demand, capacity)
        assert out[k] == pytest.approx(expected, rel=1e-12, abs=0.0) or (
            out[k] == expected
        )


@given(demands.filter(lambda d: d <= 0), capacities)
def test_nonpositive_demand_is_exactly_free(demand, capacity):
    assert congestion_cost_array(demand, capacity).item() == 0.0


@given(demands.filter(lambda d: d > 0), capacities.filter(lambda c: c <= 0))
def test_zero_capacity_branch_is_exactly_linear(demand, capacity):
    out = congestion_cost_array(demand, capacity).item()
    assert out == _ZERO_CAPACITY_PENALTY * demand


@given(finite, finite)
def test_scalar_inputs_broadcast_to_scalars(demand, capacity):
    out = congestion_cost_array(demand, capacity)
    assert out.shape == ()
    # Costs are non-negative; extreme demand/capacity ratios may
    # saturate to +inf (2^1024 overflows float64), never to NaN.
    assert out.item() >= 0.0 and not math.isnan(out.item())


def test_broadcasts_demand_row_against_capacity_column():
    d = np.arange(4, dtype=np.float64)
    c = np.array([[1.0], [2.0]])
    out = congestion_cost_array(d, c)
    assert out.shape == (2, 4)
    assert out[0, 0] == 0.0
    assert out[1, 2] == pytest.approx(congestion_cost(2.0, 2.0), rel=1e-12)


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


def assert_cache_exact(graph):
    """Every cache entry is a ``float`` bit-equal to the reference."""
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


#: The graph arrays routing mutates: demand on every placement, history
#: on every bump.
MUTABLE_STATE = (
    "h_demand",
    "v_demand",
    "vertex_demand",
    "h_history",
    "v_history",
    "vertex_history",
)


def assert_same_state(graph, reference):
    for key in MUTABLE_STATE:
        assert np.array_equal(getattr(graph, key), getattr(reference, key)), key


@given(operations, tile_paths())
def test_cache_entries_are_floats_equal_to_reference(ops, probe):
    graph = ArrayGlobalGraph(TINY)
    reference = GlobalGraph(TINY)
    routers = {flag: GlobalRouter(stitch_aware=flag) for flag in (True, False)}
    router = routers[True]
    placed = []
    assert_cache_exact(graph)
    for op in ops:
        if op[0] == "place":
            _, path, copies = op
            for _ in range(copies):
                for g in (graph, reference):
                    router._place_path(g, path)
                placed.append(path)
        elif op[0] == "unplace":
            if not placed:
                continue
            path = placed.pop(op[1] % len(placed))
            for g in (graph, reference):
                router._unplace_path(g, path)
        else:
            for g in (graph, reference):
                routers[op[1]]._bump_history(g)
        assert_cache_exact(graph)
        assert_same_state(graph, reference)

    # A snapshot carries the mirrors: the next placement on it prices
    # from the current state, and a snapshot's placement leaves the
    # live graph's mirrors alone.
    snapshot = graph.snapshot()
    router._place_path(snapshot, probe)
    assert_cache_exact(snapshot)
    for g in (graph, reference):
        router._place_path(g, probe)
    assert_cache_exact(graph)
    assert_same_state(graph, reference)
