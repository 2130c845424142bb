"""Global routing congestion costs, Eqs. (1)–(3).

The cost of edge ``e_i`` is ``2^(d_e(i)/c_e(i)) - 1`` and the cost of
vertex ``v_j`` is ``2^(d_v(j)/c_v(j)) - 1``; a path costs the sum of
its edge and vertex costs.  Zero-capacity resources are priced as if
saturated plus the would-be demand, so the router avoids them without
needing special cases.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the graph imports this module for its step prices
    from .graph import GlobalGraph, Tile

#: Cost assigned per unit of demand on a zero-capacity resource.
_ZERO_CAPACITY_PENALTY = 64.0

#: Weight of one tile hop in the global A* cost; small so congestion
#: dominates but paths stay short when congestion is zero.
WL_WEIGHT = 0.1

#: Scale of the upfront vertex (line-end) congestion price.  Kept below
#: 1 so that first-pass paths do not detour pre-emptively; rip-up
#: history does the targeted spreading.
VERTEX_WEIGHT = 0.3

#: Step penalty for a line end that would *overflow* its tile.  The
#: smooth Eq. (2) price barely distinguishes a full tile from an
#: overflowing one (2^(d/c)-1 grows slowly near d=c), so negotiation
#: needs this hard gradient to converge on large instances.
VERTEX_OVERFLOW_PENALTY = 6.0


def congestion_cost(demand: float, capacity: float) -> float:
    """The exponential congestion cost ``2^(d/c) - 1``."""
    if demand <= 0:
        return 0.0
    if capacity <= 0:
        return _ZERO_CAPACITY_PENALTY * demand
    return 2.0 ** (demand / capacity) - 1.0


def edge_cost(graph: GlobalGraph, key: tuple[str, int, int]) -> float:
    """ψ_e of Eq. (1) for the current demand on edge ``key``."""
    return congestion_cost(graph.edge_demand(key), graph.edge_capacity(key))


def edge_price(demand: int, capacity: int, history: float) -> float:
    """ψ_e of Eq. (1) for one more wire on an edge, plus its history.

    One of the two scalar step prices (with :func:`line_end_price`):
    the graph's cost caches feed it their flat mirrors of the demand,
    capacity and history arrays, :func:`edge_cost_if_used` the arrays
    themselves.  Pricing the *next* unit of demand (rather than
    the current one) makes the first wire over capacity pay the
    marginal congestion it creates, which is what sequential routing
    needs.
    """
    return congestion_cost(demand + 1, capacity) + history


def line_end_price(demand: int, capacity: int, history: float) -> float:
    """Full A* step price of one more line end on a tile.

    The base Eq. (2) price of the next line end, kept mild by
    ``VERTEX_WEIGHT`` so uncongested paths stay short, plus the
    negotiated history term and the hard overflow step; the global
    router charges it where a vertical run starts or ends.
    """
    price = VERTEX_WEIGHT * congestion_cost(demand + 1, capacity) + history
    if demand + 1 > capacity:
        price += VERTEX_OVERFLOW_PENALTY
    return price


def edge_cost_if_used(graph: GlobalGraph, key: tuple[str, int, int]) -> float:
    """ψ_e after hypothetically adding one wire to edge ``key``, plus
    the edge's history cost (:func:`edge_price` on the graph's state)."""
    kind, i, j = key
    history = (
        graph.h_history[i, j] if kind == "h" else graph.v_history[i, j]
    )
    return edge_price(
        graph.edge_demand(key), graph.edge_capacity(key), float(history)
    )


def vertex_cost(graph: GlobalGraph, tile: Tile) -> float:
    """ψ_v of Eq. (2) for the current line-end demand on ``tile``."""
    i, j = tile
    return congestion_cost(
        float(graph.vertex_demand[i, j]), float(graph.vertex_capacity[i, j])
    )


def vertex_cost_if_used(graph: GlobalGraph, tile: Tile) -> float:
    """ψ_v after hypothetically adding one line end to ``tile``."""
    i, j = tile
    return congestion_cost(
        float(graph.vertex_demand[i, j]) + 1.0,
        float(graph.vertex_capacity[i, j]),
    )


def vertex_price(graph: GlobalGraph, tile: Tile) -> float:
    """:func:`line_end_price` of ``tile`` on the graph's state."""
    i, j = tile
    return line_end_price(
        int(graph.vertex_demand[i, j]),
        int(graph.vertex_capacity[i, j]),
        float(graph.vertex_history[i, j]),
    )


def congestion_cost_array(demand, capacity):
    """Vectorized :func:`congestion_cost` over demand/capacity arrays.

    Returns a float64 array with the same piecewise definition:
    ``0`` where demand is non-positive, the linear zero-capacity
    penalty where capacity is non-positive, and ``2^(d/c) - 1``
    elsewhere.  ``numpy.exp2`` may differ from the scalar kernel's
    CPython ``2.0 ** x`` in the last ulp, so this kernel serves bulk
    analysis (congestion maps, overflow summaries); the global graph's
    cost *caches* call the scalar step prices per entry precisely
    because the search must price every step bit-identically to
    :func:`edge_cost_if_used` / :func:`vertex_price` (see
    ``docs/performance.md``).
    """
    d = np.asarray(demand, dtype=np.float64)
    c = np.asarray(capacity, dtype=np.float64)
    d, c = np.broadcast_arrays(d, c)
    out = np.zeros(d.shape, dtype=np.float64)
    positive = d > 0
    zero_cap = positive & (c <= 0)
    out[zero_cap] = _ZERO_CAPACITY_PENALTY * d[zero_cap]
    smooth = positive & (c > 0)
    # Extreme demand/capacity ratios saturate to +inf (2^1024 overflows
    # float64); that is the intended reading for a congestion map, so
    # the overflow warning is noise.
    with np.errstate(over="ignore"):
        out[smooth] = np.exp2(d[smooth] / c[smooth]) - 1.0
    return out


def path_cost(
    graph: GlobalGraph,
    tiles: Sequence[Tile],
    include_vertex_cost: bool = True,
) -> float:
    """Ψ(P) of Eq. (3) for an already-routed tile path."""
    total = 0.0
    for a, b in zip(tiles, tiles[1:]):
        total += edge_cost(graph, graph.edge_between(a, b))
    if include_vertex_cost:
        for tile in tiles:
            total += vertex_cost(graph, tile)
    return total
