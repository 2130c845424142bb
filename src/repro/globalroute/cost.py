"""Global routing congestion costs, Eqs. (1)–(3).

The cost of edge ``e_i`` is ``2^(d_e(i)/c_e(i)) - 1`` and the cost of
vertex ``v_j`` is ``2^(d_v(j)/c_v(j)) - 1``; the global maze sums them
along a path, as Eq. (3) does.  Zero-capacity resources are priced as
if saturated plus the would-be demand, so the router avoids them
without needing special cases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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


def edge_price(demand: int, capacity: int, history: float) -> float:
    """ψ_e of Eq. (1) for one more wire on an edge, plus its history.

    One of the two scalar step prices (with :func:`line_end_price`):
    the graph's cost caches and :func:`edge_cost_if_used` both feed it
    the graph's demand, capacity and history lists.  Pricing the
    *next* unit of demand (rather than the current one) makes the
    first wire over capacity pay the marginal congestion it creates,
    which is what sequential routing needs.
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
    t = i * graph.ny + j
    if kind == "h":
        return edge_price(graph._h_dem[t], graph._h_cap[t], graph._h_hist[t])
    return edge_price(graph._v_dem[t], graph._v_cap[t], graph._v_hist[t])


def vertex_price(graph: GlobalGraph, tile: Tile) -> float:
    """:func:`line_end_price` of ``tile`` on the graph's state."""
    i, j = tile
    t = i * graph.ny + j
    return line_end_price(graph._t_dem[t], graph._t_cap[t], graph._t_hist[t])
