"""Reference kernels the production searches must match step for step.

Two searches, written for clarity straight from the paper's cost
model, kept only as the oracle of the differential suite (this module
is not collected as a test, and no ``src`` module imports it):

* :func:`astar_connect` — the detailed A* over ``(x, y, layer)`` tuple
  nodes.  :func:`neighbors` prices every move with Eq. (10) from the
  design's :class:`~repro.config.RouterConfig` (``alpha``, ``beta``,
  ``gamma``) and its stitching lines (``design.stitches``), never from
  the grid's step tables; only ownership is read from the grid.
* :func:`astar_in_window` — the direction-aware global maze over
  ``((i, j), direction)`` tuple states, pricing every step with
  :func:`~repro.globalroute.cost.edge_cost_if_used` and
  :func:`~repro.globalroute.cost.vertex_price` on the graph's state
  lists, never from its cost caches.  It saves work by the production
  maze's rules, written out on tuple states: the source is its tile's
  ``h`` state, dominated states are left out (:func:`_dominated`), and
  no entry is pushed above the cheapest target entry.  ``plain=True``
  runs the textbook search, whose path the rules must not change.

Both keep the production searches' observable contract: the same
successor order, tie-breaking, relaxation slack and counters (heap
pushes counted explicitly here).  :func:`astar_connect` has the
signature of :func:`repro.detailed.search.astar_connect` and
:func:`astar_in_window` that of ``GlobalRouter._astar_in_window``, so
a test can monkeypatch either into a full run.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Optional

from repro.detailed.grid import DetailedGrid, Node
from repro.detailed.search import Ends
from repro.globalroute.cost import WL_WEIGHT, edge_cost_if_used, vertex_price
from repro.globalroute.graph import GlobalGraph, Tile
from repro.globalroute.router import GlobalRouter


# ----------------------------------------------------------------------
# Detailed A* (Section III-D, Eq. (10))
# ----------------------------------------------------------------------
def neighbors(
    grid: DetailedGrid,
    node: Node,
    net: str,
    foreign_penalty: Optional[float] = None,
) -> list[tuple[Node, float]]:
    """Legal successor nodes of ``node`` with their Eq. (10) step costs.

    Planar moves follow the layer's preferred direction; z moves hop
    one layer and are never allowed on a stitching line (via
    constraint).  Entering a node costs ``alpha``, plus ``gamma`` on a
    vertical layer in an escape region; a z move inside a stitch
    unfriendly region adds ``beta`` (both only when the grid is
    stitch-aware).  When ``foreign_penalty`` is given, other nets'
    non-pin nodes become passable at that extra cost.  Adds the number
    of successors to ``grid.cost_evaluations``.
    """
    x, y, layer = node
    config = grid.design.config
    stitches = grid.design.stitches
    if grid.design.technology.is_vertical(layer):
        planar = ((x, y - 1, layer), (x, y + 1, layer))
    else:
        planar = ((x - 1, y, layer), (x + 1, y, layer))
    out: list[tuple[Node, float]] = []
    for succ in planar:
        passable, extra = _passable(grid, succ, net, foreign_penalty)
        if passable:
            out.append((succ, config.alpha + _node_cost(grid, succ) + extra))
    for succ in ((x, y, layer - 1), (x, y, layer + 1)):
        passable, extra = _passable(grid, succ, net, foreign_penalty)
        if not passable or stitches.is_on_line(x):
            continue
        cost = config.alpha + _node_cost(grid, succ) + extra
        if grid.stitch_aware and stitches.in_unfriendly_region(x):
            cost += config.beta
        out.append((succ, cost))
    grid.cost_evaluations += len(out)
    return out


def _passable(
    grid: DetailedGrid, node: Node, net: str, foreign_penalty: Optional[float]
) -> tuple[bool, float]:
    """Whether ``net`` may enter ``node``, and the extra cost of doing so."""
    x, y, layer = node
    design = grid.design
    if not (0 <= x < design.width and 0 <= y < design.height):
        return False, 0.0
    if not 1 <= layer <= design.technology.num_layers:
        return False, 0.0
    if design.technology.is_vertical(layer) and design.stitches.is_on_line(x):
        return False, 0.0  # vertical routing constraint
    owner = grid.owner(node)
    if owner is None or owner == net:
        return True, 0.0
    if foreign_penalty is not None and not grid.is_pin(node):
        return True, foreign_penalty
    return False, 0.0


def _node_cost(grid: DetailedGrid, node: Node) -> float:
    """Escape-region cost of entering ``node`` (the gamma term)."""
    if not grid.stitch_aware:
        return 0.0
    x, _y, layer = node
    design = grid.design
    if design.technology.is_vertical(layer) and design.stitches.in_escape_region(x):
        return design.config.gamma
    return 0.0


def astar_connect(
    grid: DetailedGrid,
    net: str,
    sources: Ends,
    targets: Ends,
    window: tuple[int, int, int, int],
    expansion_limit: int,
    blocked: Optional[frozenset[int]] = None,
    foreign_penalty: Optional[float] = None,
    stats: Optional[dict[str, float]] = None,
    profile: bool = False,
) -> Optional[list[Node]]:
    """Cheapest path from any source to any target inside ``window``
    (the contract of :func:`repro.detailed.search.astar_connect`).

    The prepared ends and the blocked ids are decoded to node tuples
    first; the search itself reads neither their ids nor their boxes.
    """
    if stats is not None:
        stats["astar_searches"] = stats.get("astar_searches", 0) + 1
    decode = grid._decode
    source_nodes = {decode(i) for i in sources[0]}
    target_nodes = {decode(i) for i in targets[0]}
    blocked_nodes = None if blocked is None else {decode(i) for i in blocked}
    if not source_nodes or not target_nodes:
        return None
    if source_nodes & target_nodes:
        return [min(source_nodes & target_nodes)]
    lo_x, lo_y, hi_x, hi_y = window

    # Distance to the targets' bounding box, weighted slightly above
    # admissible (bounded-suboptimal A*).
    t_lo_x = min(t[0] for t in target_nodes)
    t_hi_x = max(t[0] for t in target_nodes)
    t_lo_y = min(t[1] for t in target_nodes)
    t_hi_y = max(t[1] for t in target_nodes)
    weight = 1.3 * grid.design.config.alpha

    def heuristic(node: Node) -> float:
        x, y, _ = node
        dx = (t_lo_x - x) if x < t_lo_x else (x - t_hi_x) if x > t_hi_x else 0
        dy = (t_lo_y - y) if y < t_lo_y else (y - t_hi_y) if y > t_hi_y else 0
        return weight * (dx + dy)

    best_g: dict[Node, float] = {s: 0.0 for s in source_nodes}
    parent: dict[Node, Node] = {}
    heap = [(heuristic(s), 0.0, s) for s in source_nodes]
    heapq.heapify(heap)
    expansions = 0
    pushes = len(heap)
    pops = 0
    try:
        while heap:
            _, g, node = heapq.heappop(heap)
            pops += 1
            if g > best_g.get(node, float("inf")):
                continue
            if node in target_nodes:
                path = [node]
                while path[-1] not in source_nodes:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            expansions += 1
            if expansions > expansion_limit:
                return None
            for succ, step in neighbors(grid, node, net, foreign_penalty):
                if not (lo_x <= succ[0] <= hi_x and lo_y <= succ[1] <= hi_y):
                    continue
                if blocked_nodes is not None and succ in blocked_nodes:
                    continue
                candidate = g + step
                if candidate < best_g.get(succ, float("inf")) - 1e-12:
                    best_g[succ] = candidate
                    parent[succ] = node
                    pushes += 1
                    heapq.heappush(
                        heap, (candidate + heuristic(succ), candidate, succ)
                    )
        return None
    finally:
        if stats is not None:
            stats["astar_expansions"] = (
                stats.get("astar_expansions", 0) + expansions
            )
            if profile:
                stats["perf_heap_pushes"] = (
                    stats.get("perf_heap_pushes", 0) + pushes
                )
                stats["perf_heap_pops"] = stats.get("perf_heap_pops", 0) + pops


# ----------------------------------------------------------------------
# Global maze (Section III-A, Eqs. (1)-(3))
# ----------------------------------------------------------------------
def astar_in_window(
    router: GlobalRouter,
    graph: GlobalGraph,
    src: Tile,
    dst: Tile,
    window: tuple[int, int, int, int],
    stats: dict[str, float],
    plain: bool = False,
) -> Optional[list[Tile]]:
    """Direction-aware A* between two tiles (the contract of
    ``GlobalRouter._astar_in_window``).

    Search states carry the arrival direction so the line-end price of
    Eq. (2) is charged exactly where a vertical run starts, where it
    ends, and where it will terminate at ``dst``.

    The search follows the production maze's three rules, none of
    which may move its path:

    * The source prices its moves like an ``h`` arrival, so it starts
      as ``(src, "h")`` at cost 0, and a path back to it along x never
      relaxes that state.
    * A ``(tile, "v")`` state pays the tile's line-end price on its
      next move along x and a ``(tile, "h")`` state on its next move
      along y, so each loses to a sibling whose best cost is lower by
      at least that price (see :func:`_dominated`).  A dominated
      successor keeps its best cost and parent but is not pushed, and
      a popped state that has become dominated is not expanded.
    * No entry is pushed whose ``f`` exceeds the smallest ``f`` of a
      ``dst`` entry pushed so far; it too keeps its best cost and
      parent.

    With ``plain`` it is the textbook search instead: the source is a
    state of its own, ``(src, "")``, and every relaxed state is pushed.
    """
    lo_x, lo_y, hi_x, hi_y = window
    if src == dst:
        return [src]

    def heuristic(t: Tile) -> float:
        return WL_WEIGHT * (abs(t[0] - dst[0]) + abs(t[1] - dst[1]))

    def line_end(t: Tile) -> float:
        return vertex_price(graph, t) if router.stitch_aware else 0.0

    # State: (tile, direction); direction is "h" or "v", and "" at the
    # source of the plain search.
    inf = float("inf")
    start = (src, "" if plain else "h")
    best: dict[tuple[Tile, str], float] = {start: 0.0}
    parent: dict[tuple[Tile, str], tuple[Tile, str]] = {}
    heap = [(heuristic(src), 0.0, start)]
    bound = inf  # the smallest f of a dst entry pushed so far
    goal: Optional[tuple[Tile, str]] = None
    expansions = 0
    pushes = 1
    pops = 0
    while heap:
        _, g, state = heapq.heappop(heap)
        pops += 1
        if g > best.get(state, inf):
            continue
        if not plain and _dominated(state, g, best, line_end):
            continue
        expansions += 1
        tile, direction = state
        if tile == dst:
            goal = state
            break
        for succ in graph.neighbors(tile):
            if not (lo_x <= succ[0] <= hi_x and lo_y <= succ[1] <= hi_y):
                continue
            step_dir = "v" if succ[0] == tile[0] else "h"
            step = WL_WEIGHT + edge_cost_if_used(graph, graph.edge_between(tile, succ))
            if router.stitch_aware:
                if step_dir == "v" and direction != "v":
                    # A vertical run starts: line end at this tile.
                    step += vertex_price(graph, tile)
                if direction == "v" and step_dir != "v":
                    # A vertical run just ended at this tile.
                    step += vertex_price(graph, tile)
                if step_dir == "v" and succ == dst:
                    # The run will terminate at the target tile.
                    step += vertex_price(graph, succ)
            candidate = g + step
            succ_state = (succ, step_dir)
            if candidate < best.get(succ_state, inf) - 1e-12:
                best[succ_state] = candidate
                parent[succ_state] = state
                f = candidate + heuristic(succ)
                if not plain and (
                    _dominated(succ_state, candidate, best, line_end) or f > bound
                ):
                    continue
                pushes += 1
                heapq.heappush(heap, (f, candidate, succ_state))
                if succ == dst:
                    bound = min(bound, f)
    stats["maze_expansions"] = stats.get("maze_expansions", 0) + expansions
    if router.profile != "off":
        stats["perf_maze_heap_pushes"] = (
            stats.get("perf_maze_heap_pushes", 0) + pushes
        )
        stats["perf_maze_heap_pops"] = (
            stats.get("perf_maze_heap_pops", 0) + pops
        )
    if goal is None:
        return None
    states = [goal]
    while states[-1] != start:
        states.append(parent[states[-1]])
    states.reverse()
    return [tile for tile, _ in states]


def _dominated(
    state: tuple[Tile, str],
    cost: float,
    best: dict[tuple[Tile, str], float],
    line_end: Callable[[Tile], float],
) -> bool:
    """Whether ``state`` at ``cost`` loses every move to its sibling.

    A ``v`` state pays the tile's line-end price ``p`` on a move along
    x where an ``h`` state pays nothing, and the ``h`` state pays ``p``
    on a move along y where the ``v`` state pays nothing.  So the ``v``
    state is dominated when the best cost of the ``h`` state plus ``p``
    is at most its cost, and the ``h`` state when the ``v`` state's
    best cost plus ``p`` is below its cost; the source, the ``h`` state
    of its tile at cost 0, never is.
    """
    tile, direction = state
    sibling = (tile, "h" if direction == "v" else "v")
    rival = best.get(sibling, float("inf")) + line_end(tile)
    return rival <= cost if direction == "v" else rival < cost
