"""A*-search detailed path finding (Section III-D).

Connects a source component of a net to any node of a target set under
the stitch-aware weighted grid cost of Eq. (10).  The search runs
inside an expanding window around the endpoints; the cost function and
hard-constraint filtering live in :class:`~repro.detailed.grid.DetailedGrid`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from typing import Optional

from ..analysis.pairing import paired
from .grid import DetailedGrid, Node


@paired("detailed-astar", backend="object")
def astar_connect(
    grid: DetailedGrid,
    net: str,
    sources: set[Node],
    targets: set[Node],
    window: tuple[int, int, int, int],
    expansion_limit: int,
    blocked: Optional[set[Node]] = None,
    foreign_penalty: Optional[float] = None,
    stats: Optional[dict[str, float]] = None,
    profile: bool = False,
) -> Optional[list[Node]]:
    """Cheapest path from any source to any target inside ``window``.

    Args:
        grid: the routing grid (cost model + occupancy).
        net: the net being routed (its own nodes are passable).
        sources: starting nodes (cost 0).
        targets: success condition — reaching any one ends the search.
        window: inclusive (lo_x, lo_y, hi_x, hi_y) search bounds.
        expansion_limit: node-expansion budget.
        blocked: extra nodes this search must not enter (used by the
            short-polygon repair pass to forbid a line crossing).
        foreign_penalty: when set, other nets' non-pin wire becomes
            passable at this extra cost per node (negotiated rip-up).
        stats: mutable counter dict; ``astar_searches`` and
            ``astar_expansions`` are accumulated into it.
        profile: additionally flush ``perf_heap_pushes`` /
            ``perf_heap_pops`` into ``stats``.  The counts are kept as
            plain local increments either way, so the flag costs one
            branch per *search*, not per node — ``profile="off"`` runs
            stay byte- and wall-identical.

    Returns:
        The node path from a source to a target, or ``None``.
    """
    if stats is not None:
        stats["astar_searches"] = (  # repro: allow-PAR001 object-only entry counter
            stats.get("astar_searches", 0) + 1
        )
    if not sources or not targets:
        return None
    if sources & targets:
        # Any shared node is already a complete source-to-target path;
        # nodes are int-coordinate tuples, so the set order behind this
        # pick is hash-seed independent and reproducible as committed.
        node = next(iter(sources & targets))  # repro: allow-DET005
        return [node]
    indexed = getattr(grid, "indexed_search", None)
    if indexed is not None:
        # Array-core fast path (repro.engine): same loop over flat
        # node ids, byte-identical result and counters.
        return indexed(
            net,
            sources,
            targets,
            window,
            expansion_limit,
            blocked=blocked,
            foreign_penalty=foreign_penalty,
            stats=stats,
            profile=profile,
        )
    lo_x, lo_y, hi_x, hi_y = window

    # O(1) heuristic: distance to the targets' bounding box, weighted
    # slightly above admissible (bounded-suboptimal A*, standard in
    # detailed routers: large speedup for a <=30% path-cost bound).
    t_lo_x = min(t[0] for t in targets)
    t_hi_x = max(t[0] for t in targets)
    t_lo_y = min(t[1] for t in targets)
    t_hi_y = max(t[1] for t in targets)
    weight = 1.3 * grid.config.alpha

    def heuristic(node: Node) -> float:
        x, y, _ = node
        dx = (t_lo_x - x) if x < t_lo_x else (x - t_hi_x) if x > t_hi_x else 0
        dy = (t_lo_y - y) if y < t_lo_y else (y - t_hi_y) if y > t_hi_y else 0
        return weight * (dx + dy)

    # Seeding order over the source set is immaterial: best_g is a pure
    # mapping, and heap entries are totally ordered by (f, g, node), so
    # pop order never depends on insertion order.
    best_g: dict[Node, float] = {
        s: 0.0 for s in sources  # repro: allow-DET001
    }
    parent: dict[Node, Node] = {}
    heap: list[tuple[float, float, Node]] = [
        (heuristic(s), 0.0, s) for s in sources  # repro: allow-DET001
    ]
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
            if node in targets:
                return _reconstruct(parent, sources, node)
            expansions += 1
            if expansions > expansion_limit:
                return None
            for succ, step in grid.neighbors(node, net, foreign_penalty):
                if not (lo_x <= succ[0] <= hi_x and lo_y <= succ[1] <= hi_y):
                    continue
                if blocked is not None and succ in blocked:
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
        # Hot loop: count locally, flush once per search.
        if stats is not None:
            stats["astar_expansions"] = (
                stats.get("astar_expansions", 0) + expansions
            )
            if profile:
                stats["perf_heap_pushes"] = (
                    stats.get("perf_heap_pushes", 0) + pushes
                )
                stats["perf_heap_pops"] = stats.get("perf_heap_pops", 0) + pops


def _reconstruct(
    parent: dict[Node, Node], sources: set[Node], end: Node
) -> list[Node]:
    path = [end]
    while path[-1] not in sources:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def connection_window(
    sources: Iterable[Node],
    targets: Iterable[Node],
    margin: int,
    width: int,
    height: int,
) -> tuple[int, int, int, int]:
    """Bounding window of two node sets, expanded by ``margin``."""
    xs = [n[0] for n in sources] + [n[0] for n in targets]
    ys = [n[1] for n in sources] + [n[1] for n in targets]
    return (
        max(0, min(xs) - margin),
        max(0, min(ys) - margin),
        min(width - 1, max(xs) + margin),
        min(height - 1, max(ys) + margin),
    )
