"""A*-search detailed path finding (Section III-D).

Connects a source component of a net to any node of a target set under
the stitch-aware weighted grid cost of Eq. (10).  The search runs
inside an expanding window around the endpoints, over the flat node
ids and step tables of :class:`~repro.detailed.grid.DetailedGrid`.
Each side of a connection is prepared once, as :data:`Ends` (its node
ids and bounding box), and every window, search and proof of the
connection reuses it.  :func:`separated` proves a connection
impossible in a window, so the router can skip the wider retries of a
search that already failed.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from typing import Optional

from .grid import OWNED_STEP, DetailedGrid, Node

_INF = float("inf")


#: One side of a connection, prepared once for all its searches:
#: ``(ids, lo_x, lo_y, hi_x, hi_y)``, the flat node ids of the side's
#: nodes and the inclusive bounding box of their coordinates.  Ends of
#: no nodes have no ids and an empty box, ``lo`` above ``hi``, which
#: :func:`connection_window` ignores.  A plain tuple: defining it
#: costs the import nothing, where a ``NamedTuple`` class took about
#: 0.4 ms of every process's start-up.
Ends = tuple[frozenset[int], int, int, int, int]


def search_ends(grid: DetailedGrid, nodes: Iterable[Node]) -> Ends:
    """The :data:`Ends` of ``nodes`` on ``grid``, built in one pass.

    Every node must lie on the grid.
    """
    height = grid._height
    layers_n = grid._num_layers
    ids: list[int] = []
    add = ids.append
    lo_x, lo_y, hi_x, hi_y = grid._width, height, -1, -1
    for x, y, layer in nodes:
        add((x * height + y) * layers_n + layer - 1)
        if x < lo_x:
            lo_x = x
        if x > hi_x:
            hi_x = x
        if y < lo_y:
            lo_y = y
        if y > hi_y:
            hi_y = y
    return frozenset(ids), lo_x, lo_y, hi_x, hi_y


def _passable(
    grid: DetailedGrid, ci: int, net_id: int, fp: Optional[float]
) -> bool:
    """Whether :func:`astar_connect` counts node ``ci`` as a candidate.

    The successor blocks' passability test, for a neighbour that lies
    outside the window, where the search counts it but goes no
    further.
    """
    sc = grid._free_step[ci]
    if sc < 0.0 and sc == OWNED_STEP:
        if grid._owner_ids[ci] == net_id:
            sc = grid._step[ci]
        elif fp is not None and not grid._pin_mask[ci]:
            sc = grid._step[ci]
            if sc >= 0.0:
                sc = sc + fp
    return sc >= 0.0


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
    """Cheapest path from any source to any target inside ``window``.

    Args:
        grid: the routing grid (cost model + occupancy).
        net: the net being routed (its own nodes are passable).
        sources: starting nodes (cost 0), prepared by
            :func:`search_ends` on ``grid``.
        targets: success condition — reaching any one ends the search;
            prepared the same way.
        window: inclusive (lo_x, lo_y, hi_x, hi_y) search bounds.  It
            must lie inside the grid and hold every source, as
            :func:`connection_window` guarantees for every router call.
        expansion_limit: node-expansion budget.
        blocked: ids of extra nodes this search must not enter (used by
            the short-polygon repair pass to forbid a line crossing).
        foreign_penalty: when set, other nets' non-pin wire becomes
            passable at this extra cost per node (negotiated rip-up).
            Foreign *pin* nodes stay hard obstacles.
        stats: mutable counter dict; ``astar_searches`` and
            ``astar_expansions`` are accumulated into it.
        profile: additionally flush ``perf_heap_pushes`` /
            ``perf_heap_pops`` into ``stats``.  The counts are kept as
            plain local increments either way, so the flag costs one
            branch per *search*, not per node — ``profile="off"`` runs
            stay byte- and wall-identical.

    Returns:
        The node path from a source to a target, or ``None``.  When the
        two sides share nodes, the path is the shared node of smallest
        id alone.

    The heuristic is the distance to the targets' bounding box weighted
    slightly above admissible, ``1.3 * alpha`` (bounded-suboptimal A*,
    standard in detailed routers: a large speedup for a <=30% path-cost
    bound).  Successors come in a fixed order — planar minus, planar
    plus, via down, via up — with planar moves in the layer's preferred
    direction only and no via on a stitching line (via constraint).
    The via violations Problem 1 permits on fixed pins are the implicit
    cell contacts *below* layer 1, which the evaluator counts per
    routed on-line pin; they involve no grid move here.  An owned node
    is passable to its own net at its step cost, and to another net
    under ``foreign_penalty`` at step cost plus penalty when it is not
    a pin; either way only where its step cost is non-negative,
    because :meth:`~repro.detailed.grid.DetailedGrid.claim` may own a
    structurally blocked node.

    Every popped node lies inside the window (the sources do, and only
    window nodes are pushed), so each planar move tests only the one
    window bound it moves toward, and vias test none.
    ``grid.cost_evaluations`` counts every passable candidate on the
    grid, also one beyond the window edge (a small branch counts it
    without entering it) and one in ``blocked``; the expansion counter
    increments after the target test, and relaxation keeps a ``1e-12``
    slack.  ``tests/engine/reference.py`` holds a tuple-node A* this
    search must match step for step: same path, same counters.

    ``profile=True`` counts only pops in the loop (one add per pop,
    unconditionally, so both modes run the same instructions); pushes
    are derived at flush time from the heap invariant
    ``pushes == pops + len(heap)``.

    Best costs live in the grid's ``_best_g`` list, by node id, and
    every entry the search writes reads ``inf`` again when it returns
    or raises; the grid therefore serves one search at a time.

    :func:`separated` mirrors this search's moves and passability to
    prove a connection impossible without searching; a change to
    either here must change it there too.
    """
    if stats is not None:
        stats["astar_searches"] = stats.get("astar_searches", 0) + 1
    src = sources[0]
    tgt, t_lo_x, t_lo_y, t_hi_x, t_hi_y = targets
    if not src or not tgt:
        return None
    if not src.isdisjoint(tgt):
        # Any shared node is already a complete source-to-target path.
        # The router merges every component that meets the sources
        # whichever node is picked; the smallest id keeps the pick
        # independent of set order.
        return [grid._decode(min(src & tgt))]
    lo_x, lo_y, hi_x, hi_y = window
    weight = 1.3 * grid.config.alpha

    width = grid._width
    height = grid._height
    layers_n = grid._num_layers
    hl = grid._hl

    step = grid._step
    free_step = grid._free_step
    via_extra = grid._via_extra
    on_line = grid._on_line
    vertical = grid._vertical
    owner_ids = grid._owner_ids
    pins = grid._pin_mask
    net_id = grid._net_id(net)
    fp = foreign_penalty

    # best_g is the grid's reused best-cost list, inf everywhere
    # between searches.  This search writes only its seeds (the source
    # ids, and the blocked ids listed in ``seeded``) and the nodes it
    # relaxes (the ``parent`` keys), and the ``finally`` below writes
    # inf back to exactly those.
    #
    # Seeding order over the source ids is immaterial: each seed sets
    # its own entry of best_g and heap entries are totally ordered by
    # (f, g, id), so pop order never depends on insertion order.
    #
    # Heap entries carry the node's clipped heuristic deltas as a
    # fourth and fifth element so the pop side reuses them instead
    # of recomputing eight comparisons per expansion.  They are a
    # pure function of the node id (given the fixed target bbox),
    # so two entries that tie on ``(f, g, id)`` carry equal deltas
    # and the heap order stays exactly the 3-tuple order.
    best_g = grid._best_g
    seeded: list[int] = []
    heap: list[tuple[float, float, int, int, int]] = []
    parent: dict[int, int] = {}
    heappop = heapq.heappop
    heappush = heapq.heappush
    expansions = 0
    evals = 0
    pops = 0
    try:
        for si in src:
            x = si // hl
            y = (si - x * hl) // layers_n
            dx = (t_lo_x - x) if x < t_lo_x else (x - t_hi_x) if x > t_hi_x else 0
            dy = (t_lo_y - y) if y < t_lo_y else (y - t_hi_y) if y > t_hi_y else 0
            best_g[si] = 0.0
            heap.append((weight * (dx + dy), 0.0, si, dx, dy))
        heapq.heapify(heap)

        # A blocked node is seeded with a best cost of -inf.  No
        # candidate cost is below it, so the node is counted as a
        # candidate but never relaxed or pushed.  A blocked source
        # keeps its 0 seed: with non-negative step costs nothing
        # relaxes it below 0 either (RouterConfig rejects negative
        # weights; the router's foreign penalty is 30.0).
        if blocked is not None:
            for bi in blocked:
                if bi not in src:
                    best_g[bi] = -_INF
                    seeded.append(bi)

        # Candidates read the ownership-folded step list first.  A free
        # node yields its step cost there, and the ``sc < 0.0`` test
        # comes first, so it never loads the OWNED_STEP global; only an
        # owned node reads the owner id array.  An owned node is
        # passable at its step cost for this net, and at step cost plus
        # ``foreign_penalty`` when another net owns it and it is not a
        # pin.  The step cost is tested before the penalty is added,
        # because ``claim`` may own a structurally blocked node.
        # Every other negative entry is skipped.  Costs associate as
        # step, then penalty, then the via's ``beta`` surcharge, the
        # order the reference oracle uses.
        #
        # Each planar move tests the one window bound it moves toward.
        # A node on that window edge still counts a passable neighbour
        # beyond it, which the ``elif`` branch does through
        # ``_passable``, unless the edge is the grid's.
        while heap:
            _f, g, si, hdx, hdy = heappop(heap)
            pops += 1
            if g > best_g[si]:
                continue
            if si in tgt:
                rev = [si]
                while rev[-1] not in src:
                    rev.append(parent[rev[-1]])
                rev.reverse()
                decode = grid._decode
                return [decode(i) for i in rev]
            expansions += 1
            if expansions > expansion_limit:
                return None
            x = si // hl
            rem = si - x * hl
            y = rem // layers_n
            lm = rem - y * layers_n

            # --- planar moves (preferred direction only) -------------
            if vertical[lm + 1]:
                if y > lo_y:
                    ci = si - layers_n
                    sc = free_step[ci]
                    if sc < 0.0 and sc == OWNED_STEP:
                        if owner_ids[ci] == net_id:
                            sc = step[ci]
                        elif fp is not None and not pins[ci]:
                            sc = step[ci]
                            if sc >= 0.0:
                                sc = sc + fp
                    if sc >= 0.0:
                        evals += 1
                        candidate = g + sc
                        if candidate < best_g[ci] - 1e-12:
                            best_g[ci] = candidate
                            parent[ci] = si
                            ny_ = y - 1
                            dy = (
                                (t_lo_y - ny_)
                                if ny_ < t_lo_y
                                else (ny_ - t_hi_y) if ny_ > t_hi_y else 0
                            )
                            heappush(
                                heap,
                                (
                                    candidate + weight * (hdx + dy),
                                    candidate,
                                    ci,
                                    hdx,
                                    dy,
                                ),
                            )
                elif y > 0 and _passable(grid, si - layers_n, net_id, fp):
                    evals += 1
                if y < hi_y:
                    ci = si + layers_n
                    sc = free_step[ci]
                    if sc < 0.0 and sc == OWNED_STEP:
                        if owner_ids[ci] == net_id:
                            sc = step[ci]
                        elif fp is not None and not pins[ci]:
                            sc = step[ci]
                            if sc >= 0.0:
                                sc = sc + fp
                    if sc >= 0.0:
                        evals += 1
                        candidate = g + sc
                        if candidate < best_g[ci] - 1e-12:
                            best_g[ci] = candidate
                            parent[ci] = si
                            ny_ = y + 1
                            dy = (
                                (t_lo_y - ny_)
                                if ny_ < t_lo_y
                                else (ny_ - t_hi_y) if ny_ > t_hi_y else 0
                            )
                            heappush(
                                heap,
                                (
                                    candidate + weight * (hdx + dy),
                                    candidate,
                                    ci,
                                    hdx,
                                    dy,
                                ),
                            )
                elif y + 1 < height and _passable(
                    grid, si + layers_n, net_id, fp
                ):
                    evals += 1
            else:
                if x > lo_x:
                    ci = si - hl
                    sc = free_step[ci]
                    if sc < 0.0 and sc == OWNED_STEP:
                        if owner_ids[ci] == net_id:
                            sc = step[ci]
                        elif fp is not None and not pins[ci]:
                            sc = step[ci]
                            if sc >= 0.0:
                                sc = sc + fp
                    if sc >= 0.0:
                        evals += 1
                        candidate = g + sc
                        if candidate < best_g[ci] - 1e-12:
                            best_g[ci] = candidate
                            parent[ci] = si
                            nx_ = x - 1
                            dx = (
                                (t_lo_x - nx_)
                                if nx_ < t_lo_x
                                else (nx_ - t_hi_x) if nx_ > t_hi_x else 0
                            )
                            heappush(
                                heap,
                                (
                                    candidate + weight * (dx + hdy),
                                    candidate,
                                    ci,
                                    dx,
                                    hdy,
                                ),
                            )
                elif x > 0 and _passable(grid, si - hl, net_id, fp):
                    evals += 1
                if x < hi_x:
                    ci = si + hl
                    sc = free_step[ci]
                    if sc < 0.0 and sc == OWNED_STEP:
                        if owner_ids[ci] == net_id:
                            sc = step[ci]
                        elif fp is not None and not pins[ci]:
                            sc = step[ci]
                            if sc >= 0.0:
                                sc = sc + fp
                    if sc >= 0.0:
                        evals += 1
                        candidate = g + sc
                        if candidate < best_g[ci] - 1e-12:
                            best_g[ci] = candidate
                            parent[ci] = si
                            nx_ = x + 1
                            dx = (
                                (t_lo_x - nx_)
                                if nx_ < t_lo_x
                                else (nx_ - t_hi_x) if nx_ > t_hi_x else 0
                            )
                            heappush(
                                heap,
                                (
                                    candidate + weight * (dx + hdy),
                                    candidate,
                                    ci,
                                    dx,
                                    hdy,
                                ),
                            )
                elif x + 1 < width and _passable(grid, si + hl, net_id, fp):
                    evals += 1

            # --- z moves (vias; none on a stitching line) ------------
            if not on_line[x]:
                if lm > 0:
                    ci = si - 1
                    sc = free_step[ci]
                    if sc < 0.0 and sc == OWNED_STEP:
                        if owner_ids[ci] == net_id:
                            sc = step[ci]
                        elif fp is not None and not pins[ci]:
                            sc = step[ci]
                            if sc >= 0.0:
                                sc = sc + fp
                    if sc >= 0.0:
                        evals += 1
                        sc = sc + via_extra[x]
                        candidate = g + sc
                        if candidate < best_g[ci] - 1e-12:
                            best_g[ci] = candidate
                            parent[ci] = si
                            heappush(
                                heap,
                                (
                                    candidate + weight * (hdx + hdy),
                                    candidate,
                                    ci,
                                    hdx,
                                    hdy,
                                ),
                            )
                if lm + 1 < layers_n:
                    ci = si + 1
                    sc = free_step[ci]
                    if sc < 0.0 and sc == OWNED_STEP:
                        if owner_ids[ci] == net_id:
                            sc = step[ci]
                        elif fp is not None and not pins[ci]:
                            sc = step[ci]
                            if sc >= 0.0:
                                sc = sc + fp
                    if sc >= 0.0:
                        evals += 1
                        sc = sc + via_extra[x]
                        candidate = g + sc
                        if candidate < best_g[ci] - 1e-12:
                            best_g[ci] = candidate
                            parent[ci] = si
                            heappush(
                                heap,
                                (
                                    candidate + weight * (hdx + hdy),
                                    candidate,
                                    ci,
                                    hdx,
                                    hdy,
                                ),
                            )
        return None
    finally:
        # Each store writes inf, so the order of the resets is
        # immaterial.
        for i in src:
            best_g[i] = _INF
        for i in seeded:
            best_g[i] = _INF
        for i in parent:
            best_g[i] = _INF
        # Hot loop: count locally, flush once per search.
        grid.cost_evaluations += evals
        if stats is not None:
            stats["astar_expansions"] = (
                stats.get("astar_expansions", 0) + expansions
            )
            if profile:
                # pushes == pops + len(heap) (heap invariant).
                stats["perf_heap_pushes"] = (
                    stats.get("perf_heap_pushes", 0) + pops + len(heap)
                )
                stats["perf_heap_pops"] = (
                    stats.get("perf_heap_pops", 0) + pops
                )


def separated(
    grid: DetailedGrid,
    net: str,
    sources: Ends,
    targets: Ends,
    window: tuple[int, int, int, int],
    blocked: Optional[frozenset[int]] = None,
) -> bool:
    """Whether no path can join ``sources`` to ``targets`` in ``window``.

    A proof for :func:`astar_connect` without ``foreign_penalty``: when
    this returns True, that search returns ``None`` in ``window`` and in
    every window inside it, whatever its budget.  Two floods over flat
    ids, one from each side, take one node in turn under the search's
    moves: planar moves in the layer's preferred direction only, no via
    on a stitching-line column, nothing outside ``window`` or in
    ``blocked``.  The two sides and ``blocked`` come as
    :func:`astar_connect` takes them: :data:`Ends` and a set of node
    ids.  A node is entered when it is free and not
    structurally blocked, or owned by ``net`` with a non-negative step
    cost.  Sources and targets are seeds whatever their state.  The
    answer is True as soon as one flood runs out of nodes without
    reaching a node of the other side, and False as soon as the floods
    meet.  Moves are symmetric and passability belongs to the entered
    node, so a flood from either side follows any path the search could
    take.  Entering more than the search may (a blocked or foreign
    target, no expansion limit) only makes the answer False more often,
    never True wrongly.

    ``window`` (inclusive ``lo_x, lo_y, hi_x, hi_y`` grid bounds) must
    lie inside the grid and contain every source and target, as
    :func:`connection_window` does: then every popped node lies
    inside the window, and one bound test per planar move keeps the
    flood in the window and on the grid.

    The floods mark nodes in the grid's ``_mark`` list, by node id, and
    every mark reads 0 again when the call returns or raises.
    """
    lo_x, lo_y, hi_x, hi_y = window
    layers_n = grid._num_layers
    hl = grid._hl
    step = grid._step
    free_step = grid._free_step
    on_line = grid._on_line
    vertical = grid._vertical
    owner_ids = grid._owner_ids
    net_id = grid._net_id(net)

    # mark[id] is the grid's reused flood mark, 0 everywhere between
    # calls: 1 reached from the sources, 2 from the targets, 3 a
    # blocked node no flood enters.  Every id written is listed in
    # ``marked`` and zeroed again by the ``finally``.  Seed order only
    # changes how far the floods get before the verdict, never the
    # verdict.
    mark = grid._mark
    marked: list[int] = []
    remember = marked.append
    stacks: tuple[list[int], list[int]] = ([], [])
    try:
        for own, seeds in ((1, sources[0]), (2, targets[0])):
            stack = stacks[own - 1]
            for i in seeds:
                seen = mark[i]
                if not seen:
                    mark[i] = own
                    remember(i)
                elif seen != own:
                    return False  # a shared node is a whole path
                stack.append(i)
        if blocked is not None:
            for i in blocked:
                if not mark[i]:
                    mark[i] = 3
                    remember(i)

        # One node from each side in turn.  A candidate is entered as
        # the kernel would enter it; reaching a node of the other side
        # joins the floods.
        turn = 0
        while True:
            stack = stacks[turn]
            if not stack:
                return True
            own = turn + 1
            push = stack.append
            si = stack.pop()
            x = si // hl
            rem = si - x * hl
            y = rem // layers_n
            lm = rem - y * layers_n
            if vertical[lm + 1]:
                if y > lo_y:
                    ci = si - layers_n
                    seen = mark[ci]
                    if not seen:
                        if free_step[ci] >= 0.0 or (
                            owner_ids[ci] == net_id and step[ci] >= 0.0
                        ):
                            mark[ci] = own
                            remember(ci)
                            push(ci)
                    elif seen != own and seen != 3:
                        return False
                if y < hi_y:
                    ci = si + layers_n
                    seen = mark[ci]
                    if not seen:
                        if free_step[ci] >= 0.0 or (
                            owner_ids[ci] == net_id and step[ci] >= 0.0
                        ):
                            mark[ci] = own
                            remember(ci)
                            push(ci)
                    elif seen != own and seen != 3:
                        return False
            else:
                if x > lo_x:
                    ci = si - hl
                    seen = mark[ci]
                    if not seen:
                        if free_step[ci] >= 0.0 or (
                            owner_ids[ci] == net_id and step[ci] >= 0.0
                        ):
                            mark[ci] = own
                            remember(ci)
                            push(ci)
                    elif seen != own and seen != 3:
                        return False
                if x < hi_x:
                    ci = si + hl
                    seen = mark[ci]
                    if not seen:
                        if free_step[ci] >= 0.0 or (
                            owner_ids[ci] == net_id and step[ci] >= 0.0
                        ):
                            mark[ci] = own
                            remember(ci)
                            push(ci)
                    elif seen != own and seen != 3:
                        return False
            if not on_line[x]:
                if lm > 0:
                    ci = si - 1
                    seen = mark[ci]
                    if not seen:
                        if free_step[ci] >= 0.0 or (
                            owner_ids[ci] == net_id and step[ci] >= 0.0
                        ):
                            mark[ci] = own
                            remember(ci)
                            push(ci)
                    elif seen != own and seen != 3:
                        return False
                if lm + 1 < layers_n:
                    ci = si + 1
                    seen = mark[ci]
                    if not seen:
                        if free_step[ci] >= 0.0 or (
                            owner_ids[ci] == net_id and step[ci] >= 0.0
                        ):
                            mark[ci] = own
                            remember(ci)
                            push(ci)
                    elif seen != own and seen != 3:
                        return False
            turn ^= 1
    finally:
        for i in marked:
            mark[i] = 0


def connection_window(
    sources: Ends,
    targets: Ends,
    margin: int,
    width: int,
    height: int,
) -> tuple[int, int, int, int]:
    """Bounding window of both sides, expanded by ``margin``.

    The union of the two boxes, grown by ``margin`` on every side and
    clipped to a ``width`` x ``height`` grid.  It lies inside the grid
    and holds every node of both sides, the window precondition of
    :func:`astar_connect` and :func:`separated`.
    """
    _src, s_lo_x, s_lo_y, s_hi_x, s_hi_y = sources
    _tgt, t_lo_x, t_lo_y, t_hi_x, t_hi_y = targets
    return (
        max(0, min(s_lo_x, t_lo_x) - margin),
        max(0, min(s_lo_y, t_lo_y) - margin),
        min(width - 1, max(s_hi_x, t_hi_x) + margin),
        min(height - 1, max(s_hi_y, t_hi_y) + margin),
    )
