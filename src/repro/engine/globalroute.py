"""Array-core global routing: cached step costs + indexed tile A*.

The object engine re-derives every A* step cost from scratch —
``2 ** ((demand + 1) / capacity)`` per edge probe, plus the vertex
(line-end) price at every vertical-run boundary.  The array core keeps
three cost caches, flat lists indexed by the tile code
``t = i * ny + j`` the A* state encoding already uses:

* ``_h_cost[t]`` / ``_v_cost[t]`` — the full A* step across the edge
  from tile ``t`` to its ``+x`` (``h``) or ``+y`` (``v``) neighbour
  (``WL_WEIGHT`` + Eq. (1) next-use congestion + history);
* ``_v_price[t]`` — the full line-end step price of tile ``t``
  (Eq. (2) next-use cost scaled by ``VERTEX_WEIGHT``, plus history and
  the hard overflow penalty).

Every entry is a Python ``float``, and everything an entry is priced
from is a Python number: the graph keeps flat Python mirrors of its
demand, capacity and history arrays.  A ``numpy.float64`` entry (a
numpy history read makes one) turns the arithmetic of every relaxation
into numpy scalar arithmetic, three to four times slower than float
arithmetic, and a numpy element read costs several list reads
(``docs/performance.md`` has the measurements).

Caches and the demand and history mirrors follow the incremental
obstacle-cache idiom: rebuilt wholesale by
:meth:`~_CostCacheMixin.refresh_cost_cache` (at construction and after
the serial history bump), updated entry-wise by the demand mutators,
and *cloned* per worker snapshot, never recomputed there.  Capacities
never change, so their mirrors are built once, with the graph.  Every
entry comes from the scalar step prices the object engine also calls
(:func:`~repro.globalroute.cost.edge_price`,
:func:`~repro.globalroute.cost.line_end_price`) — not the vectorized
:func:`~repro.globalroute.cost.congestion_cost_array`, whose
``numpy.exp2`` may differ from CPython ``2.0 ** x`` in the last ulp —
so both engines price every step with bit-identical floats.

The indexed A* encodes the object engine's ``((i, j), direction)``
search states as ``(i * ny + j) * 3 + dircode`` with ``"" < "h" < "v"``
mapped to ``0 < 1 < 2``; the encoding is monotonic in the tuple order,
so the ``(f, g, state)`` heap tie-break is preserved exactly and both
engines expand the same states in the same order.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from ..analysis.pairing import paired
from ..globalroute.cost import edge_price, line_end_price
from ..globalroute.graph import GlobalGraph, Tile
from ..globalroute.overlay import GraphSnapshot
from ..globalroute.router import WL_WEIGHT
from ..layout import Design

_INF = float("inf")


def _flat(array: "np.ndarray", ny: int) -> list:
    """``array`` as a Python list indexed by tile code ``i * ny + j``.

    ``v`` edge arrays have ``ny - 1`` columns and are zero-padded at
    ``j = ny - 1``: an edge that does not exist reads as zero capacity
    (and the search never steps across it).
    """
    missing = ny - array.shape[1]
    if missing:
        array = np.pad(array, ((0, 0), (0, missing)))
    values: list = array.ravel().tolist()
    return values


class _CostCacheMixin:
    """Cost caches, state mirrors and the indexed A* of graph and snapshot.

    Concrete classes (:class:`ArrayGlobalGraph`,
    :class:`ArrayGraphSnapshot`) initialize the caches and mirrors; the
    mixin maintains them through the demand mutators and provides
    :meth:`astar_in_window`, the fast path
    ``GlobalRouter._astar_in_window`` dispatches to when present.
    """

    nx: int
    ny: int
    h_demand: "np.ndarray"
    v_demand: "np.ndarray"
    vertex_demand: "np.ndarray"
    h_capacity: "np.ndarray"
    v_capacity: "np.ndarray"
    vertex_capacity: "np.ndarray"
    h_history: "np.ndarray"
    v_history: "np.ndarray"
    vertex_history: "np.ndarray"
    # Cost caches, by tile code.
    _h_cost: list[float]
    _v_cost: list[float]
    _v_price: list[float]
    # Python mirrors of the numpy state, by tile code: demand and
    # capacity ints, history floats, for h edges, v edges and tiles.
    _h_dem: list[int]
    _h_cap: list[int]
    _h_hist: list[float]
    _v_dem: list[int]
    _v_cap: list[int]
    _v_hist: list[float]
    _t_dem: list[int]
    _t_cap: list[int]
    _t_hist: list[float]

    #: Profiling counters (``RouterConfig(profile=...)``): wholesale
    #: cache rebuilds and entry-wise incremental updates.  Class-level
    #: zeros; the first increment creates the instance attribute, so
    #: snapshots (thread-local clones) count separately and the live
    #: graph's totals are what the router reports at stage end.
    perf_cache_refreshes = 0
    perf_cache_updates = 0

    def refresh_cost_cache(self) -> None:
        """Rebuild the demand and history mirrors from the numpy state
        and re-price every cache entry with the scalar step prices.

        Called at construction and by the router after the history
        bump (which mutates the history arrays behind the graph's
        back).  Entries come from the same functions the object engine
        calls per A* probe, so the cached floats are bit-identical.
        """
        self.perf_cache_refreshes += 1
        self._mirror_mutable_state()
        self._h_cost = [
            WL_WEIGHT + edge_price(d, c, h)
            for d, c, h in zip(self._h_dem, self._h_cap, self._h_hist)
        ]
        self._v_cost = [
            WL_WEIGHT + edge_price(d, c, h)
            for d, c, h in zip(self._v_dem, self._v_cap, self._v_hist)
        ]
        self._v_price = [
            line_end_price(d, c, h)
            for d, c, h in zip(self._t_dem, self._t_cap, self._t_hist)
        ]

    def _mirror_mutable_state(self) -> None:
        """Re-read the demand and history mirrors from the numpy arrays.

        Capacities are construction-time constants, so
        :class:`ArrayGlobalGraph` mirrors them once, in its constructor.
        """
        ny = self.ny
        self._h_dem = _flat(self.h_demand, ny)
        self._h_hist = _flat(self.h_history, ny)
        self._v_dem = _flat(self.v_demand, ny)
        self._v_hist = _flat(self.v_history, ny)
        self._t_dem = _flat(self.vertex_demand, ny)
        self._t_hist = _flat(self.vertex_history, ny)

    # -- demand mutators keep mirrors and caches fresh -------------------
    def add_edge_demand(self, key: tuple[str, int, int], delta: int) -> None:
        self.perf_cache_updates += 1
        kind, i, j = key
        t = i * self.ny + j
        if kind == "h":
            demand = self._h_dem[t] + delta
            self._h_dem[t] = demand
            self.h_demand[i, j] = demand
            self._h_cost[t] = WL_WEIGHT + edge_price(
                demand, self._h_cap[t], self._h_hist[t]
            )
        else:
            demand = self._v_dem[t] + delta
            self._v_dem[t] = demand
            self.v_demand[i, j] = demand
            self._v_cost[t] = WL_WEIGHT + edge_price(
                demand, self._v_cap[t], self._v_hist[t]
            )

    def add_vertex_demand(self, tile: Tile, delta: int) -> None:
        self.perf_cache_updates += 1
        i, j = tile
        t = i * self.ny + j
        demand = self._t_dem[t] + delta
        self._t_dem[t] = demand
        self.vertex_demand[i, j] = demand
        self._v_price[t] = line_end_price(demand, self._t_cap[t], self._t_hist[t])

    # -- indexed A* ------------------------------------------------------
    @paired("global-maze", backend="array")
    def astar_in_window(  # repro: allow-PAR006 graph is self here; caller passes stitch/profile
        self,
        src: Tile,
        dst: Tile,
        window: tuple[int, int, int, int],
        stitch_aware: bool,
        stats: dict[str, float],
        profile: bool = False,
    ) -> Optional[list[Tile]]:
        """Array-core twin of ``GlobalRouter._astar_in_window``.

        Same arguments (minus the graph, which is ``self``, plus the
        router's ``stitch_aware`` flag), same result, same
        ``maze_expansions`` accounting; called after the shared
        ``src == dst`` shortcut, so only the heap loop lives here.
        ``window`` must lie inside the grid and contain ``src`` (the
        router's windows always do): then every popped state lies
        inside the window, and one bound test per successor suffices.

        Byte-identity notes: states are ``((i, j), direction)`` encoded
        order-preservingly as integers; successors are generated in
        ``GlobalGraph.neighbors`` order (left, right, down, up); the
        heuristic multiplies the same integer tile distance by
        ``WL_WEIGHT``; the expansion counter increments before the
        target test (the opposite of the detailed A* — both match
        their references); vertex prices are charged run-start, then
        run-end, then destination, in the reference order; relaxation
        keeps the ``1e-12`` slack.
        """
        lo_x, lo_y, hi_x, hi_y = window
        ny = self.ny
        h_cost = self._h_cost
        v_cost = self._v_cost
        v_price = self._v_price
        di, dj = dst
        dst_code = di * ny + dj
        # Per-search tile distances to the target, per axis.
        dist_x = [abs(i - di) for i in range(hi_x + 1)]
        dist_y = [abs(j - dj) for j in range(hi_y + 1)]

        # State id: (i * ny + j) * 3 + dircode with "" -> 0, "h" -> 1,
        # "v" -> 2 — monotonic in the ((i, j), dir) tuple order.
        start = (src[0] * ny + src[1]) * 3
        best: dict[int, float] = {start: 0.0}
        parent: dict[int, int] = {}
        heap: list[tuple[float, float, int]] = [
            (WL_WEIGHT * (dist_x[src[0]] + dist_y[src[1]]), 0.0, start)
        ]
        goal = -1
        expansions = 0
        pops = 0
        best_get = best.get
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            _f, g, state = heappop(heap)
            pops += 1
            if g > best_get(state, _INF):
                continue
            expansions += 1
            tc = state // 3
            if tc == dst_code:
                goal = state
                break
            i = tc // ny
            j = tc - i * ny
            vertical_run = state - tc * 3 == 2
            dy = dist_y[j]

            # Successors in GlobalGraph.neighbors order: (i-1, j),
            # (i+1, j), (i, j-1), (i, j+1).
            if i > lo_x:
                step = h_cost[tc - ny]
                if stitch_aware and vertical_run:
                    # A vertical run just ended at this tile.
                    step = step + v_price[tc]
                candidate = g + step
                succ_state = (tc - ny) * 3 + 1
                if candidate < best_get(succ_state, _INF) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heappush(
                        heap,
                        (
                            candidate + WL_WEIGHT * (dist_x[i - 1] + dy),
                            candidate,
                            succ_state,
                        ),
                    )
            if i < hi_x:
                step = h_cost[tc]
                if stitch_aware and vertical_run:
                    step = step + v_price[tc]
                candidate = g + step
                succ_state = (tc + ny) * 3 + 1
                if candidate < best_get(succ_state, _INF) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heappush(
                        heap,
                        (
                            candidate + WL_WEIGHT * (dist_x[i + 1] + dy),
                            candidate,
                            succ_state,
                        ),
                    )
            dx = dist_x[i]
            if j > lo_y:
                step = v_cost[tc - 1]
                if stitch_aware:
                    if not vertical_run:
                        # A vertical run starts: line end at this tile.
                        step = step + v_price[tc]
                    if tc - 1 == dst_code:
                        # The run will terminate at the target tile.
                        step = step + v_price[tc - 1]
                candidate = g + step
                succ_state = (tc - 1) * 3 + 2
                if candidate < best_get(succ_state, _INF) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heappush(
                        heap,
                        (
                            candidate + WL_WEIGHT * (dx + dist_y[j - 1]),
                            candidate,
                            succ_state,
                        ),
                    )
            if j < hi_y:
                step = v_cost[tc]
                if stitch_aware:
                    if not vertical_run:
                        step = step + v_price[tc]
                    if tc + 1 == dst_code:
                        step = step + v_price[tc + 1]
                candidate = g + step
                succ_state = (tc + 1) * 3 + 2
                if candidate < best_get(succ_state, _INF) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heappush(
                        heap,
                        (
                            candidate + WL_WEIGHT * (dx + dist_y[j + 1]),
                            candidate,
                            succ_state,
                        ),
                    )
        stats["maze_expansions"] = stats.get("maze_expansions", 0) + expansions
        if profile:
            # pushes == pops + len(heap) (heap invariant — the seed
            # entry counts as a push): matches the reference loop's
            # explicit count because the loops are step-identical.
            stats["perf_maze_heap_pushes"] = (
                stats.get("perf_maze_heap_pushes", 0) + pops + len(heap)
            )
            stats["perf_maze_heap_pops"] = (
                stats.get("perf_maze_heap_pops", 0) + pops
            )
        if goal < 0:
            return None
        states = [goal]
        while states[-1] != start:
            states.append(parent[states[-1]])
        states.reverse()
        return [divmod(s // 3, ny) for s in states]


class ArrayGlobalGraph(_CostCacheMixin, GlobalGraph):
    """:class:`GlobalGraph` plus cost caches and the indexed A* path."""

    def __init__(self, design: Design) -> None:
        super().__init__(design)
        ny = self.ny
        self._h_cap = _flat(self.h_capacity, ny)
        self._v_cap = _flat(self.v_capacity, ny)
        self._t_cap = _flat(self.vertex_capacity, ny)
        self.refresh_cost_cache()

    def snapshot(self) -> GraphSnapshot:
        """Snapshot carrying cloned cost caches (array fast path)."""
        return ArrayGraphSnapshot(self)


class ArrayGraphSnapshot(_CostCacheMixin, GraphSnapshot):
    """:class:`GraphSnapshot` whose searches run on cloned caches.

    Demand arrays are private copies (as in the base snapshot), and so
    are the demand mirrors and the caches; the capacity and history
    mirrors are shared like the arrays they mirror.  The live graph
    keeps its entries fresh through the demand mutators, so the clones
    are exactly the per-batch state a rebuild would produce, at
    list-copy cost.
    """

    def __init__(self, base: ArrayGlobalGraph) -> None:
        super().__init__(base)
        self._h_dem = base._h_dem[:]
        self._v_dem = base._v_dem[:]
        self._t_dem = base._t_dem[:]
        self._h_cap, self._v_cap, self._t_cap = (
            base._h_cap, base._v_cap, base._t_cap
        )
        self._h_hist, self._v_hist, self._t_hist = (
            base._h_hist, base._v_hist, base._t_hist
        )
        self._h_cost = base._h_cost[:]
        self._v_cost = base._v_cost[:]
        self._v_price = base._v_price[:]
