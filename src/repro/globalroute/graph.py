"""The global routing graph with MEBL resource estimation.

A routing plane is divided into global tiles; each tile is a vertex and
adjacent tiles are connected by edges (Fig. 7a).  MEBL changes the
resource model in two ways (Section III-A):

* **edge capacity** in the vertical direction shrinks because the
  vertical track occupied by a stitching line is unusable (vertical
  routing constraint, Fig. 7b);
* each tile also carries a **vertex capacity** — the number of vertical
  tracks *not* in stitch unfriendly regions — limiting how many
  vertical-segment line ends may lie in the tile without risking short
  polygons.

Demands are tracked per edge (wires crossing the boundary) and per
vertex (line ends lying in the tile).

The maze search (:meth:`GlobalGraph.astar_in_window`) reads three cost
caches, flat lists indexed by the tile code ``t = i * ny + j``:

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
(``docs/performance.md`` has the measurements).  The numpy arrays stay
for the vectorized readers: the overflow sums, the router's victim
selection and history bump, and the auditor.

Caches and the demand and history mirrors follow the incremental
obstacle-cache idiom: rebuilt wholesale by
:meth:`~GlobalGraph.refresh_cost_cache` (at construction and after the
history bump) and updated entry-wise by the demand mutators.
Capacities never change, so their mirrors are built once, with the
graph.  Every entry comes from the scalar step prices
(:func:`~repro.globalroute.cost.edge_price`,
:func:`~repro.globalroute.cost.line_end_price`) that
:func:`~repro.globalroute.cost.edge_cost_if_used` and
:func:`~repro.globalroute.cost.vertex_price` apply to the numpy state
— not the vectorized
:func:`~repro.globalroute.cost.congestion_cost_array`, whose
``numpy.exp2`` may differ from CPython ``2.0 ** x`` in the last ulp.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections.abc import Iterator, Sequence
from typing import Optional

import numpy as np

from ..layout import Design
from .cost import WL_WEIGHT, edge_price, line_end_price


Tile = tuple[int, int]

_INF = float("inf")


@dataclasses.dataclass(frozen=True)
class TileSpan:
    """Grid extent of one tile: x columns [x_lo, x_hi], y rows [y_lo, y_hi]."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int


def _flat(array: np.ndarray, ny: int) -> list:
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


class GlobalGraph:
    """Tile graph with edge and vertex capacities/demands.

    Edge arrays are indexed as:

    * ``h_*[i, j]`` — the edge between tiles ``(i, j)`` and ``(i+1, j)``
      (a wire crossing it runs horizontally);
    * ``v_*[i, j]`` — the edge between tiles ``(i, j)`` and ``(i, j+1)``
      (a wire crossing it runs vertically).

    The demand mutators keep the cost caches and Python mirrors fresh;
    code that changes the history arrays directly must call
    :meth:`refresh_cost_cache` afterwards.
    """

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
    #: zeros; the first increment creates the instance attribute.
    perf_cache_refreshes = 0
    perf_cache_updates = 0

    def __init__(self, design: Design) -> None:
        self.design = design
        tile = design.config.tile_size
        self.tile_size = tile
        self.nx, self.ny = self.grid_shape(design)

        tech = design.technology
        stitches = design.stitches
        assert stitches is not None
        num_h_layers = len(tech.horizontal_layers)
        num_v_layers = len(tech.vertical_layers)

        # Per-tile-column vertical track counts.
        v_usable = np.zeros(self.nx, dtype=np.int64)
        v_friendly = np.zeros(self.nx, dtype=np.int64)
        for i in range(self.nx):
            span = self.tile_span((i, 0))
            v_usable[i] = stitches.usable_vertical_tracks(span.x_lo, span.x_hi)
            v_friendly[i] = stitches.friendly_vertical_tracks(
                span.x_lo, span.x_hi
            )
        # Per-tile-row horizontal track counts.
        h_tracks = np.zeros(self.ny, dtype=np.int64)
        for j in range(self.ny):
            span = self.tile_span((0, j))
            h_tracks[j] = span.y_hi - span.y_lo + 1

        # Edge capacities.  A horizontal edge at row j carries wires on
        # the horizontal tracks of that row across all horizontal
        # layers; a vertical edge in column i carries wires on the
        # usable vertical tracks across all vertical layers.
        self.h_capacity = np.tile(
            (h_tracks * num_h_layers)[None, :], (max(self.nx - 1, 0), 1)
        ).astype(np.int64)
        self.v_capacity = np.tile(
            (v_usable * num_v_layers)[:, None], (1, max(self.ny - 1, 0))
        ).astype(np.int64)
        # Vertex (line-end) capacity of each tile.
        self.vertex_capacity = np.tile(
            (v_friendly * num_v_layers)[:, None], (1, self.ny)
        ).astype(np.int64)

        self.h_demand = np.zeros_like(self.h_capacity)
        self.v_demand = np.zeros_like(self.v_capacity)
        self.vertex_demand = np.zeros_like(self.vertex_capacity)
        self.h_history = np.zeros(self.h_capacity.shape, dtype=np.float64)
        self.v_history = np.zeros(self.v_capacity.shape, dtype=np.float64)
        self.vertex_history = np.zeros(
            self.vertex_capacity.shape, dtype=np.float64
        )
        ny = self.ny
        self._h_cap = _flat(self.h_capacity, ny)
        self._v_cap = _flat(self.v_capacity, ny)
        self._t_cap = _flat(self.vertex_capacity, ny)
        self.refresh_cost_cache()

    # ------------------------------------------------------------------
    # Tile geometry
    # ------------------------------------------------------------------
    @classmethod
    def grid_shape(cls, design: Design) -> tuple[int, int]:
        """Tile grid dimensions ``(nx, ny)`` the graph would have.

        Lets callers (the multilevel scheme in particular) size the
        hierarchy without building the capacity arrays of a full graph.
        """
        tile = design.config.tile_size
        nx = max(1, (design.width + tile - 1) // tile)
        ny = max(1, (design.height + tile - 1) // tile)
        return nx, ny

    # ------------------------------------------------------------------
    def tile_span(self, tile: Tile) -> TileSpan:
        """Grid extent covered by ``tile``."""
        i, j = tile
        t = self.tile_size
        return TileSpan(
            x_lo=i * t,
            x_hi=min((i + 1) * t, self.design.width) - 1,
            y_lo=j * t,
            y_hi=min((j + 1) * t, self.design.height) - 1,
        )

    def tile_of(self, x: int, y: int) -> Tile:
        """The tile containing grid cell ``(x, y)``."""
        if not (0 <= x < self.design.width and 0 <= y < self.design.height):
            raise ValueError(f"cell ({x}, {y}) outside die")
        return (
            min(x // self.tile_size, self.nx - 1),
            min(y // self.tile_size, self.ny - 1),
        )

    def tiles(self) -> Iterator[Tile]:
        """All tiles in row-major order."""
        for j in range(self.ny):
            for i in range(self.nx):
                yield (i, j)

    def neighbors(self, tile: Tile) -> list[Tile]:
        """4-adjacent tiles inside the grid."""
        i, j = tile
        out = []
        if i > 0:
            out.append((i - 1, j))
        if i + 1 < self.nx:
            out.append((i + 1, j))
        if j > 0:
            out.append((i, j - 1))
        if j + 1 < self.ny:
            out.append((i, j + 1))
        return out

    # ------------------------------------------------------------------
    # Edge bookkeeping
    # ------------------------------------------------------------------
    def edge_between(self, a: Tile, b: Tile) -> tuple[str, int, int]:
        """Canonical (kind, i, j) key of the edge between adjacent tiles."""
        (ia, ja), (ib, jb) = a, b
        if ja == jb and abs(ia - ib) == 1:
            return ("h", min(ia, ib), ja)
        if ia == ib and abs(ja - jb) == 1:
            return ("v", ia, min(ja, jb))
        raise ValueError(f"tiles {a} and {b} are not adjacent")

    def edge_capacity(self, key: tuple[str, int, int]) -> int:
        """Capacity of the edge ``key``."""
        kind, i, j = key
        return int(self.h_capacity[i, j] if kind == "h" else self.v_capacity[i, j])

    def edge_demand(self, key: tuple[str, int, int]) -> int:
        """Current demand of the edge ``key``."""
        kind, i, j = key
        return int(self.h_demand[i, j] if kind == "h" else self.v_demand[i, j])

    def add_edge_demand(self, key: tuple[str, int, int], delta: int) -> None:
        """Adjust the demand of edge ``key`` by ``delta``."""
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
        """Adjust the line-end demand of ``tile`` by ``delta``."""
        self.perf_cache_updates += 1
        i, j = tile
        t = i * self.ny + j
        demand = self._t_dem[t] + delta
        self._t_dem[t] = demand
        self.vertex_demand[i, j] = demand
        self._v_price[t] = line_end_price(demand, self._t_cap[t], self._t_hist[t])

    def apply_path(self, path: Sequence[Tile], delta: int) -> None:
        """Adjust the demand a routed tile path holds by ``delta``.

        Every edge the path crosses, then every line end of its
        vertical runs (:func:`vertical_run_line_ends`), in path order,
        through the demand mutators.
        """
        for a, b in zip(path, path[1:]):
            self.add_edge_demand(self.edge_between(a, b), delta)
        for tile in vertical_run_line_ends(path):
            self.add_vertex_demand(tile, delta)

    # ------------------------------------------------------------------
    # Cost caches
    # ------------------------------------------------------------------
    def refresh_cost_cache(self) -> None:
        """Rebuild the demand and history mirrors from the numpy state
        and re-price every cache entry with the scalar step prices.

        Called at construction and by the router after the history
        bump (which mutates the history arrays behind the graph's
        back).
        """
        self.perf_cache_refreshes += 1
        ny = self.ny
        self._h_dem = _flat(self.h_demand, ny)
        self._h_hist = _flat(self.h_history, ny)
        self._v_dem = _flat(self.v_demand, ny)
        self._v_hist = _flat(self.v_history, ny)
        self._t_dem = _flat(self.vertex_demand, ny)
        self._t_hist = _flat(self.vertex_history, ny)
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

    # ------------------------------------------------------------------
    # Maze search
    # ------------------------------------------------------------------
    def astar_in_window(
        self,
        src: Tile,
        dst: Tile,
        window: tuple[int, int, int, int],
        stitch_aware: bool,
        stats: dict[str, float],
        profile: bool = False,
    ) -> Optional[list[Tile]]:
        """Direction-aware A* from ``src`` to ``dst`` inside ``window``.

        Search states carry the arrival direction so the vertex
        (line-end) cost of Eq. (2) is charged exactly where a vertical
        run starts or ends — the tiles whose line-end demand the path
        will raise — rather than diffusely along the whole path;
        ``stitch_aware=False`` prices edges only.  A step costs
        ``WL_WEIGHT`` plus the Eq. (1) price of one more wire on the
        edge plus its history (the cached ``_h_cost`` / ``_v_cost``);
        line-end prices are charged where a vertical run starts, where
        it ends, and where it will terminate at ``dst``, in that order.
        The heuristic is ``WL_WEIGHT`` times the tile distance to
        ``dst``, successors come in the order left, right, down, up,
        and relaxation keeps a ``1e-12`` slack.

        ``window`` (inclusive ``lo_x, lo_y, hi_x, hi_y`` tile bounds)
        must lie inside the grid and contain ``src``: then every popped
        state lies inside the window, and one bound test per successor
        suffices.  ``maze_expansions`` accumulates into ``stats``
        (counted before the target test); ``profile`` adds
        ``perf_maze_heap_pushes`` / ``perf_maze_heap_pops``.
        ``tests/engine/reference.py`` holds a tuple-state maze over
        :func:`~repro.globalroute.cost.edge_cost_if_used` and
        :func:`~repro.globalroute.cost.vertex_price` that this search
        must match step for step.
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

        # State id: (i * ny + j) * 3 + dircode, the arrival direction
        # coded "" (source) -> 0, "h" -> 1, "v" -> 2.  The encoding is
        # monotonic in the ((i, j), direction) tuple order, which
        # breaks ``(f, g, state)`` heap ties.
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

            # Successors (i-1, j), (i+1, j), (i, j-1), (i, j+1).
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
            # entry counts as a push), so one add per pop suffices.
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

    # ------------------------------------------------------------------
    # Overflow metrics (Table IV)
    # ------------------------------------------------------------------
    def edge_overflow(self) -> int:
        """Total wire overflow over all edges."""
        h = np.maximum(self.h_demand - self.h_capacity, 0).sum()
        v = np.maximum(self.v_demand - self.v_capacity, 0).sum()
        return int(h + v)

    def total_vertex_overflow(self) -> int:
        """TVOF: summed line-end overflow over all tiles."""
        return int(
            np.maximum(self.vertex_demand - self.vertex_capacity, 0).sum()
        )

    def max_vertex_overflow(self) -> int:
        """MVOF: worst line-end overflow among all tiles."""
        if self.vertex_demand.size == 0:
            return 0
        return int(
            np.maximum(self.vertex_demand - self.vertex_capacity, 0).max()
        )


def vertical_run_line_ends(path: Sequence[Tile]) -> list[Tile]:
    """Tiles holding a line end of a vertical run of ``path``.

    The global route's maximal vertical runs become vertical wire
    segments after layer assignment; their two end tiles each receive a
    line end (the quantity the vertex demand of Section III-A counts).
    """
    ends: list[Tile] = []
    n = len(path)
    run_start: Optional[int] = None
    for idx in range(n - 1):
        vertical = path[idx][0] == path[idx + 1][0]
        if vertical and run_start is None:
            run_start = idx
        if not vertical and run_start is not None:
            ends.extend([path[run_start], path[idx]])
            run_start = None
    if run_start is not None:
        ends.extend([path[run_start], path[n - 1]])
    return ends
