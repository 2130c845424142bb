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

The caches are priced from the graph's state: flat Python lists of
demand, capacity and history, indexed the same way (see
:class:`GlobalGraph`), so every entry is a Python ``float``.  A
``numpy.float64`` entry would turn the arithmetic of every relaxation
into numpy scalar arithmetic, three to four times slower, and a numpy
element read costs several list reads (``docs/performance.md`` has the
measurements).  Every entry comes from the scalar step prices
(:func:`~repro.globalroute.cost.edge_price`,
:func:`~repro.globalroute.cost.line_end_price`) that
:func:`~repro.globalroute.cost.edge_cost_if_used` and
:func:`~repro.globalroute.cost.vertex_price` apply to the same lists.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Optional

from ..layout import Design
from .cost import WL_WEIGHT, edge_price, line_end_price

if TYPE_CHECKING:
    import numpy as np


Tile = tuple[int, int]

_INF = float("inf")


@dataclasses.dataclass(frozen=True)
class TileSpan:
    """Grid extent of one tile: x columns [x_lo, x_hi], y rows [y_lo, y_hi]."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int


def _read_only(values: Sequence[int], ny: int, columns: int) -> np.ndarray:
    """A read-only ``int64`` copy of the state list ``values``.

    ``values`` is indexed by tile code ``i * ny + j``; the copy keeps
    its first ``columns`` columns (``ny - 1`` for ``v`` edges, which
    drops their zero pad).  numpy is imported here, so that only the
    bulk readers load it.
    """
    import numpy as np

    array = np.array(values, dtype=np.int64).reshape(-1, ny)[:, :columns]
    array.setflags(write=False)
    return array


def _overflows(demand: list[int], capacity: list[int]) -> Iterator[int]:
    """Demand above capacity, entry by entry (``0`` where none)."""
    return (max(d - c, 0) for d, c in zip(demand, capacity))


def _overflowed(demand: list[int], capacity: list[int]) -> Iterator[int]:
    """Tile codes of the entries whose demand exceeds their capacity."""
    return (t for t, (d, c) in enumerate(zip(demand, capacity)) if d > c)


class GlobalGraph:
    """Tile graph with edge and vertex capacities, demands and history.

    The state lists are the graph's only store, indexed by tile code:
    ``_h_*`` (``(nx - 1) * ny`` entries) for the edge between tiles
    ``(i, j)`` and ``(i + 1, j)``, which a horizontal wire crosses;
    ``_v_*`` (``nx * ny``) for the edge between ``(i, j)`` and
    ``(i, j + 1)``, zero-padded at ``j = ny - 1`` where no edge exists;
    ``_t_*`` (``nx * ny``) for the tiles.  Only the graph writes them:
    the demand mutators and :meth:`apply_path` re-price one cache entry
    per change, :meth:`bump_history` every entry.  Bulk readers get
    read-only ``int64`` copies (``h_demand``, ``v_demand``,
    ``vertex_demand`` and the three ``*_capacity`` properties) shaped
    ``(nx - 1, ny)``, ``(nx, ny - 1)`` and ``(nx, ny)``.

    The maze's per-search state is allocated once, here: ``_best``
    holds the best cost of every search state (``nx * ny * 2``
    entries, ``inf`` between searches), ``_dist_x[di]`` /
    ``_dist_y[dj]`` list the tile distances ``|i - di|`` and
    ``|j - dj|`` to a target column and row, ``_tiles`` holds the
    ``(i, j)`` tuple of every tile code, which returned paths and
    :meth:`tile_of` share, and ``_no_price`` is the all-zero line-end
    price list of a search without the line-end term.  A graph
    therefore serves one search at a time.
    """

    # Cost caches, by tile code.
    _h_cost: list[float]
    _v_cost: list[float]
    _v_price: list[float]
    # The state, by tile code: demand and capacity ints, history
    # floats, for h edges, v edges and tiles.
    _h_dem: list[int]
    _h_cap: list[int]
    _h_hist: list[float]
    _v_dem: list[int]
    _v_cap: list[int]
    _v_hist: list[float]
    _t_dem: list[int]
    _t_cap: list[int]
    _t_hist: list[float]
    # Reused by every maze search: best cost by state id, tile
    # distances by target column / row, tiles and zero line-end
    # prices by tile code.
    _best: list[float]
    _dist_x: list[list[int]]
    _dist_y: list[list[int]]
    _tiles: list[Tile]
    _no_price: list[float]

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
        nx, ny = self.nx, self.ny

        tech = design.technology
        stitches = design.stitches
        assert stitches is not None
        num_h_layers = len(tech.horizontal_layers)
        num_v_layers = len(tech.vertical_layers)

        # Edge capacities.  A horizontal edge at row j carries wires on
        # the horizontal tracks of that row across all horizontal
        # layers; a vertical edge in column i carries wires on the
        # usable vertical tracks across all vertical layers.  The
        # vertex (line-end) capacity of a tile counts the friendly
        # vertical tracks of its column across all vertical layers.
        h_row: list[int] = []
        for j in range(ny):
            span = self.tile_span((0, j))
            h_row.append((span.y_hi - span.y_lo + 1) * num_h_layers)
        self._h_cap = h_row * (nx - 1)
        self._v_cap = []
        self._t_cap = []
        for i in range(nx):
            span = self.tile_span((i, 0))
            usable = stitches.usable_vertical_tracks(span.x_lo, span.x_hi)
            friendly = stitches.friendly_vertical_tracks(span.x_lo, span.x_hi)
            self._v_cap += [usable * num_v_layers] * (ny - 1) + [0]
            self._t_cap += [friendly * num_v_layers] * ny

        self._h_dem = [0] * len(self._h_cap)
        self._v_dem = [0] * len(self._v_cap)
        self._t_dem = [0] * len(self._t_cap)
        self._h_hist = [0.0] * len(self._h_cap)
        self._v_hist = [0.0] * len(self._v_cap)
        self._t_hist = [0.0] * len(self._t_cap)
        self.refresh_cost_cache()

        self._best = [_INF] * (nx * ny * 2)
        self._dist_x = [[abs(i - d) for i in range(nx)] for d in range(nx)]
        self._dist_y = [[abs(j - d) for j in range(ny)] for d in range(ny)]
        self._tiles = [(i, j) for i in range(nx) for j in range(ny)]
        self._no_price = [0.0] * (nx * ny)

    # ------------------------------------------------------------------
    # Read-only copies of the state, for bulk readers
    # ------------------------------------------------------------------
    @property
    def h_demand(self) -> np.ndarray:
        """Wire demand of the ``h`` edges, ``(nx - 1, ny)``."""
        return _read_only(self._h_dem, self.ny, self.ny)

    @property
    def v_demand(self) -> np.ndarray:
        """Wire demand of the ``v`` edges, ``(nx, ny - 1)``."""
        return _read_only(self._v_dem, self.ny, self.ny - 1)

    @property
    def vertex_demand(self) -> np.ndarray:
        """Line-end demand of the tiles, ``(nx, ny)``."""
        return _read_only(self._t_dem, self.ny, self.ny)

    @property
    def h_capacity(self) -> np.ndarray:
        """Wire capacity of the ``h`` edges, ``(nx - 1, ny)``."""
        return _read_only(self._h_cap, self.ny, self.ny)

    @property
    def v_capacity(self) -> np.ndarray:
        """Wire capacity of the ``v`` edges, ``(nx, ny - 1)``."""
        return _read_only(self._v_cap, self.ny, self.ny - 1)

    @property
    def vertex_capacity(self) -> np.ndarray:
        """Line-end capacity of the tiles, ``(nx, ny)``."""
        return _read_only(self._t_cap, self.ny, self.ny)

    # ------------------------------------------------------------------
    # Tile geometry
    # ------------------------------------------------------------------
    @classmethod
    def grid_shape(cls, design: Design) -> tuple[int, int]:
        """Tile grid dimensions ``(nx, ny)`` the graph would have.

        Lets callers (the multilevel scheme in particular) size the
        hierarchy without building the capacity lists of a full graph.
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
        """The tile containing grid cell ``(x, y)``, as the graph's
        shared ``(i, j)`` tuple."""
        if not (0 <= x < self.design.width and 0 <= y < self.design.height):
            raise ValueError(f"cell ({x}, {y}) outside die")
        i = min(x // self.tile_size, self.nx - 1)
        return self._tiles[i * self.ny + min(y // self.tile_size, self.ny - 1)]

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
        return (self._h_cap if kind == "h" else self._v_cap)[i * self.ny + j]

    def edge_demand(self, key: tuple[str, int, int]) -> int:
        """Current demand of the edge ``key``."""
        kind, i, j = key
        return (self._h_dem if kind == "h" else self._v_dem)[i * self.ny + j]

    def tile_demand(self, tile: Tile) -> int:
        """Current line-end demand of ``tile``."""
        i, j = tile
        return self._t_dem[i * self.ny + j]

    def add_edge_demand(self, key: tuple[str, int, int], delta: int) -> None:
        """Adjust the demand of edge ``key`` by ``delta``."""
        self.perf_cache_updates += 1
        kind, i, j = key
        t = i * self.ny + j
        if kind == "h":
            demand = self._h_dem[t] + delta
            self._h_dem[t] = demand
            self._h_cost[t] = WL_WEIGHT + edge_price(
                demand, self._h_cap[t], self._h_hist[t]
            )
        else:
            demand = self._v_dem[t] + delta
            self._v_dem[t] = demand
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
        self._v_price[t] = line_end_price(demand, self._t_cap[t], self._t_hist[t])

    def path_codes(self, path: Sequence[Tile]) -> tuple[list[int], list[int], list[int]]:
        """The resources a tile path holds, as state-list codes.

        One walk along ``path`` returns the codes of the ``h`` edges
        and of the ``v`` edges it crosses and the tile codes of the
        line ends of its vertical runs, each in path order.  A maximal
        vertical run becomes a vertical wire segment after layer
        assignment, and its two end tiles each receive a line end (the
        quantity the vertex demand of Section III-A counts).  Raises
        ``ValueError`` at the first pair of non-adjacent tiles.
        """
        ny = self.ny
        h_codes: list[int] = []
        v_codes: list[int] = []
        ends: list[int] = []
        run_start = -1  # tile code where the open vertical run starts
        tiles = iter(path)
        ia, ja = next(tiles, (0, 0))
        for ib, jb in tiles:
            if ja == jb and (ib - ia == 1 or ia - ib == 1):
                h_codes.append((ia if ia < ib else ib) * ny + ja)
                if run_start >= 0:
                    ends += (run_start, ia * ny + ja)
                    run_start = -1
            elif ia == ib and (jb - ja == 1 or ja - jb == 1):
                v_codes.append(ia * ny + (ja if ja < jb else jb))
                if run_start < 0:
                    run_start = ia * ny + ja
            else:
                raise ValueError(
                    f"tiles {(ia, ja)} and {(ib, jb)} are not adjacent"
                )
            ia, ja = ib, jb
        if run_start >= 0:
            ends += (run_start, ia * ny + ja)
        return h_codes, v_codes, ends

    def apply_path(self, path: Sequence[Tile], delta: int) -> None:
        """Adjust the demand a routed tile path holds by ``delta``.

        Every ``h`` edge, every ``v`` edge and every line end of the
        path (:meth:`path_codes`): the same updates as
        :meth:`add_edge_demand` and :meth:`add_vertex_demand`, made
        here on codes.  A path with non-adjacent tiles raises
        ``ValueError`` before any update.
        """
        h_codes, v_codes, ends = self.path_codes(path)
        h_dem, h_cap, h_hist, h_cost = (
            self._h_dem, self._h_cap, self._h_hist, self._h_cost
        )
        for t in h_codes:
            demand = h_dem[t] + delta
            h_dem[t] = demand
            h_cost[t] = WL_WEIGHT + edge_price(demand, h_cap[t], h_hist[t])
        v_dem, v_cap, v_hist, v_cost = (
            self._v_dem, self._v_cap, self._v_hist, self._v_cost
        )
        for t in v_codes:
            demand = v_dem[t] + delta
            v_dem[t] = demand
            v_cost[t] = WL_WEIGHT + edge_price(demand, v_cap[t], v_hist[t])
        t_dem, t_cap, t_hist, v_price = (
            self._t_dem, self._t_cap, self._t_hist, self._v_price
        )
        for t in ends:
            demand = t_dem[t] + delta
            t_dem[t] = demand
            v_price[t] = line_end_price(demand, t_cap[t], t_hist[t])
        self.perf_cache_updates += len(h_codes) + len(v_codes) + len(ends)

    # ------------------------------------------------------------------
    # Cost caches
    # ------------------------------------------------------------------
    def refresh_cost_cache(self) -> None:
        """Re-price every cache entry from the state lists with the
        scalar step prices.

        Runs at construction and from :meth:`bump_history`.
        """
        self.perf_cache_refreshes += 1
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
        suffices.  A window without ``dst`` fails once it is exhausted.
        ``maze_expansions`` accumulates into ``stats`` (counted before
        the target test); ``profile`` adds ``perf_maze_heap_pushes`` /
        ``perf_maze_heap_pops``.  ``tests/engine/reference.py`` holds a
        tuple-state maze over
        :func:`~repro.globalroute.cost.edge_cost_if_used` and
        :func:`~repro.globalroute.cost.vertex_price` that this search
        must match step for step.

        Each tile has two states, its ``h`` and its ``v`` arrival.  The
        source prices its moves like an ``h`` arrival, so it *is* its
        tile's ``h`` state, at cost 0: a path back to it along x can
        never relax that state.  The two states differ only in which
        next move pays the tile's line-end price ``p`` (``0.0`` without
        the line-end term): a ``v`` arrival pays it on a move along x,
        an ``h`` arrival on a move along y.  So the ``v`` state is
        *dominated* once the ``h`` state's best cost plus ``p`` is at
        most its cost, and the ``h`` state once the ``v`` state's best
        cost plus ``p`` is below its cost: none of its moves can then
        beat its sibling's.  A dominated successor gets its best cost
        and parent but is not pushed, and a popped state that has
        become dominated is skipped like a stale one, so
        ``maze_expansions`` counts the expanded, non-dominated states.
        Nor is an entry pushed whose ``f`` exceeds the smallest ``f``
        of a target entry pushed so far (it too keeps its best cost
        and parent): the cheaper target state is never dominated and
        is always in the heap at its best cost, so the search ends
        before such an entry could pop.  None of these rules moves the
        path (``docs/performance.md``, "Dominated maze states" and "Two
        maze states per tile").

        Best costs live in the graph's ``_best`` list, by state id.  A
        search writes only the entries of its start and of the states
        it relaxes (the ``parent`` keys), and resets exactly those to
        ``inf`` when it ends, so its cost is proportional to the states
        it touched, never to the grid.  The line-end surcharges of a
        popped state are chosen once: ``h_extra`` for a move along x
        (a vertical run ends) and ``v_extra`` for a move along y (one
        starts), each ``0.0`` where nothing is charged.  Every step
        price is at least ``WL_WEIGHT > 0``, so adding ``0.0`` changes
        no bit, and each step still sums the edge first and the
        surcharges after it, in the reference's order.
        """
        lo_x, lo_y, hi_x, hi_y = window
        ny = self.ny
        h_cost = self._h_cost
        v_cost = self._v_cost
        price = self._v_price if stitch_aware else self._no_price
        best = self._best
        di, dj = dst
        dst_code = di * ny + dj
        dist_x = self._dist_x[di]
        dist_y = self._dist_y[dj]
        # Charged when a vertical run will terminate at the target.
        dst_extra = price[dst_code]

        # State id: 2 * (i * ny + j) + dircode, the arrival direction
        # coded "h" -> 0, "v" -> 1.  The encoding is monotonic in the
        # ((i, j), direction) tuple order, which breaks ``(f, g,
        # state)`` heap ties.  The source takes its tile's h slot.
        start = 2 * (src[0] * ny + src[1])
        parent: dict[int, int] = {}
        heap: list[tuple[float, float, int]] = [
            (WL_WEIGHT * (dist_x[src[0]] + dist_y[src[1]]), 0.0, start)
        ]
        # The smallest f of a target entry pushed so far.
        bound = _INF
        goal = -1
        expansions = 0
        pops = 0
        heappop = heapq.heappop
        heappush = heapq.heappush
        best[start] = 0.0
        try:
            while heap:
                _f, g, state = heappop(heap)
                pops += 1
                if g > best[state]:
                    continue
                tc = state >> 1
                p = price[tc]
                if state & 1:
                    if best[state - 1] + p <= g:
                        continue  # dominated by the h state
                    # A vertical run ends here if the path turns.
                    h_extra = p
                    v_extra = 0.0
                else:
                    if best[state + 1] + p < g:
                        continue  # dominated by the v state
                    # A vertical run starts here: line end at this tile.
                    h_extra = 0.0
                    v_extra = p
                expansions += 1
                if tc == dst_code:
                    goal = state
                    break
                i = tc // ny
                j = tc - i * ny
                dy = dist_y[j]

                # Successors (i-1, j), (i+1, j), (i, j-1), (i, j+1),
                # pushed unless their sibling dominates them or a
                # target entry pops first.
                if i > lo_x:
                    nc = tc - ny
                    candidate = g + (h_cost[nc] + h_extra)
                    succ_state = 2 * nc
                    if candidate < best[succ_state] - 1e-12:
                        best[succ_state] = candidate
                        parent[succ_state] = state
                        if best[succ_state + 1] + price[nc] >= candidate:
                            f = candidate + WL_WEIGHT * (dist_x[i - 1] + dy)
                            if f <= bound:
                                heappush(heap, (f, candidate, succ_state))
                                if nc == dst_code:
                                    bound = f
                if i < hi_x:
                    nc = tc + ny
                    candidate = g + (h_cost[tc] + h_extra)
                    succ_state = 2 * nc
                    if candidate < best[succ_state] - 1e-12:
                        best[succ_state] = candidate
                        parent[succ_state] = state
                        if best[succ_state + 1] + price[nc] >= candidate:
                            f = candidate + WL_WEIGHT * (dist_x[i + 1] + dy)
                            if f <= bound:
                                heappush(heap, (f, candidate, succ_state))
                                if nc == dst_code:
                                    bound = f
                dx = dist_x[i]
                if j > lo_y:
                    nc = tc - 1
                    step = v_cost[nc] + v_extra
                    if nc == dst_code:
                        step = step + dst_extra
                    candidate = g + step
                    succ_state = 2 * nc + 1
                    if candidate < best[succ_state] - 1e-12:
                        best[succ_state] = candidate
                        parent[succ_state] = state
                        if best[succ_state - 1] + price[nc] > candidate:
                            f = candidate + WL_WEIGHT * (dx + dist_y[j - 1])
                            if f <= bound:
                                heappush(heap, (f, candidate, succ_state))
                                if nc == dst_code:
                                    bound = f
                if j < hi_y:
                    nc = tc + 1
                    step = v_cost[tc] + v_extra
                    if nc == dst_code:
                        step = step + dst_extra
                    candidate = g + step
                    succ_state = 2 * nc + 1
                    if candidate < best[succ_state] - 1e-12:
                        best[succ_state] = candidate
                        parent[succ_state] = state
                        if best[succ_state - 1] + price[nc] > candidate:
                            f = candidate + WL_WEIGHT * (dx + dist_y[j + 1])
                            if f <= bound:
                                heappush(heap, (f, candidate, succ_state))
                                if nc == dst_code:
                                    bound = f
        finally:
            # Every entry the search wrote is the start's or a parent
            # key's; each store writes inf, so the order is immaterial.
            best[start] = _INF
            for state in parent:
                best[state] = _INF
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
        tiles = self._tiles
        return [tiles[s >> 1] for s in states]

    # ------------------------------------------------------------------
    # Negotiation
    # ------------------------------------------------------------------
    def overflowed(self) -> tuple[set[int], set[int], set[int]]:
        """The codes of the overflowed ``h`` edges, ``v`` edges and
        tiles, comparable with :meth:`path_codes`."""
        return (
            set(_overflowed(self._h_dem, self._h_cap)),
            set(_overflowed(self._v_dem, self._v_cap)),
            set(_overflowed(self._t_dem, self._t_cap)),
        )

    def bump_history(self, line_ends: bool) -> None:
        """Raise by ``0.5`` the history of every overflowed edge and,
        when ``line_ends`` is true, of every overflowed tile; then
        re-price every cache entry."""
        state = [
            (self._h_dem, self._h_cap, self._h_hist),
            (self._v_dem, self._v_cap, self._v_hist),
        ]
        if line_ends:
            state.append((self._t_dem, self._t_cap, self._t_hist))
        for demand, capacity, history in state:
            for t in _overflowed(demand, capacity):
                history[t] += 0.5
        self.refresh_cost_cache()

    # ------------------------------------------------------------------
    # Overflow metrics (Table IV)
    # ------------------------------------------------------------------
    def edge_overflow(self) -> int:
        """Total wire overflow over all edges."""
        return sum(_overflows(self._h_dem, self._h_cap)) + sum(
            _overflows(self._v_dem, self._v_cap)
        )

    def total_vertex_overflow(self) -> int:
        """TVOF: summed line-end overflow over all tiles."""
        return sum(_overflows(self._t_dem, self._t_cap))

    def max_vertex_overflow(self) -> int:
        """MVOF: worst line-end overflow among all tiles (0 without
        tiles)."""
        return max(_overflows(self._t_dem, self._t_cap), default=0)

