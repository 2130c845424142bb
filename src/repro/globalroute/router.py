"""Sequential congestion-driven global routing.

Nets are decomposed into two-pin subnets (Prim spanning tree over the
pins), ordered bottom-up (nets local to smaller tile neighbourhoods
first, per the multilevel scheme of Section II-B), and routed by A* on
the tile graph.  In stitch-aware mode the path cost follows Eq. (3):
edge congestion plus the vertex (line-end) congestion term; the
baseline mode — standing in for NTUgr [5] — prices edges only.

A negotiation-style rip-up and re-route loop with history costs cleans
up edge overflow, mirroring NTUgr's overflow reduction.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from collections.abc import Sequence
from typing import Optional

import numpy as np

from ..algorithms import steiner_tree_edges
from ..layout import Design, Net
from ..observe import Span, Tracer, ensure
from ..parallel import BatchExecutor, plan_batches
from .cost import (
    VERTEX_OVERFLOW_PENALTY,  # noqa: F401  (re-export: moved to .cost)
    VERTEX_WEIGHT,  # noqa: F401  (re-export: moved to .cost)
    edge_cost_if_used,
    vertex_price,
)
from ..analysis.pairing import paired
from .graph import GlobalGraph, Tile, vertical_run_line_ends
from .overlay import windows_hit

#: Weight of one tile hop in the A* cost; small so congestion dominates
#: but paths stay short when congestion is zero.
WL_WEIGHT = 0.1

#: Tile margin of the first (windowed) A* attempt around a subnet's
#: endpoints; doubles as the batch planner's expansion: two nets whose
#: bboxes stay this far apart cannot read each other's demand.
ASTAR_WINDOW_MARGIN = 4

@dataclasses.dataclass
class GlobalRoute:
    """Global route of one net: one tile path per two-pin subnet."""

    net: Net
    paths: list[list[Tile]]

    @property
    def wirelength_tiles(self) -> int:
        """Total tile hops over all subnet paths."""
        return sum(len(p) - 1 for p in self.paths)


@dataclasses.dataclass
class GlobalRoutingResult:
    """Outcome of global routing a design."""

    design: Design
    graph: GlobalGraph
    routes: dict[str, GlobalRoute]
    failed: list[str]
    cpu_seconds: float

    @property
    def wirelength(self) -> int:
        """Total wirelength in grid pitches (tile hops x tile size)."""
        hops = sum(r.wirelength_tiles for r in self.routes.values())
        return hops * self.graph.tile_size

    @property
    def total_vertex_overflow(self) -> int:
        """TVOF of Table IV."""
        return self.graph.total_vertex_overflow()

    @property
    def max_vertex_overflow(self) -> int:
        """MVOF of Table IV."""
        return self.graph.max_vertex_overflow()


class GlobalRouter:
    """Two-pin-decomposition maze router over a :class:`GlobalGraph`.

    Args:
        stitch_aware: include the vertex (line-end) congestion term of
            Eqs. (2)–(3).  Off reproduces the wire-density-only router
            compared against in Table IV.
        ripup_rounds: negotiation rounds after the initial pass.
        steiner: decompose multi-pin nets over a greedy 1-Steiner tree
            instead of the plain spanning tree (optional wirelength
            improvement; the paper's experiments use the spanning
            tree, so this defaults to off).
        workers: worker threads for net-batch routing.  ``1`` keeps
            the serial loop; ``N > 1`` routes bbox-disjoint net batches
            speculatively and merges them in canonical order, which is
            provably result-identical to the serial loop (see
            ``docs/parallelism.md``).
        sanitize: route speculative nets against instrumented
            snapshots that audit every demand-array access and verify
            it against the declared A* windows, raising
            :class:`~repro.analysis.SanitizerViolation` on any
            undeclared access (see ``docs/static_analysis.md``).
        engine: concrete engine name — ``"object"`` routes on the
            reference :class:`GlobalGraph`, ``"array"`` on the
            :class:`~repro.engine.ArrayGlobalGraph` with incrementally
            maintained cost caches.  The two produce byte-identical
            results (``docs/performance.md``); resolve ``"auto"`` with
            :func:`repro.config.resolve_engine` before constructing
            the router.
        profile: ``"off"`` / ``"counters"`` / ``"full"``.  ``"counters"``
            flushes engine-level ``perf_*`` counters (maze heap
            pushes/pops, snapshot clones, cost-cache refreshes and
            incremental updates) per pass and negotiation round;
            ``"full"`` additionally reports per-net commits through
            :meth:`Tracer.progress` (see ``docs/observability.md``).
    """

    def __init__(
        self,
        stitch_aware: bool = True,
        ripup_rounds: int = 8,
        steiner: bool = False,
        workers: int = 1,
        sanitize: bool = False,
        engine: str = "object",
        profile: str = "off",
    ) -> None:
        if engine not in ("object", "array"):
            raise ValueError(
                f"engine must be 'object' or 'array', got {engine!r}"
            )
        if profile not in ("off", "counters", "full"):
            raise ValueError(
                f"profile must be 'off', 'counters' or 'full', got {profile!r}"
            )
        self.stitch_aware = stitch_aware
        self.ripup_rounds = ripup_rounds
        self.steiner = steiner
        self.workers = workers
        self.sanitize = sanitize
        self.engine = engine
        self.profile = profile
        self._profiling = profile != "off"
        self._tracer: Optional[Tracer] = None
        #: Two-pin decompositions of the nets of the current ``route()``
        #: call, computed once per net (they depend only on pin tiles).
        self._subnets: dict[str, list[tuple[Tile, Tile]]] = {}

    # ------------------------------------------------------------------
    def route(
        self, design: Design, tracer: Optional[Tracer] = None
    ) -> GlobalRoutingResult:
        """Globally route every net of ``design``.

        Spans recorded on ``tracer``: tile-graph build, the initial
        bottom-up pass, and one span per negotiation round with the
        edge/vertex overflow left after it (the Table IV quantities).
        """
        tracer = ensure(tracer)
        self._tracer = tracer if self.profile == "full" else None
        start = time.perf_counter()
        pool: Optional[BatchExecutor] = None
        if self.workers > 1:
            on_task = None
            if self.profile == "full":
                # Per-task fan-in: the executor reports completions on
                # the calling (main) thread in submission order, so the
                # stream stays canonically ordered.
                def on_task(index: int, busy: float) -> None:
                    tracer.progress(
                        "task",
                        stage="global",
                        index=index,
                        busy_seconds=round(busy, 6),
                    )

            pool = BatchExecutor(self.workers, on_task=on_task)
        try:
            with tracer.span("global-route") as stage:
                with tracer.span("graph-build"):
                    if self.engine == "array":
                        from ..engine import ArrayGlobalGraph

                        graph: GlobalGraph = ArrayGlobalGraph(design)
                    else:
                        graph = GlobalGraph(design)
                order = self._bottom_up_order(design, graph)
                self._subnets = {
                    net.name: self.two_pin_subnets(net, graph) for net in order
                }

                routes: dict[str, GlobalRoute] = {}
                failed: list[str] = []
                with tracer.span("initial-pass") as span:
                    stats: dict[str, float] = {}
                    self._route_many(
                        graph, order, routes, failed, stats, pool, span
                    )
                    span.count(
                        "maze_expansions", stats.get("maze_expansions", 0)
                    )
                    self._flush_stage_counters(span, stats)
                    span.count("nets_routed", len(routes))
                    span.gauge("edge_overflow", graph.edge_overflow())
                    span.gauge(
                        "vertex_overflow", graph.total_vertex_overflow()
                    )

                for round_index in range(self.ripup_rounds):
                    victims = self._overflow_victims(graph, routes)
                    if not victims:
                        break
                    with tracer.span(
                        "negotiation-round", round=round_index
                    ) as span:
                        stats = {}
                        self._bump_history(graph)
                        for name in victims:
                            self._unplace(graph, routes.pop(name))
                        victim_nets = [
                            design.netlist[name] for name in victims
                        ]
                        self._route_many(
                            graph, victim_nets, routes, failed, stats,
                            pool, span,
                        )
                        span.count(
                            "maze_expansions", stats.get("maze_expansions", 0)
                        )
                        self._flush_stage_counters(span, stats)
                        span.count("ripup_victims", len(victims))
                        span.gauge("edge_overflow", graph.edge_overflow())
                        span.gauge(
                            "vertex_overflow", graph.total_vertex_overflow()
                        )
                stage.count("failed_nets", len(failed))
                if self.sanitize:
                    # Explicit zero: a clean sanitized run reports the
                    # counter so rollups can assert on its presence.
                    stage.count("sanitize_violations", 0)
                if pool is not None:
                    stage.count("parallel_tasks", pool.tasks)
                    stage.gauge(
                        "worker_utilization", round(pool.utilization(), 4)
                    )
                if self._profiling:
                    # Cost-cache churn lives on the array graph (the
                    # object engine has no caches — counters absent).
                    refreshes = getattr(graph, "perf_cache_refreshes", None)
                    if refreshes is not None:
                        stage.count("perf_cache_refreshes", refreshes)
                        stage.count(
                            "perf_cache_updates",
                            getattr(graph, "perf_cache_updates", 0),
                        )
        finally:
            self._tracer = None
            self._subnets = {}
            if pool is not None:
                pool.shutdown()

        return GlobalRoutingResult(
            design=design,
            graph=graph,
            routes=routes,
            failed=failed,
            cpu_seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _flush_stage_counters(span: Span, stats: dict[str, float]) -> None:
        """Report accumulated sanitizer/profiling counters on ``span``.

        Flushed (and zeroed) per pass and per negotiation round, so the
        ``perf_*`` engine counters land on the round that incurred them.
        """
        for name in sorted(stats):
            if name.startswith(("sanitize_", "perf_")):
                span.count(name, stats[name])
                stats[name] = 0

    # ------------------------------------------------------------------
    # Net-batch scheduling (workers > 1)
    # ------------------------------------------------------------------
    def _route_many(
        self,
        graph: GlobalGraph,
        nets: Sequence[Net],
        routes: dict[str, GlobalRoute],
        failed: list[str],
        stats: dict[str, float],
        pool: Optional[BatchExecutor],
        span: Span,
    ) -> None:
        """Route ``nets`` in order, batching onto the pool when given.

        The serial loop and the batched loop commit identical state:
        batches hold bbox-disjoint nets routed speculatively against a
        :class:`GraphSnapshot`, then merged in canonical net order —
        a net whose search windows touch an earlier batch-mate's
        placed tiles is discarded and re-routed on the live graph, so
        every committed route (and every committed counter) is the one
        the serial loop would have produced.
        """
        if pool is None or len(nets) < 2:
            for net in nets:
                route = self._route_net(graph, net, stats)
                self._commit(routes, failed, net, route)
                if self._tracer is not None:
                    self._tracer.progress(
                        "net",
                        stage="global",
                        net=net.name,
                        routed=route is not None,
                    )
            return

        plan = plan_batches(
            nets,
            rect_of=lambda n: self._net_tile_rect(graph, n),
            expand=ASTAR_WINDOW_MARGIN,
        )
        conflicts = 0
        for batch in plan:
            if len(batch) == 1:
                net = batch[0]
                self._commit(
                    routes, failed, net, self._route_net(graph, net, stats)
                )
                continue
            results = pool.run(
                lambda net: self._route_speculative(graph, net), batch
            )
            if self._profiling:
                # One demand snapshot per speculative net (counted on
                # the main thread; workers never touch shared stats).
                stats["perf_snapshot_clones"] = (
                    stats.get("perf_snapshot_clones", 0) + len(batch)
                )
            written: set = set()
            for net, (route, net_stats, windows) in zip(batch, results):
                if windows_hit(windows, written):
                    # The speculative search read state an earlier
                    # batch-mate has since changed; redo it serially.
                    conflicts += 1
                    route = self._route_net(graph, net, stats)
                else:
                    for name, value in net_stats.items():
                        stats[name] = stats.get(name, 0) + value
                    if route is not None:
                        for path in route.paths:
                            self._place_path(graph, path)
                if route is not None:
                    written.update(t for p in route.paths for t in p)
                self._commit(routes, failed, net, route)
                if self._tracer is not None:
                    self._tracer.progress(
                        "net",
                        stage="global",
                        net=net.name,
                        routed=route is not None,
                    )
        span.count("parallel_batches", len(plan))
        span.count("parallel_conflicts", conflicts)
        span.gauge("parallel_max_batch_width", plan.max_width)
        span.gauge("parallel_mean_batch_width", round(plan.mean_width, 3))

    def _route_speculative(
        self, graph: GlobalGraph, net: Net
    ) -> tuple[Optional[GlobalRoute], dict[str, float], list[tuple[int, int, int, int]]]:
        """Worker body: route one net against a demand snapshot.

        Returns the route (not yet placed on the live graph), the
        net's local search counters, and every A* window searched —
        the declared read region the merge loop validates.
        """
        stats: dict[str, float] = {}
        windows: list[tuple[int, int, int, int]] = []
        if self.sanitize:
            # Imported lazily: repro.analysis is a downstream tool
            # layer; the routers must not depend on it by default.
            from ..analysis.sanitize import SanitizedGraphSnapshot

            snapshot = SanitizedGraphSnapshot(graph)
            route = self._route_net(snapshot, net, stats, windows)
            snapshot.verify(windows, stats)
        else:
            snapshot = graph.snapshot()
            route = self._route_net(snapshot, net, stats, windows)
        return route, stats, windows

    def _net_tile_rect(
        self, graph: GlobalGraph, net: Net
    ) -> tuple[int, int, int, int]:
        """Inclusive tile-space bbox of the net's pins."""
        box = net.bbox
        lo = graph.tile_of(box.lo_x, box.lo_y)
        hi = graph.tile_of(box.hi_x, box.hi_y)
        return (lo[0], lo[1], hi[0], hi[1])

    @staticmethod
    def _commit(
        routes: dict[str, GlobalRoute],
        failed: list[str],
        net: Net,
        route: Optional[GlobalRoute],
    ) -> None:
        """Record one routing outcome exactly as the serial loop does."""
        if route is None:
            failed.append(net.name)
        else:
            routes[net.name] = route

    # ------------------------------------------------------------------
    # Net ordering and decomposition
    # ------------------------------------------------------------------
    def _bottom_up_order(
        self, design: Design, graph: GlobalGraph
    ) -> list[Net]:
        """Local nets first: sort by bbox extent in tiles (Section II-B)."""

        def level(net: Net) -> tuple[int, int, str]:
            box = net.bbox
            lo = graph.tile_of(box.lo_x, box.lo_y)
            hi = graph.tile_of(box.hi_x, box.hi_y)
            extent = max(hi[0] - lo[0], hi[1] - lo[1])
            return (extent, net.hpwl, net.name)

        return sorted(design.netlist, key=level)

    def two_pin_subnets(
        self, net: Net, graph: GlobalGraph
    ) -> list[tuple[Tile, Tile]]:
        """Two-pin decomposition over the net's pin tiles.

        Prim spanning tree by default; with ``steiner=True`` the edges
        come from a greedy 1-Steiner tree over the tile coordinates
        (added Steiner tiles become ordinary path endpoints).
        """
        tiles: list[Tile] = []
        seen = set()
        for pin in net.pins:
            t = graph.tile_of(pin.location.x, pin.location.y)
            if t not in seen:
                seen.add(t)
                tiles.append(t)
        if len(tiles) < 2:
            return []
        if self.steiner and len(tiles) > 2:
            return [tuple(e) for e in steiner_tree_edges(tiles)]
        in_tree = {0}
        edges: list[tuple[Tile, Tile]] = []
        dist = {
            idx: (abs(t[0] - tiles[0][0]) + abs(t[1] - tiles[0][1]), 0)
            for idx, t in enumerate(tiles)
        }
        while len(in_tree) < len(tiles):
            best = min(
                (idx for idx in range(len(tiles)) if idx not in in_tree),
                key=lambda idx: dist[idx][0],
            )
            parent = dist[best][1]
            edges.append((tiles[parent], tiles[best]))
            in_tree.add(best)
            for idx, t in enumerate(tiles):
                if idx in in_tree:
                    continue
                d = abs(t[0] - tiles[best][0]) + abs(t[1] - tiles[best][1])
                if d < dist[idx][0]:
                    dist[idx] = (d, best)
        return edges

    # ------------------------------------------------------------------
    # Single-net routing
    # ------------------------------------------------------------------
    def _route_net(
        self,
        graph: GlobalGraph,
        net: Net,
        stats: Optional[dict[str, float]] = None,
        windows: Optional[list[tuple[int, int, int, int]]] = None,
    ) -> Optional[GlobalRoute]:
        """Route one net on ``graph`` (live graph or worker snapshot).

        ``stats`` accumulates the net's maze expansions; ``windows``,
        when given, collects every searched window — speculative
        callers use it as the net's read footprint.
        """
        if stats is None:
            stats = {}
        subnets = self._subnets.get(net.name)
        if subnets is None:
            subnets = self.two_pin_subnets(net, graph)
        paths: list[list[Tile]] = []
        for src, dst in subnets:
            path = self._astar(graph, src, dst, stats, windows)
            if path is None:
                for placed in paths:
                    self._unplace_path(graph, placed)
                return None
            self._place_path(graph, path)
            paths.append(path)
        return GlobalRoute(net=net, paths=paths)

    def _astar(
        self,
        graph: GlobalGraph,
        src: Tile,
        dst: Tile,
        stats: Optional[dict[str, float]] = None,
        windows: Optional[list[tuple[int, int, int, int]]] = None,
    ) -> Optional[list[Tile]]:
        if stats is None:
            stats = {}
        margin = ASTAR_WINDOW_MARGIN
        lo_x = max(0, min(src[0], dst[0]) - margin)
        hi_x = min(graph.nx - 1, max(src[0], dst[0]) + margin)
        lo_y = max(0, min(src[1], dst[1]) - margin)
        hi_y = min(graph.ny - 1, max(src[1], dst[1]) + margin)
        window = (lo_x, lo_y, hi_x, hi_y)
        if windows is not None:
            windows.append(window)
        path = self._astar_in_window(graph, src, dst, window, stats)
        if path is None:
            full = (0, 0, graph.nx - 1, graph.ny - 1)
            if windows is not None:
                windows.append(full)
            path = self._astar_in_window(graph, src, dst, full, stats)
        return path

    @paired("global-maze", backend="object")
    def _astar_in_window(
        self,
        graph: GlobalGraph,
        src: Tile,
        dst: Tile,
        window: tuple[int, int, int, int],
        stats: dict[str, float],
    ) -> Optional[list[Tile]]:
        """Direction-aware A* between two tiles.

        Search states carry the arrival direction so the vertex
        (line-end) cost of Eq. (2) is charged exactly where a vertical
        run starts or ends — the tiles whose line-end demand the path
        will raise — rather than diffusely along the whole path.
        """
        lo_x, lo_y, hi_x, hi_y = window
        if src == dst:
            return [src]
        fast = getattr(graph, "astar_in_window", None)
        if fast is not None:
            # Array-core fast path (repro.engine): same direction-aware
            # loop over integer state ids against the graph's cost
            # caches, byte-identical result and counters.  Sanitized
            # snapshots expose no astar_in_window, so instrumented runs
            # fall through to the reference loop below.
            return fast(
                src, dst, window, self.stitch_aware, stats, self._profiling
            )

        def heuristic(t: Tile) -> float:
            return WL_WEIGHT * (abs(t[0] - dst[0]) + abs(t[1] - dst[1]))

        # State: (tile, direction); direction is "h", "v", or "" at src.
        start = (src, "")
        best: dict[tuple[Tile, str], float] = {start: 0.0}
        parent: dict[tuple[Tile, str], tuple[Tile, str]] = {}
        heap: list[tuple[float, float, tuple[Tile, str]]] = [
            (heuristic(src), 0.0, start)
        ]
        goal: Optional[tuple[Tile, str]] = None
        expansions = 0
        pops = 0
        while heap:
            _, g, state = heapq.heappop(heap)
            pops += 1
            if g > best.get(state, float("inf")):
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
                key = graph.edge_between(tile, succ)
                step = WL_WEIGHT + edge_cost_if_used(graph, key)
                if self.stitch_aware:
                    if step_dir == "v" and direction != "v":
                        # A vertical run starts: line end at this tile.
                        step += self._vertex_price(graph, tile)
                    if direction == "v" and step_dir != "v":
                        # A vertical run just ended at this tile.
                        step += self._vertex_price(graph, tile)
                    if step_dir == "v" and succ == dst:
                        # The run will terminate at the target tile.
                        step += self._vertex_price(graph, succ)
                candidate = g + step
                succ_state = (succ, step_dir)
                if candidate < best.get(succ_state, float("inf")) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heapq.heappush(
                        heap, (candidate + heuristic(succ), candidate, succ_state)
                    )
        stats["maze_expansions"] = stats.get("maze_expansions", 0) + expansions
        if self._profiling:
            # pushes == pops + len(heap) (heap invariant — the seed
            # entry counts as a push), so one add per pop suffices.
            stats["perf_maze_heap_pushes"] = (
                stats.get("perf_maze_heap_pushes", 0) + pops + len(heap)
            )
            stats["perf_maze_heap_pops"] = (
                stats.get("perf_maze_heap_pops", 0) + pops
            )
        if goal is None:
            return None
        return self._reconstruct(parent, start, goal)

    def _vertex_price(self, graph: GlobalGraph, tile: Tile) -> float:
        # The base price (Eq. 2) is kept mild so uncongested paths stay
        # short; persistent overflow is negotiated away through the
        # history term, which only grows where overflow survives a
        # rip-up round.  This mirrors NTUgr-style pricing and keeps the
        # wirelength overhead in the paper's ~1.5% band.
        return vertex_price(graph, tile)

    @staticmethod
    def _reconstruct(
        parent: dict[tuple[Tile, str], tuple[Tile, str]],
        start: tuple[Tile, str],
        goal: tuple[Tile, str],
    ) -> list[Tile]:
        states = [goal]
        while states[-1] != start:
            states.append(parent[states[-1]])
        states.reverse()
        return [tile for tile, _ in states]

    # ------------------------------------------------------------------
    # Demand bookkeeping
    # ------------------------------------------------------------------
    def _place_path(self, graph: GlobalGraph, path: Sequence[Tile]) -> None:
        graph.apply_path(path, +1)

    def _unplace_path(self, graph: GlobalGraph, path: Sequence[Tile]) -> None:
        graph.apply_path(path, -1)

    def _unplace(self, graph: GlobalGraph, route: GlobalRoute) -> None:
        for path in route.paths:
            self._unplace_path(graph, path)

    # ------------------------------------------------------------------
    # Negotiation
    # ------------------------------------------------------------------
    def _overflow_victims(
        self, graph: GlobalGraph, routes: dict[str, GlobalRoute]
    ) -> list[str]:
        """Nets crossing an overflowed edge or, in stitch-aware mode,
        holding a line end on a vertex-overflowed tile.

        The overflowed resources are collected once per call (one per
        negotiation round): each overflowed edge as the two tile steps
        that cross it, each overflowed tile as itself.
        """
        over_steps: set[tuple[Tile, Tile]] = set()
        for i, j in np.argwhere(graph.h_demand > graph.h_capacity).tolist():
            over_steps.update((((i, j), (i + 1, j)), ((i + 1, j), (i, j))))
        for i, j in np.argwhere(graph.v_demand > graph.v_capacity).tolist():
            over_steps.update((((i, j), (i, j + 1)), ((i, j + 1), (i, j))))
        over_tiles: set[Tile] = set()
        if self.stitch_aware:
            over_tiles = {
                (i, j)
                for i, j in np.argwhere(
                    graph.vertex_demand > graph.vertex_capacity
                ).tolist()
            }
        victims: list[str] = []
        for name, route in routes.items():
            for path in route.paths:
                if any(step in over_steps for step in zip(path, path[1:])) or (
                    over_tiles
                    and any(t in over_tiles for t in vertical_run_line_ends(path))
                ):
                    victims.append(name)
                    break
        return victims

    def _bump_history(self, graph: GlobalGraph) -> None:
        """Raise history cost on currently overflowed resources."""
        over_h = graph.h_demand > graph.h_capacity
        over_v = graph.v_demand > graph.v_capacity
        graph.h_history[over_h] += 0.5
        graph.v_history[over_v] += 0.5
        if self.stitch_aware:
            over_vertex = graph.vertex_demand > graph.vertex_capacity
            graph.vertex_history[over_vertex] += 0.5
        # History feeds the array engine's cost caches; rebuild them
        # after mutating it behind the graph's back.
        refresh = getattr(graph, "refresh_cost_cache", None)
        if refresh is not None:
            refresh()
