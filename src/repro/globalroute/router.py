"""Sequential congestion-driven global routing.

Nets are decomposed into two-pin subnets (Prim spanning tree over the
pins), ordered bottom-up by their own tile extent (nets local to
smaller tile neighbourhoods first, Section II-B; this is not the
multilevel scheme's level order, which the detailed pass uses), and
routed by A* on the tile graph.  In stitch-aware mode the path cost follows Eq. (3):
edge congestion plus the vertex (line-end) congestion term; the
baseline mode — standing in for NTUgr [5] — prices edges only.

A negotiation-style rip-up and re-route loop with history costs cleans
up edge overflow, mirroring NTUgr's overflow reduction.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence
from typing import Optional

from ..layout import Design, Net
from ..observe import Span, Tracer, ensure
from .graph import GlobalGraph, Tile

#: Tile margin of the A* window around a subnet's two end tiles.  The
#: window holds both ends and every tile step has a finite price, so
#: the search always finds a path inside it.
ASTAR_WINDOW_MARGIN = 4

#: A maze search of a two-pin subnet: its two end tiles and its
#: window (inclusive ``lo_x, lo_y, hi_x, hi_y`` tile bounds).
Search = tuple[Tile, Tile, tuple[int, int, int, int]]

#: Negotiation (rip-up and re-route) rounds after the initial pass.
RIPUP_ROUNDS = 8


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
    """Outcome of global routing a design.

    ``failed`` is always empty: every subnet search finds a path.
    """

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
        profile: ``"off"`` / ``"counters"``.  ``"counters"`` flushes
            search-level ``perf_*`` counters (maze heap pushes/pops,
            cost-cache refreshes and incremental updates) per pass and
            negotiation round (see ``docs/observability.md``).

    Every routed net, negotiation re-routes included, is reported
    through :meth:`Tracer.progress` as a ``net`` event with
    ``stage="global"``.
    """

    def __init__(
        self,
        stitch_aware: bool = True,
        profile: str = "off",
    ) -> None:
        if profile not in ("off", "counters"):
            raise ValueError(
                f"profile must be 'off' or 'counters', got {profile!r}"
            )
        self.stitch_aware = stitch_aware
        self.profile = profile
        self._profiling = profile != "off"
        #: The subnet searches of every net of the current ``route()``
        #: call, computed once per net (they depend only on pin tiles).
        self._searches: dict[str, list[Search]] = {}

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
        start = time.perf_counter()
        try:
            with tracer.span("global-route") as stage:
                with tracer.span("graph-build"):
                    graph = GlobalGraph(design)
                order = self._bottom_up_order(design, graph)
                self._searches = {
                    net.name: self._subnet_searches(net, graph) for net in order
                }

                routes: dict[str, GlobalRoute] = {}
                with tracer.span("initial-pass") as span:
                    stats: dict[str, float] = {}
                    self._route_many(graph, order, routes, stats, tracer)
                    span.count(
                        "maze_expansions", stats.get("maze_expansions", 0)
                    )
                    self._flush_stage_counters(span, stats)
                    span.count("nets_routed", len(routes))
                    span.gauge("edge_overflow", graph.edge_overflow())
                    span.gauge(
                        "vertex_overflow", graph.total_vertex_overflow()
                    )

                for round_index in range(RIPUP_ROUNDS):
                    victims = self._overflow_victims(graph, routes)
                    if not victims:
                        break
                    with tracer.span(
                        "negotiation-round", round=round_index
                    ) as span:
                        stats = {}
                        graph.bump_history(line_ends=self.stitch_aware)
                        for name in victims:
                            for path in routes.pop(name).paths:
                                graph.apply_path(path, -1)
                        victim_nets = [
                            design.netlist[name] for name in victims
                        ]
                        self._route_many(
                            graph, victim_nets, routes, stats, tracer
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
                # Every subnet search succeeds (see _route_net).
                stage.count("failed_nets", 0)
                if self._profiling:
                    stage.count(
                        "perf_cache_refreshes", graph.perf_cache_refreshes
                    )
                    stage.count("perf_cache_updates", graph.perf_cache_updates)
        finally:
            self._searches = {}

        return GlobalRoutingResult(
            design=design,
            graph=graph,
            routes=routes,
            failed=[],
            cpu_seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _flush_stage_counters(span: Span, stats: dict[str, float]) -> None:
        """Report accumulated profiling counters on ``span``.

        Flushed (and zeroed) per pass and per negotiation round, so the
        ``perf_*`` search counters land on the round that incurred them.
        """
        for name in sorted(stats):
            if name.startswith("perf_"):
                span.count(name, stats[name])
                stats[name] = 0

    def _route_many(
        self,
        graph: GlobalGraph,
        nets: Sequence[Net],
        routes: dict[str, GlobalRoute],
        stats: dict[str, float],
        tracer: Tracer,
    ) -> None:
        """Route ``nets`` in order; each sees what earlier ones placed."""
        for net in nets:
            routes[net.name] = self._route_net(graph, net, stats)
            tracer.progress("net", stage="global", net=net.name, routed=True)

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
        """Two-pin decomposition over the net's pin tiles (Prim tree)."""
        tiles: list[Tile] = []
        seen = set()
        for pin in net.pins:
            t = graph.tile_of(pin.location.x, pin.location.y)
            if t not in seen:
                seen.add(t)
                tiles.append(t)
        if len(tiles) < 2:
            return []
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

    def _subnet_searches(self, net: Net, graph: GlobalGraph) -> list[Search]:
        """The maze search of each two-pin subnet of ``net``: its end
        tiles and the ``ASTAR_WINDOW_MARGIN`` box around them."""
        margin = ASTAR_WINDOW_MARGIN
        return [
            (
                src,
                dst,
                (
                    max(0, min(src[0], dst[0]) - margin),
                    max(0, min(src[1], dst[1]) - margin),
                    min(graph.nx - 1, max(src[0], dst[0]) + margin),
                    min(graph.ny - 1, max(src[1], dst[1]) + margin),
                ),
            )
            for src, dst in self.two_pin_subnets(net, graph)
        ]

    # ------------------------------------------------------------------
    # Single-net routing
    # ------------------------------------------------------------------
    def _route_net(
        self, graph: GlobalGraph, net: Net, stats: dict[str, float]
    ) -> GlobalRoute:
        """Route one net of the current ``route()`` call on ``graph``,
        placing its demand.

        Each subnet is searched in its window, which holds both end
        tiles; every tile step has a finite price, so the search always
        finds a path.  ``stats`` accumulates the net's maze expansions.
        """
        paths: list[list[Tile]] = []
        for src, dst, window in self._searches[net.name]:
            path = self._astar_in_window(graph, src, dst, window, stats)
            if path is None:
                raise RuntimeError(
                    f"global maze found no path for net {net.name!r} "
                    f"from tile {src} to tile {dst}"
                )
            graph.apply_path(path, +1)
            paths.append(path)
        return GlobalRoute(net=net, paths=paths)

    def _astar_in_window(
        self,
        graph: GlobalGraph,
        src: Tile,
        dst: Tile,
        window: tuple[int, int, int, int],
        stats: dict[str, float],
    ) -> Optional[list[Tile]]:
        """Direction-aware A* between two tiles
        (:meth:`GlobalGraph.astar_in_window`), the one maze call of the
        router: ``tests/engine`` replaces it with the reference maze."""
        if src == dst:
            return [src]
        return graph.astar_in_window(
            src, dst, window, self.stitch_aware, stats, self._profiling
        )

    # ------------------------------------------------------------------
    # Negotiation
    # ------------------------------------------------------------------
    def _overflow_victims(
        self, graph: GlobalGraph, routes: dict[str, GlobalRoute]
    ) -> list[str]:
        """Nets crossing an overflowed edge or, in stitch-aware mode,
        holding a line end on a vertex-overflowed tile
        (:meth:`GlobalGraph.overflowed`, once per negotiation round,
        against :meth:`GlobalGraph.path_codes` of every path)."""
        over_h, over_v, over_tiles = graph.overflowed()
        if not self.stitch_aware:
            over_tiles = set()
        path_codes = graph.path_codes
        victims: list[str] = []
        for name, route in routes.items():
            for path in route.paths:
                h_codes, v_codes, ends = path_codes(path)
                if not (
                    over_h.isdisjoint(h_codes)
                    and over_v.isdisjoint(v_codes)
                    and over_tiles.isdisjoint(ends)
                ):
                    victims.append(name)
                    break
        return victims
