"""Stitch-aware detailed routing (Section III-D).

Connects each net's pins and trunk pieces into one electrically
connected tree with A* searches under the Eq. (10) cost, using:

* **stitch-aware net ordering** — nets with more bad ends from track
  assignment are routed first so their escapes still find resources
  (Fig. 14);
* **rip-up and re-route** — a failed net reconnects its surviving wire
  (salvage), then is ripped and re-routed directly, and last negotiates
  a path through other nets' wire, whose owners re-route in turn.

The baseline mode (``stitch_aware=False``) keeps the hard MEBL
constraints (wires cross stitching lines in the x direction only, no
vias on lines except fixed pins — Section IV-A gives the baseline the
same legality) but drops the beta/gamma costs and uses conventional
net ordering.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence
from typing import Optional

from ..assign import DesignTrackAssignment
from ..globalroute import GlobalGraph
from ..layout import Design, Net
from ..observe import Tracer, ensure
from .grid import DetailedGrid, Node
from .search import astar_connect, connection_window, search_ends, separated
from .trunks import TrunkPiece, materialize_trunks
from .wiring import (
    Edge,
    nodes_of_edges,
    path_edges,
    short_polygon_sites,
    trim_dangling,
)

#: Successive window margins for connection attempts.
WINDOW_MARGINS = (6, 16, 48)

#: Margins for direct (trunk-less) re-routes: failed nets usually span
#: several tiles, so the smallest window is rarely sufficient and only
#: wastes a full failed search.
DIRECT_WINDOW_MARGINS = (16, 48)

#: Pass-through cost of one foreign wire node in a negotiated search.
NEGOTIATION_PENALTY = 30.0

#: The one window of every negotiated search; a 48-pitch retry never
#: won (docs/performance.md, "The detailed cascade").
NEGOTIATED_WINDOW_MARGINS = (16,)

#: Rip-up and re-route rounds for the nets the first pass fails.
RIPUP_ROUNDS = 5

#: A* node-expansion budget of one connection search; keeps worst-case
#: detailed routing bounded.
EXPANSION_LIMIT = 200_000


@dataclasses.dataclass
class RoutedNet:
    """Final routing state of one net."""

    net: Net
    nodes: set[Node]
    edges: set[Edge]
    routed: bool

    @property
    def pin_nodes(self) -> set[Node]:
        """Grid nodes of the net's pins."""
        return {
            (p.location.x, p.location.y, p.layer) for p in self.net.pins
        }


@dataclasses.dataclass
class DetailedResult:
    """Outcome of detailed routing a design."""

    design: Design
    nets: dict[str, RoutedNet]
    failed: list[str]
    cpu_seconds: float

    @property
    def routability(self) -> float:
        """Fraction of nets fully routed (Table III definition)."""
        total = len(self.nets)
        if total == 0:
            return 1.0
        routed = sum(1 for rn in self.nets.values() if rn.routed)
        return routed / total


class DetailedRouter:
    """Two-pass detailed router over materialized trunks.

    Args:
        stitch_aware: include the beta/gamma costs of Eq. (10) and the
            stitch-aware net ordering.
        profile: ``"off"`` / ``"counters"``.  ``"counters"`` flushes
            search-level ``perf_*`` counters (heap pushes/pops, rip-up
            net visits) at stage boundaries (see
            ``docs/observability.md``).

    Every net of the first pass is reported through
    :meth:`Tracer.progress` as a ``net`` event with
    ``stage="detailed"``.
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
        #: A* search counters flushed into the tracer at stage end.
        self._search_stats: dict[str, float] = {}

    def route(
        self,
        design: Design,
        graph: GlobalGraph,
        assignment: DesignTrackAssignment,
        order: Sequence[Net],
        tracer: Optional[Tracer] = None,
    ) -> DetailedResult:
        """Detail-route every net of ``design``.

        Args:
            design: the routing instance.
            graph: the global routing graph (for tile geometry).
            assignment: the track assignment whose trunks to realize.
            order: every net of ``design`` once, in the order to route
                them (the flow passes the multilevel scheme's bottom-up
                order); the stitch-aware mode then moves nets with more
                bad ends first and keeps this order among equals.
            tracer: observability sink for spans and counters.

        Raises:
            ValueError: ``order`` misses a net of ``design``, repeats
                one or names a net the design does not have.
        """
        nets = list(order)
        _check_order(design, nets)
        tracer = ensure(tracer)
        start = time.perf_counter()
        self._search_stats = {}
        with tracer.span("detailed-route", nets=len(design.netlist)):
            with tracer.span("grid-build"):
                grid = DetailedGrid(design, stitch_aware=self.stitch_aware)
                # Fixed pins first: they own their nodes unconditionally.
                for net in nets:
                    for pin in net.pins:
                        node = (pin.location.x, pin.location.y, pin.layer)
                        if grid.owner(node) is None:
                            grid.occupy(node, net.name)
                            grid.mark_pin(node)

            with tracer.span("trunks"):
                trunk_pieces = materialize_trunks(
                    design, grid, graph, assignment
                )
            order = self._net_order(nets, assignment)

            routed: dict[str, RoutedNet] = {}
            failed: list[str] = []
            with tracer.span("first-pass"):
                self._first_pass(
                    design, grid, order, trunk_pieces, routed, failed, tracer
                )
                tracer.count("first_pass_failed", len(failed))

            failed = self._ripup_loop(
                design, grid, routed, failed, trunk_pieces, tracer
            )

            if self.stitch_aware:
                with tracer.span("short-polygon-repair"):
                    self._repair_short_polygons(
                        design, grid, routed, trunk_pieces
                    )

            for name, value in self._search_stats.items():
                tracer.count(name, value)
            tracer.count("stitch_cost_evaluations", grid.cost_evaluations)
            tracer.count("failed_nets", len(failed))

        return DetailedResult(
            design=design,
            nets=routed,
            failed=failed,
            cpu_seconds=time.perf_counter() - start,
        )

    def _first_pass(
        self,
        design: Design,
        grid: DetailedGrid,
        order: Sequence[Net],
        trunk_pieces: dict[str, list[TrunkPiece]],
        routed: dict[str, "RoutedNet"],
        failed: list[str],
        tracer: Tracer,
    ) -> None:
        """Connect every net once, in ``order``.

        A net that fails is queued for rip-up; so is every already
        routed net whose wire it force-claimed (a boxed pin negotiates
        through foreign wire).
        """
        for net in order:
            ok, nodes, edges, victims = self._connect_net(
                design, grid, net, trunk_pieces
            )
            routed[net.name] = RoutedNet(
                net=net, nodes=nodes, edges=edges, routed=ok
            )
            tracer.count("nets_attempted")
            tracer.progress("net", stage="detailed", net=net.name, routed=ok)
            if not ok:
                failed.append(net.name)
            for victim in sorted(victims):
                if victim in routed and routed[victim].routed:
                    routed[victim] = _strip_stolen(grid, routed[victim])
                    failed.append(victim)
                # Not-yet-routed victims lost trunk nodes only; their
                # own connection phase routes around the gaps.

    # ------------------------------------------------------------------
    def _ripup_loop(
        self,
        design: Design,
        grid: DetailedGrid,
        routed: dict[str, "RoutedNet"],
        failed: list[str],
        trunk_pieces: dict[str, list[TrunkPiece]],
        tracer: Optional[Tracer] = None,
    ) -> list[str]:
        """Negotiated rip-up and re-route of failed nets.

        Each round first reconnects the pieces of wire the net still
        owns (salvage), then rips the net and routes it directly over
        free nodes; if both fail, the net may buy a path through other
        nets' wire at a penalty, and the victims it crosses are ripped
        and queued for re-route in the same fashion.  Returns the nets
        still unrouted at the end, in queue order.
        """
        tracer = ensure(tracer)
        for round_index in range(RIPUP_ROUNDS):
            if not failed:
                break
            queue = list(dict.fromkeys(failed))
            next_failed: list[str] = []
            tracer.count("ripup_rounds")
            if self._profiling:
                self._search_stats["perf_ripup_net_visits"] = (
                    self._search_stats.get("perf_ripup_net_visits", 0)
                    + len(queue)
                )
            with tracer.span(
                "ripup-round", round=round_index, queued=len(queue)
            ):
                for name in queue:
                    record = routed[name]
                    # A net whose first pass stopped at a captured pin
                    # still owns trunk wire outside its record.
                    live_trunk = grid.owned_by(
                        (
                            node
                            for piece in trunk_pieces.get(name, [])
                            for node in piece.nodes
                        ),
                        name,
                    )
                    ok = False
                    nodes: set[Node] = set()
                    edges: set[Edge] = set()
                    salvage = _salvage_components(grid, record)
                    if salvage is not None:
                        ok, nodes, edges, _ = self._connect_net(
                            design,
                            grid,
                            record.net,
                            {},
                            direct=True,
                            salvage=salvage,
                            allow_negotiation=False,
                        )
                        if not ok:
                            record = RoutedNet(
                                net=record.net,
                                nodes=nodes | record.nodes,
                                edges=edges | record.edges,
                                routed=False,
                            )
                    if not ok:
                        self._rip(grid, record)
                        for node in sorted(live_trunk):
                            grid.release(node, name)
                        ok, nodes, edges, _ = self._connect_net(
                            design, grid, record.net, {}, direct=True
                        )
                    if not ok:
                        ok, nodes, edges, victims = self._connect_net(
                            design,
                            grid,
                            record.net,
                            {},
                            direct=True,
                            foreign_penalty=NEGOTIATION_PENALTY,
                        )
                        for victim in sorted(victims):
                            if victim in routed:
                                routed[victim] = _strip_stolen(
                                    grid, routed[victim]
                                )
                                next_failed.append(victim)
                    routed[name] = RoutedNet(
                        net=record.net, nodes=nodes, edges=edges, routed=ok
                    )
                    if not ok:
                        next_failed.append(name)
                    tracer.count("reroutes")
            if set(next_failed) == set(failed):
                break
            failed = list(dict.fromkeys(next_failed))
        # A victim ripped earlier in a round may be re-routed later in
        # the same round; the queue keeps it, the result must not.
        return [name for name in failed if not routed[name].routed]

    @staticmethod
    def _rip(grid: DetailedGrid, record: "RoutedNet") -> None:
        """Release a net's wire, keeping its pin nodes claimed.

        Pins are never released: a free pin node is passable to every
        net, so a later search of another net could route through it
        and leave the pin's own net unroutable.
        """
        name = record.net.name
        pin_nodes = record.pin_nodes
        for node in record.nodes - pin_nodes:
            grid.release(node, name)
        for pin_node in pin_nodes:
            if grid.owner(pin_node) is None:
                grid.occupy(pin_node, name)

    # ------------------------------------------------------------------
    def _repair_short_polygons(
        self,
        design: Design,
        grid: DetailedGrid,
        routed: dict[str, "RoutedNet"],
        trunk_pieces: dict[str, list[TrunkPiece]],
    ) -> None:
        """Re-route connections whose wires still form short polygons.

        The repair is surgical and respects the track assignment: the
        net's trunk wire stays in place; only the A*-made connections
        are ripped and re-found with the offending line crossings
        blocked, forcing the wire to reach its end from the
        non-crossing side (or cross on a different track).

        Short polygons whose bad end sits *on a trunk* (a bad end the
        track assignment left behind) are not repairable here — moving
        them would undo the assignment — so they remain, exactly as in
        the paper, where only better track assignment removes them.
        A net that cannot be improved keeps its original route.
        """
        stitches = design.stitches
        assert stitches is not None
        blocked_per_net: dict[str, set[Node]] = {}
        for _ in range(2):
            victims = []
            for name, record in routed.items():
                if not record.routed:
                    continue
                trunk_nodes = {
                    node
                    for piece in trunk_pieces.get(name, [])
                    for node in piece.nodes
                    if node in record.nodes
                }
                sites = [
                    site
                    for site in short_polygon_sites(
                        record.edges, record.pin_nodes, stitches
                    )
                    if site[1] not in trunk_nodes  # end anchored off-trunk
                ]
                if sites:
                    victims.append((name, sites, trunk_nodes))
            if not victims:
                return
            progressed = False
            for name, sites, trunk_nodes in victims:
                record = routed[name]
                blocked = blocked_per_net.setdefault(name, set())
                blocked.update(crossing for crossing, _end in sites)
                saved_nodes, saved_edges = record.nodes, record.edges
                before = len(
                    short_polygon_sites(
                        record.edges, record.pin_nodes, stitches
                    )
                )
                # Rip connections only; trunks and pins stay claimed.
                keep = trunk_nodes | record.pin_nodes
                for node in sorted(saved_nodes - keep):
                    grid.release(node, name)
                fragments = _piece_fragments(
                    trunk_pieces.get(name, []), trunk_nodes
                )
                ok, nodes, edges, _ = self._connect_net(
                    design,
                    grid,
                    record.net,
                    {name: fragments},
                    blocked=blocked,
                    allow_negotiation=False,
                )
                repaired = ok and len(
                    short_polygon_sites(edges, record.pin_nodes, stitches)
                ) < before
                if not repaired:
                    # Restore the original route.
                    for node in nodes:
                        grid.release(node, name)
                    for node in saved_nodes:
                        grid.occupy(node, name)
                    routed[name] = RoutedNet(
                        net=record.net,
                        nodes=saved_nodes,
                        edges=saved_edges,
                        routed=record.routed,
                    )
                else:
                    progressed = True
                    routed[name] = RoutedNet(
                        net=record.net, nodes=nodes, edges=edges, routed=True
                    )
            if not progressed:
                return

    # ------------------------------------------------------------------
    def _net_order(
        self, nets: Sequence[Net], assignment: DesignTrackAssignment
    ) -> list[Net]:
        """Stitch-aware: more bad ends first (Section III-D2)."""
        if not self.stitch_aware:
            return list(nets)
        bad_ends = assignment.bad_ends_per_net()
        base_rank = {net.name: pos for pos, net in enumerate(nets)}
        return sorted(
            nets,
            key=lambda n: (-bad_ends.get(n.name, 0), base_rank[n.name]),
        )

    def _connect_net(
        self,
        design: Design,
        grid: DetailedGrid,
        net: Net,
        trunk_pieces: dict[str, list[TrunkPiece]],
        direct: bool = False,
        blocked: Optional[set[Node]] = None,
        foreign_penalty: Optional[float] = None,
        allow_negotiation: bool = True,
        salvage: Optional[tuple[list[set[Node]], set[Edge]]] = None,
    ) -> tuple[bool, set[Node], set[Edge], set[str]]:
        """Merge the net's pins and trunks into one component.

        Returns ``(ok, nodes, edges, victims)``; ``victims`` is the set
        of nets whose wire a negotiated search force-claimed (the
        re-route under ``foreign_penalty``, or a boxed pin's attach).
        """
        pin_components: list[set[Node]] = []
        edges: set[Edge] = set()
        victims: set[str] = set()
        seen_pins = set()
        for pin in net.pins:
            node = (pin.location.x, pin.location.y, pin.layer)
            if grid.owner(node) != net.name:
                # Pin location captured by another net (malformed
                # input); the net cannot be legally completed.
                return False, set(), set(), victims
            if node not in seen_pins:
                seen_pins.add(node)
                pin_components.append({node})
        trunk_components: list[set[Node]] = []
        if salvage is not None:
            # Minimal repair: reconnect the net's surviving wire
            # instead of rebuilding from scratch.
            salvage_components, salvage_edges = salvage
            trunk_components.extend(
                set(comp) for comp in salvage_components if comp
            )
            edges |= salvage_edges
        if not direct:
            raw_pieces = trunk_pieces.get(net.name, [])
            # Negotiated rip-up may have stolen parts of the trunks
            # (e.g. before this net's first routing turn); only wire
            # the net still owns belongs in its components.
            owned = grid.owned_by(
                (node for piece in raw_pieces for node in piece.nodes),
                net.name,
            )
            pieces = _piece_fragments(raw_pieces, owned)
            for piece in pieces:
                trunk_components.append(piece.node_set)
                edges |= path_edges(piece.nodes)
            # Segment-to-segment connections happen at the assigned
            # crossing points (the paper's model: a via joins two
            # segments where they intersect; the line-end position is
            # fixed by track assignment, not negotiable by the router).
            via_edges, via_components = _preconnect_crossings(
                grid, net.name, pieces
            )
            edges |= via_edges
            trunk_components.extend(via_components)
        trunk_components = _merge_overlapping(trunk_components)

        all_nodes: set[Node] = set()
        for comp in pin_components + trunk_components:
            all_nodes |= comp
        blocked_ids = None if blocked is None else search_ends(grid, blocked)[0]

        def connect_round(
            components: list[set[Node]],
            target_filter: Optional[set[Node]] = None,
            margins: Optional[tuple[int, ...]] = None,
            penalty: Optional[float] = None,
        ) -> tuple[bool, list[set[Node]]]:
            """Merge components until one remains; updates closure state.

            ``target_filter`` restricts where the search may terminate
            (pin-to-*segment* routing: a pin must reach the assigned
            wire, not shortcut onto another pin's connection arm);
            ``margins`` overrides the window escalation schedule of a
            search without penalty; ``penalty`` overrides the
            foreign-wire pass-through cost (negotiated attachment for
            boxed pins).
            """
            nonlocal all_nodes, edges, victims
            stats = self._search_stats
            if penalty is None:
                penalty = foreign_penalty
            # Negotiated searches see almost every node as passable, so
            # an unreachable target otherwise floods the whole window:
            # they get one window and an eighth of the budget.
            limit = EXPANSION_LIMIT
            if penalty is not None:
                margins = NEGOTIATED_WINDOW_MARGINS
                limit //= 8
            elif margins is None:
                margins = DIRECT_WINDOW_MARGINS if direct else WINDOW_MARGINS
            while len(components) > 1:
                components.sort(key=len)
                source = components[0]
                targets: set[Node] = set().union(*components[1:])
                if target_filter is not None:
                    targets &= target_filter
                    if not targets:
                        return False, components
                # Both sides are encoded once for every window, search
                # and proof of this merge step.
                src = search_ends(grid, source)
                tgt = search_ends(grid, targets)
                path = None
                for attempt, margin in enumerate(margins):
                    window = connection_window(
                        src, tgt, margin, design.width, design.height
                    )
                    before = stats.get("astar_expansions", 0)
                    path = astar_connect(
                        grid,
                        net.name,
                        src,
                        tgt,
                        window,
                        limit,
                        blocked=blocked_ids,
                        foreign_penalty=penalty,
                        stats=stats,
                        profile=self._profiling,
                    )
                    if path is not None:
                        break
                    stats["astar_failed_expansions"] = (
                        stats.get("astar_failed_expansions", 0)
                        + stats.get("astar_expansions", 0)
                        - before
                    )
                    # The margins grow, so every retry's window lies
                    # inside the last one, and a failed search changes
                    # only counters: when no path exists in the widest
                    # window, the retries cannot connect and are
                    # skipped.  A penalty makes foreign wire passable,
                    # which the proof does not model.
                    if attempt == 0 and len(margins) > 1 and penalty is None:
                        widest = connection_window(
                            src, tgt, margins[-1], design.width, design.height
                        )
                        if separated(
                            grid, net.name, src, tgt, widest, blocked_ids
                        ):
                            stats["separations_proved"] = (
                                stats.get("separations_proved", 0) + 1
                            )
                            break
                if path is None:
                    return False, components
                victims |= grid.claim(path, net.name)
                all_nodes.update(path)
                edges |= path_edges(path)
                end = path[-1]
                merged = source | set(path)
                rest: list[set[Node]] = []
                for comp in components[1:]:
                    if end in comp or comp & merged:
                        merged |= comp
                    else:
                        rest.append(comp)
                components = rest + [merged]
            return True, components

        if trunk_components:
            # Pass 2 semantics (Section III-D): first unify the
            # assigned segments (segment-to-segment), then attach each
            # pin to the assigned route (pin-to-segment) — pins must
            # reach their segments, not shortcut to each other.
            ok, trunk_components = connect_round(trunk_components)
            if not ok:
                # Disjoint trunks (blocked crossings): fall back to a
                # free-for-all merge of everything.
                ok, remaining = connect_round(
                    pin_components + trunk_components
                )
                if not ok:
                    return False, all_nodes, edges, victims
                components = remaining
            else:
                spine = trunk_components[0]
                trunk_targets = set(spine)
                tile = design.config.tile_size
                for pin_comp in pin_components:
                    if pin_comp & spine:
                        spine |= pin_comp
                        continue
                    # Pin-to-segment: prefer the assigned wire passing
                    # through the pin's own tile (that is why global
                    # routing went there), then any assigned wire.
                    pin_node = next(iter(pin_comp))
                    pin_tile = (pin_node[0] // tile, pin_node[1] // tile)
                    local_targets = {
                        n
                        for n in trunk_targets
                        if (n[0] // tile, n[1] // tile) == pin_tile
                    }
                    # The local attempt only ever needs to look a tile
                    # around the pin; a single small window keeps the
                    # escalation cascade cheap.
                    attempts: list[
                        tuple[set[Node], Optional[tuple[int, ...]], Optional[float]]
                    ] = []
                    if local_targets:
                        attempts.append((local_targets, (tile,), None))
                    attempts.append((trunk_targets, None, None))
                    if allow_negotiation:
                        # Boxed pin: negotiate through foreign wire
                        # (the victims are ripped by the caller) rather
                        # than abandoning the whole net's plan.
                        attempts.append((trunk_targets, None, NEGOTIATION_PENALTY))
                    ok = False
                    for target_filter, margin_override, penalty in attempts:
                        ok, merged = connect_round(
                            [pin_comp, spine],
                            target_filter=target_filter,
                            margins=margin_override,
                            penalty=penalty,
                        )
                        if ok:
                            break
                    if not ok:
                        return False, all_nodes, edges, victims
                    spine = merged[0]
                components = [spine]
        else:
            ok, components = connect_round(pin_components)
            if not ok:
                return False, all_nodes, edges, victims
        for comp in components:
            all_nodes |= comp
        # Trim: release never-used trunk metal back to the grid so it
        # does not block later nets (the cleanup a real router does).
        pin_nodes = set(seen_pins)
        trimmed_edges = trim_dangling(edges, pin_nodes)
        trimmed_nodes = nodes_of_edges(trimmed_edges) | pin_nodes
        for node in sorted(all_nodes - trimmed_nodes):
            grid.release(node, net.name)
        return True, trimmed_nodes, trimmed_edges, victims


def _check_order(design: Design, nets: list[Net]) -> None:
    """Reject a routing order that is not each net of ``design`` once."""
    seen: set[str] = set()
    for net in nets:
        if net.name in seen:
            raise ValueError(f"net order repeats net {net.name!r}")
        if net.name not in design.netlist:
            raise ValueError(
                f"net order names net {net.name!r}, which is not in the design"
            )
        seen.add(net.name)
    for net in design.netlist:
        if net.name not in seen:
            raise ValueError(f"net order misses net {net.name!r}")


def _strip_stolen(grid: DetailedGrid, record: "RoutedNet") -> "RoutedNet":
    """A victim's record reduced to the wire it still owns.

    Negotiated rip-up steals individual nodes; the victim keeps the
    rest of its route so its repair is a minimal reconnect instead of
    a from-scratch re-route.
    """
    nodes = grid.owned_by(record.nodes, record.net.name)
    nodes |= record.pin_nodes
    edges = {e for e in record.edges if e[0] in nodes and e[1] in nodes}
    return RoutedNet(net=record.net, nodes=nodes, edges=edges, routed=False)


def _salvage_components(
    grid: DetailedGrid, record: "RoutedNet"
) -> Optional[tuple[list[set[Node]], set[Edge]]]:
    """Connected components of a net's surviving wire, for reconnects.

    Returns ``None`` when nothing beyond the pins survives (a from-
    scratch re-route is needed anyway).
    """
    edges = record.edges
    owned = grid.owned_by(
        (node for edge in edges for node in edge), record.net.name
    )
    live_edges = {e for e in edges if e[0] in owned and e[1] in owned}
    if not live_edges:
        return None
    adjacent: dict[Node, list[Node]] = {}
    # Neighbour order only steers the flood inside one group, never
    # which nodes the group holds.
    for a, b in live_edges:  # repro: allow-DET001 groups do not depend on it
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    # Groups come in the order their first node appears in
    # ``live_edges``, whose keys are int-coordinate tuples with a
    # hash-seed independent set order, so the list is reproducible as
    # committed.
    groups: list[set[Node]] = []
    seen: set[Node] = set()
    for edge in live_edges:  # repro: allow-DET001 int-tuple set order is fixed
        for node in edge:
            if node in seen:
                continue
            seen.add(node)
            group = {node}
            stack = [node]
            while stack:
                for other in adjacent[stack.pop()]:
                    if other not in seen:
                        seen.add(other)
                        group.add(other)
                        stack.append(other)
            groups.append(group)
    return groups, live_edges


def _preconnect_crossings(
    grid: DetailedGrid,
    net: str,
    pieces: list[TrunkPiece],
) -> tuple[set[Edge], list[set[Node]]]:
    """Stitch same-net trunks together with vias at their crossings.

    For every pair of not-yet-connected trunk pieces that intersect in
    (x, y), a via stack is placed at the crossing (when the grid allows
    it), merging the pieces exactly where the track assignment put
    them.  Redundant crossings between already-connected pieces are
    skipped so no via loops appear.  Pairs whose stack is blocked are
    left for the A* connection search.
    """
    from ..algorithms import DisjointSet

    edges: set[Edge] = set()
    components: list[set[Node]] = []
    if len(pieces) < 2:
        return edges, components
    ds = DisjointSet(range(len(pieces)))
    xy_maps = []
    for piece in pieces:
        xy_map: dict[tuple[int, int], set[int]] = {}
        for x, y, layer in piece.nodes:
            xy_map.setdefault((x, y), set()).add(layer)
        xy_maps.append(xy_map)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if ds.connected(i, j):
                continue
            shared = set(xy_maps[i]) & set(xy_maps[j])
            for xy in sorted(shared):
                lo = min(min(xy_maps[i][xy]), min(xy_maps[j][xy]))
                hi = max(max(xy_maps[i][xy]), max(xy_maps[j][xy]))
                if lo == hi:
                    ds.union(i, j)  # pieces touch on the same layer
                    break
                if grid.on_stitch_line(xy[0]):
                    continue  # via constraint: leave for A*
                stack = [(xy[0], xy[1], layer) for layer in range(lo, hi + 1)]
                if all(grid.is_free_for(node, net) for node in stack):
                    for node in stack:
                        grid.occupy(node, net)
                    edges |= path_edges(stack)
                    components.append(set(stack))
                    ds.union(i, j)
                    break
    return edges, components


def _piece_fragments(
    pieces: list[TrunkPiece], live_nodes: set[Node]
) -> list[TrunkPiece]:
    """Contiguous sub-runs of trunk pieces still owned by the net.

    Trimming after the first connection may have released parts of a
    trunk; the repair pass must only rebuild over what is still there.
    """
    fragments: list[TrunkPiece] = []
    for piece in pieces:
        current: list[Node] = []
        for node in piece.nodes:
            if node in live_nodes:
                current.append(node)
            elif current:
                fragments.append(TrunkPiece(net=piece.net, nodes=current))
                current = []
        if current:
            fragments.append(TrunkPiece(net=piece.net, nodes=current))
    return fragments


def _merge_overlapping(components: list[set[Node]]) -> list[set[Node]]:
    """Union components sharing at least one node."""
    merged: list[set[Node]] = []
    for comp in components:
        absorbed = comp
        keep: list[set[Node]] = []
        for existing in merged:
            if existing & absorbed:
                absorbed = absorbed | existing
            else:
                keep.append(existing)
        keep.append(absorbed)
        merged = keep
    return merged
