"""The detailed routing grid: occupancy, legality, stitch-aware costs.

Nodes are ``(x, y, layer)`` with preferred-direction routing: horizontal
layers move in x, vertical layers in y, and z moves hop one layer.  The
hard MEBL constraints of Section II-A are enforced structurally:

* vertical-layer nodes on a stitching-line track are unusable (vertical
  routing constraint) — wires can only cross a line in the x direction
  (Fig. 13);
* z moves (vias) at a stitching-line x are forbidden, except exactly at
  a fixed pin for which the via violation is permitted (and counted).

The soft costs of Eq. (10) live here too: ``beta`` for a z move inside
a stitch unfriendly region and ``gamma`` for occupying a vertical-layer
grid in the escape region (Section III-D1).
"""

from __future__ import annotations

from collections.abc import Iterable

from typing import TYPE_CHECKING, Optional

from ..config import RouterConfig
from ..geometry import GridPoint
from ..layout import Design

if TYPE_CHECKING:
    from .overlay import GridOverlay

Node = tuple[int, int, int]  # (x, y, layer)


class DetailedGrid:
    """Occupancy-tracked 3-D routing grid for one design."""

    def __init__(self, design: Design, stitch_aware: bool = True) -> None:
        self.design = design
        self.config: RouterConfig = design.config
        self.tech = design.technology
        self.stitches = design.stitches
        assert self.stitches is not None
        self.stitch_aware = stitch_aware
        #: node -> owning net name
        self._owner: dict[Node, str] = {}
        #: fixed pin nodes (inviolable even during negotiated rip-up)
        self._pins: set[Node] = set()
        # Precomputed per-x flags (columns are few; lookups are hot).
        self._on_line = [self.stitches.is_on_line(x) for x in range(design.width)]
        self._unfriendly = [
            self.stitches.in_unfriendly_region(x) for x in range(design.width)
        ]
        self._escape = [
            self.stitches.in_escape_region(x) for x in range(design.width)
        ]
        # Per-layer caches (index 0 unused; layers are 1-based).
        self._vertical = [False] + [
            self.tech.is_vertical(m) for m in self.tech.layers
        ]
        self._num_layers = self.tech.num_layers
        self._width = design.width
        self._height = design.height
        #: Eq. (10) step costs computed so far (one per legal successor
        #: returned by :meth:`neighbors`); read by the detailed router's
        #: tracer flush.
        self.cost_evaluations = 0

    # ------------------------------------------------------------------
    # Geometry / legality
    # ------------------------------------------------------------------
    def in_bounds(self, node: Node) -> bool:
        """Whether the node lies inside the die and layer stack."""
        x, y, layer = node
        return (
            0 <= x < self.design.width
            and 0 <= y < self.design.height
            and 1 <= layer <= self.tech.num_layers
        )

    def is_blocked(self, node: Node) -> bool:
        """Structurally unusable node (vertical layer on a line track)."""
        x, _y, layer = node
        return self._vertical[layer] and self._on_line[x]

    def on_stitch_line(self, x: int) -> bool:
        """Whether column ``x`` is a stitching line."""
        return self._on_line[x]

    def in_unfriendly(self, x: int) -> bool:
        """Whether column ``x`` is in a stitch unfriendly region."""
        return self._unfriendly[x]

    def in_escape(self, x: int) -> bool:
        """Whether column ``x`` is in an escape region."""
        return self._escape[x]

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def owner(self, node: Node) -> Optional[str]:
        """Net owning ``node``, if any."""
        return self._owner.get(node)

    def mark_pin(self, node: Node) -> None:
        """Register a fixed pin node (never rippable by other nets)."""
        self._pins.add(node)

    def is_pin(self, node: Node) -> bool:
        """Whether ``node`` is a fixed pin."""
        return node in self._pins

    def occupy(self, node: Node, net: str) -> None:
        """Claim ``node`` for ``net`` (idempotent for the same net)."""
        current = self._owner.get(node)
        if current is not None and current != net:
            raise ValueError(
                f"node {node} already owned by {current!r}, not {net!r}"
            )
        self._owner[node] = net

    def force_occupy(self, node: Node, net: str) -> Optional[str]:
        """Claim ``node`` for ``net``, evicting any previous owner.

        Returns the evicted net's name (None if the node was free or
        already owned by ``net``).  Used by negotiated rip-up.
        """
        if node in self._pins and self._owner.get(node) != net:
            raise ValueError(f"pin node {node} cannot change owner")
        previous = self._owner.get(node)
        self._owner[node] = net
        return previous if previous not in (None, net) else None

    def release(self, node: Node, net: str) -> None:
        """Release ``node`` previously claimed by ``net``.

        Pin nodes are never released: a transiently free pin could be
        claimed by another net's search, making its net unroutable.
        """
        if node in self._pins:
            return
        if self._owner.get(node) == net:
            del self._owner[node]

    def is_free_for(self, node: Node, net: str) -> bool:
        """Usable by ``net``: in bounds, not blocked, not foreign-owned."""
        if not self.in_bounds(node) or self.is_blocked(node):
            return False
        current = self._owner.get(node)
        return current is None or current == net

    def occupied_by(self, net: str) -> set[Node]:
        """All nodes currently owned by ``net`` (linear scan; tests only)."""
        return {n for n, owner in self._owner.items() if owner == net}

    # ------------------------------------------------------------------
    # Moves and costs (Eq. 10)
    # ------------------------------------------------------------------
    def neighbors(
        self,
        node: Node,
        net: str,
        foreign_penalty: Optional[float] = None,
    ) -> list[tuple[Node, float]]:
        """Legal successor nodes with their Eq. (10) step costs.

        Routed vias are never allowed on a stitching line (via
        constraint).  The via violations Problem 1 permits on fixed
        pins are the implicit cell contacts *below* layer 1, which the
        evaluator counts per routed on-line pin — they involve no grid
        move here.

        When ``foreign_penalty`` is given, nodes owned by other nets
        become passable at that extra cost — negotiated rip-up: the
        router later rips the victims the chosen path runs through.
        Foreign *pin* nodes stay hard obstacles.
        """
        x, y, layer = node
        out: list[tuple[Node, float]] = []
        config = self.config
        planar = (
            ((x, y - 1, layer), (x, y + 1, layer))
            if self._vertical[layer]
            else ((x - 1, y, layer), (x + 1, y, layer))
        )
        for succ in planar:
            passable, extra = self._passable(succ, net, foreign_penalty)
            if passable:
                out.append(
                    (
                        succ,
                        config.alpha  # repro: allow-PAR003 array core bakes alpha in
                        + self._node_cost(succ)
                        + extra,
                    )
                )
        for succ in ((x, y, layer - 1), (x, y, layer + 1)):
            passable, extra = self._passable(succ, net, foreign_penalty)
            if not passable:
                continue
            if self._on_line[x]:
                continue  # via constraint (hard)
            cost = config.alpha + self._node_cost(succ) + extra
            if self.stitch_aware and self._unfriendly[x]:
                # via in stitch unfriendly region
                cost += config.beta  # repro: allow-PAR003 array core bakes beta into its cost tables
            out.append((succ, cost))
        self.cost_evaluations += len(out)
        return out

    def _passable(
        self, node: Node, net: str, foreign_penalty: Optional[float]
    ) -> tuple[bool, float]:
        x, y, layer = node
        if not (0 <= x < self._width and 0 <= y < self._height):
            return False, 0.0
        if not 1 <= layer <= self._num_layers:
            return False, 0.0
        if self._vertical[layer] and self._on_line[x]:
            return False, 0.0
        owner = self._owner.get(node)
        if owner is None or owner == net:
            return True, 0.0
        if foreign_penalty is not None and node not in self._pins:
            return True, foreign_penalty
        return False, 0.0

    def speculative_overlay(self) -> "GridOverlay":
        """Fresh buffered-write overlay of this grid.

        Factory hook for the engine seam: :class:`ArrayDetailedGrid`
        overrides it to hand out array-core overlays, so the parallel
        router never needs to know which engine built the grid.
        """
        from .overlay import GridOverlay  # local: overlay imports grid

        return GridOverlay(self)

    def _node_cost(self, node: Node) -> float:
        """Escape-region cost of entering ``node`` (gamma term)."""
        if not self.stitch_aware:
            return 0.0
        x, _y, layer = node
        if self._vertical[layer] and self._escape[x]:
            return self.config.gamma  # repro: allow-PAR003 array core bakes gamma into its cost tables
        return 0.0


def nodes_of_points(points: Iterable[GridPoint]) -> set[Node]:
    """Convert :class:`GridPoint` objects to plain node tuples."""
    return {(p.x, p.y, p.layer) for p in points}
