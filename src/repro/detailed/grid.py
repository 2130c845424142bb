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

The grid is flat: every node has an integer id

    ``idx = (x * height + y) * num_layers + (layer - 1)``

so a planar x move is ``idx +- height * num_layers``, a planar y move
is ``idx +- num_layers`` and a via is ``idx +- 1``.  The encoding is
monotonic in ``(x, y, layer)``, so ordering ids compares exactly like
ordering node tuples.  Per-node state lives in flat lists indexed by
id — the Eq. (10) step table, the owner ids and the pin mask — which
the A* of :mod:`~repro.detailed.search` reads directly.  Plain lists
serve them, because the search reads single entries, where list
indexing beats ndarray scalar access.  The step table is built by list
repetition, one per-layer pattern per column kind (plain, escape
region, stitching line), so routing never loads numpy.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional

from ..config import RouterConfig
from ..layout import Design

Node = tuple[int, int, int]  # (x, y, layer)

#: Step-cost sentinel for structurally blocked nodes (vertical layer on
#: a stitching-line track).  Negative so the hot loop can test
#: ``step >= 0.0`` instead of comparing against infinity.
BLOCKED_STEP = -1.0

#: Sentinel in the ownership-folded step list (``_free_step``) for
#: nodes whose owner id is nonzero.  Distinct from ``BLOCKED_STEP`` so
#: the search can tell "owned — maybe by me" (recheck the owner id)
#: from "structurally blocked" (reject outright) with one comparison.
OWNED_STEP = -2.0


class DetailedGrid:
    """Occupancy-tracked 3-D routing grid for one design.

    Ownership is stored once, by node id: ``_owner_ids`` holds the
    owning net's integer id (0 for free) and ``_pin_mask`` flags fixed
    pins.  ``_step`` is the Eq. (10) cost of entering each node —
    ``alpha`` plus the ``gamma`` escape term, :data:`BLOCKED_STEP`
    where the vertical routing constraint applies — and ``_via_extra``
    the per-x ``beta`` surcharge of a z move.  ``_free_step`` is
    ``_step`` with :data:`OWNED_STEP` folded in wherever a node is
    owned, so the search resolves the common free-node candidate with
    a single load and compare; the ownership mutators keep it in step.

    The router reads and writes ownership a whole collection at a
    time: :meth:`owned_by` filters nodes down to one net's, and
    :meth:`claim` takes a whole path, evicting other nets' wire; the
    per-node :meth:`owner`, :meth:`occupy` and :meth:`release` serve
    single nodes.

    ``_best_g`` is the search's best-cost list, one float per node,
    allocated once with the grid and ``inf`` between searches: each
    search resets the entries it wrote before it returns.  ``_mark``
    is the separation proof's flood mark, one byte per node, 0 between
    calls on the same terms.  A grid therefore serves one search at a
    time.
    """

    def __init__(self, design: Design, stitch_aware: bool = True) -> None:
        self.design = design
        self.config: RouterConfig = design.config
        self.tech = design.technology
        self.stitches = design.stitches
        assert self.stitches is not None
        self.stitch_aware = stitch_aware
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
        self._num_layers = layers_n = self.tech.num_layers
        self._width = width = design.width
        self._height = height = design.height
        self._hl = height * layers_n
        #: Eq. (10) step costs computed so far (one per legal successor
        #: the search considers); read by the detailed router's tracer
        #: flush.
        self.cost_evaluations = 0

        config = self.config
        # Ids run column by column, each column ``height`` repeats of
        # its per-layer pattern, so one pattern per column kind builds
        # the table.  Every entry is one float addition of the Eq. (10)
        # weights at most, and entries of one price share one float
        # object, which the search reads faster than one per node.
        alpha = float(config.alpha)
        vert_layers = self._vertical[1:]
        plain = [alpha] * layers_n
        escape = (
            [alpha + float(config.gamma) if v else alpha for v in vert_layers]
            if stitch_aware
            else plain
        )
        line = [BLOCKED_STEP if v else alpha for v in vert_layers]
        step: list[float] = []
        for on_line, in_escape in zip(self._on_line, self._escape):
            step += (line if on_line else escape if in_escape else plain) * height
        self._step = step
        #: Per-x via surcharge (Eq. (10) beta inside unfriendly regions).
        self._via_extra = [
            config.beta if (stitch_aware and unfriendly) else 0.0
            for unfriendly in self._unfriendly
        ]
        size = width * self._hl
        self._owner_ids = [0] * size
        # Every node starts free, so the folded list begins as a copy.
        self._free_step = list(self._step)
        self._pin_mask = bytearray(size)
        self._best_g = [float("inf")] * size
        self._mark = bytearray(size)
        #: net name -> positive integer id, and the inverse (index 0,
        #: the free id, maps to None); filled for the whole netlist up
        #: front, extended for any other name a caller claims with.
        self._net_ids: dict[str, int] = {}
        self._net_names: list[Optional[str]] = [None]
        for net in design.netlist:
            self._net_id(net.name)

    # ------------------------------------------------------------------
    # Node ids
    # ------------------------------------------------------------------
    def _net_id(self, net: str) -> int:
        nid = self._net_ids.get(net)
        if nid is None:
            nid = len(self._net_names)
            self._net_ids[net] = nid
            self._net_names.append(net)
        return nid

    def _encode(self, node: Node) -> int:
        """Flat id of a node; monotonic in ``(x, y, layer)``."""
        x, y, layer = node
        return (x * self._height + y) * self._num_layers + layer - 1

    def _decode(self, idx: int) -> Node:
        """Node tuple of a flat id (inverse of :meth:`_encode`)."""
        x, rem = divmod(idx, self._hl)
        y, lm = divmod(rem, self._num_layers)
        return (x, y, lm + 1)

    # ------------------------------------------------------------------
    # Geometry / legality
    # ------------------------------------------------------------------
    def in_bounds(self, node: Node) -> bool:
        """Whether the node lies inside the die and layer stack."""
        x, y, layer = node
        return (
            0 <= x < self._width
            and 0 <= y < self._height
            and 1 <= layer <= self._num_layers
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
        """Net owning ``node``, if any (``None`` off the grid too)."""
        x, y, layer = node
        # Bounds first: an off-grid node can encode to the id of an
        # on-grid one ((x, height, l) is (x + 1, 0, l)).  Inlined:
        # the detailed router calls this in its bookkeeping loops.
        if 0 <= x < self._width and 0 <= y < self._height and (
            1 <= layer <= self._num_layers
        ):
            idx = (x * self._height + y) * self._num_layers + layer - 1
            return self._net_names[self._owner_ids[idx]]
        return None

    def mark_pin(self, node: Node) -> None:
        """Register a fixed pin node (never rippable by other nets)."""
        self._pin_mask[self._encode(node)] = 1

    def is_pin(self, node: Node) -> bool:
        """Whether ``node`` is a fixed pin."""
        return self.in_bounds(node) and bool(self._pin_mask[self._encode(node)])

    def occupy(self, node: Node, net: str) -> None:
        """Claim ``node`` for ``net`` (idempotent for the same net)."""
        idx = self._encode(node)
        nid = self._net_id(net)
        current = self._owner_ids[idx]
        if current and current != nid:
            raise ValueError(
                f"node {node} already owned by {self._net_names[current]!r}, "
                f"not {net!r}"
            )
        self._owner_ids[idx] = nid
        self._free_step[idx] = OWNED_STEP

    def claim(self, path: Iterable[Node], net: str) -> set[str]:
        """Claim every node of ``path`` for ``net``, evicting owners.

        Returns the names of the nets that lost a node (empty when
        every node was free or already ``net``'s).  Used for every path
        the router places, whose negotiated searches may cross other
        nets' wire.  Every node must lie on the grid.

        Raises:
            ValueError: a node is a pin of another net (or an unowned
                pin); the nodes before it stay claimed.
        """
        nid = self._net_id(net)
        height = self._height
        layers_n = self._num_layers
        owner_ids = self._owner_ids
        free_step = self._free_step
        pins = self._pin_mask
        evicted: set[int] = set()
        for node in path:
            x, y, layer = node
            idx = (x * height + y) * layers_n + layer - 1
            current = owner_ids[idx]
            if current != nid:
                if pins[idx]:
                    raise ValueError(f"pin node {node} cannot change owner")
                if current:
                    evicted.add(current)
                owner_ids[idx] = nid
                free_step[idx] = OWNED_STEP
        names = self._net_names
        # Nonzero ids always name a net; the test only narrows the type.
        return {name for i in evicted if (name := names[i]) is not None}

    def release(self, node: Node, net: str) -> None:
        """Release ``node`` previously claimed by ``net``.

        Pin nodes are never released: a transiently free pin could be
        claimed by another net's search, making its net unroutable.
        """
        idx = self._encode(node)
        if self._pin_mask[idx]:
            return
        if self._owner_ids[idx] == self._net_ids.get(net):
            self._owner_ids[idx] = 0
            self._free_step[idx] = self._step[idx]

    def owned_by(self, nodes: Iterable[Node], net: str) -> set[Node]:
        """The nodes of ``nodes`` that ``net`` owns, in one pass.

        Unlike :meth:`owner` it checks no bounds: every node must lie
        on the grid.
        """
        nid = self._net_ids.get(net)
        height = self._height
        layers_n = self._num_layers
        owner_ids = self._owner_ids
        return {
            node
            for node in nodes
            if owner_ids[(node[0] * height + node[1]) * layers_n + node[2] - 1]
            == nid
        }

    def is_free_for(self, node: Node, net: str) -> bool:
        """Usable by ``net``: in bounds, not blocked, not foreign-owned."""
        if not self.in_bounds(node) or self.is_blocked(node):
            return False
        current = self._owner_ids[self._encode(node)]
        return current == 0 or current == self._net_ids.get(net)

    def occupied_by(self, net: str) -> set[Node]:
        """All nodes currently owned by ``net`` (linear scan; tests only)."""
        nid = self._net_ids.get(net)
        return {
            self._decode(idx)
            for idx, owner in enumerate(self._owner_ids)
            if owner == nid
        }
