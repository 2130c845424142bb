"""Speculative-routing overlay for the detailed routing grid.

A worker thread in the parallel net-batch engine (see
:mod:`repro.parallel`) connects its net against a
:class:`GridOverlay`: reads see the grid as of the batch barrier plus
the net's own writes, writes are buffered as a replayable delta, and
the exact read/write node sets are captured so the merge loop can
prove — net by net, in canonical serial order — that the speculative
result equals the serial one.  A net whose reads touch an earlier
batch-mate's writes is discarded and re-routed on the live grid.
"""

from __future__ import annotations

from typing import Optional

from .grid import DetailedGrid, Node


class _OwnerOverlay:
    """Ownership mapping that shadows a base dict and logs access.

    Presents the ``get`` / ``__setitem__`` / ``__delitem__`` surface
    :class:`DetailedGrid` uses on its ``_owner`` dict.  Deletions are
    tombstoned so a released base-owned node reads back as free.
    """

    __slots__ = ("_base", "local", "reads", "writes")

    #: Marks a node released in the overlay while still set in base.
    TOMBSTONE = "\0released"

    def __init__(self, base: dict[Node, str]) -> None:
        self._base = base
        #: node -> net name, or TOMBSTONE for overlay-released nodes.
        self.local: dict[Node, str] = {}
        #: every node whose ownership the worker observed.
        self.reads: set[Node] = set()
        #: every node the worker wrote (claimed or released).
        self.writes: set[Node] = set()

    def get(self, node: Node, default: Optional[str] = None) -> Optional[str]:
        self.reads.add(node)
        value = self.local.get(node)
        if value is None:
            return self._base.get(node, default)
        if value is _OwnerOverlay.TOMBSTONE:
            return default
        return value

    def __setitem__(self, node: Node, net: str) -> None:
        self.writes.add(node)
        self.local[node] = net

    def __delitem__(self, node: Node) -> None:
        self.writes.add(node)
        self.local[node] = _OwnerOverlay.TOMBSTONE


class GridOverlay(DetailedGrid):
    """A :class:`DetailedGrid` whose ownership writes are buffered.

    Geometry caches, the pin set, and the base ownership dict are
    shared by reference (all frozen while a batch is in flight); every
    ownership access goes through an :class:`_OwnerOverlay`, giving
    the merge loop exact read/write node sets.  ``cost_evaluations``
    starts at zero so accepted counts merge additively.
    """

    def __init__(self, base: DetailedGrid) -> None:
        # Deliberately skips DetailedGrid.__init__ (per-x precomputes
        # are borrowed, not rebuilt).
        self.design = base.design
        self.config = base.config
        self.tech = base.tech
        self.stitches = base.stitches
        self.stitch_aware = base.stitch_aware
        self._pins = base._pins
        self._on_line = base._on_line
        self._unfriendly = base._unfriendly
        self._escape = base._escape
        self._vertical = base._vertical
        self._num_layers = base._num_layers
        self._width = base._width
        self._height = base._height
        self.cost_evaluations = 0
        self._owner = _OwnerOverlay(base._owner)

    # -- speculative-result plumbing -----------------------------------
    @property
    def read_nodes(self) -> set[Node]:
        """Nodes whose ownership this overlay observed."""
        return self._owner.reads

    @property
    def write_nodes(self) -> set[Node]:
        """Nodes this overlay wrote (claimed or released)."""
        return self._owner.writes

    def apply_to(self, base: DetailedGrid, net: str) -> None:
        """Replay the buffered ownership delta onto ``base``.

        Valid only when the merge loop has proven the overlay conflict
        free; every write then lands exactly as the serial router's
        would have.  The delta holds each written node's *final*
        speculative state: claims replay through
        :meth:`DetailedGrid.force_occupy` (evicting other nets' wire
        exactly as negotiated rip-up did speculatively), and
        tombstones free the node *whatever base currently says* — a
        node the search force-claimed from a foreign net and then
        trimmed away ends up free in the serial run, even though the
        base grid still shows the evicted owner.
        """
        for node, value in self._owner.local.items():
            if value is _OwnerOverlay.TOMBSTONE:
                current = base.owner(node)
                if current is not None:
                    base.release(node, current)
            else:
                base.force_occupy(node, value)
        base.cost_evaluations += self.cost_evaluations
