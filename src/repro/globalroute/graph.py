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
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Sequence
from typing import Optional

import numpy as np

from ..layout import Design


Tile = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class TileSpan:
    """Grid extent of one tile: x columns [x_lo, x_hi], y rows [y_lo, y_hi]."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int


class GlobalGraph:
    """Tile graph with edge and vertex capacities/demands.

    Edge arrays are indexed as:

    * ``h_*[i, j]`` — the edge between tiles ``(i, j)`` and ``(i+1, j)``
      (a wire crossing it runs horizontally);
    * ``v_*[i, j]`` — the edge between tiles ``(i, j)`` and ``(i, j+1)``
      (a wire crossing it runs vertically).
    """

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

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def snapshot(self) -> "GlobalGraph":
        """Private-demand snapshot for speculative routing.

        Factory hook for the engine seam:
        :class:`~repro.engine.ArrayGlobalGraph` overrides it to hand
        out snapshots carrying cloned cost caches, so the parallel
        router never needs to know which engine built the graph.
        """
        from .overlay import GraphSnapshot  # local: overlay imports graph

        return GraphSnapshot(self)

    # ------------------------------------------------------------------
    # Shared-memory state transport (the process-pool backend)
    # ------------------------------------------------------------------
    #: The per-stage *mutable* arrays a process-pool worker must track.
    #: Capacities are construction-time constants every worker already
    #: holds, so they never travel.
    _SHARED_STATE_KEYS = (
        "h_demand",
        "v_demand",
        "vertex_demand",
        "h_history",
        "v_history",
        "vertex_history",
    )

    def shared_state_arrays(self) -> dict[str, "np.ndarray"]:
        """The mutable routing state, keyed for shared-memory export.

        The engine seam's second factory-style hook:
        :class:`~repro.engine.ArrayGlobalGraph` extends the dict with
        its cost caches so workers skip the full cache rebuild.
        """
        return {key: getattr(self, key) for key in self._SHARED_STATE_KEYS}

    def import_shared_state(self, arrays: dict[str, "np.ndarray"]) -> None:
        """Overwrite the mutable state from exported views, in place.

        In-place copies keep any outstanding snapshot references (which
        borrow the history arrays) aimed at the live data.
        """
        for key in self._SHARED_STATE_KEYS:
            np.copyto(getattr(self, key), arrays[key])

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
        raise ValueError(  # repro: allow-PAR004 adjacency guard; array core indexes directly
            f"tiles {a} and {b} are not adjacent"
        )

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
        kind, i, j = key
        if kind == "h":
            self.h_demand[i, j] += delta
        else:
            self.v_demand[i, j] += delta

    def add_vertex_demand(self, tile: Tile, delta: int) -> None:
        """Adjust the line-end demand of ``tile`` by ``delta``."""
        self.vertex_demand[tile[0], tile[1]] += delta

    def apply_path(self, path: Sequence[Tile], delta: int) -> None:
        """Adjust the demand a routed tile path holds by ``delta``.

        Every edge the path crosses, then every line end of its
        vertical runs (:func:`vertical_run_line_ends`), in path order,
        through the demand mutators (which
        :class:`~repro.engine.ArrayGlobalGraph` extends to keep its
        cost caches fresh).
        """
        for a, b in zip(path, path[1:]):
            self.add_edge_demand(self.edge_between(a, b), delta)
        for tile in vertical_run_line_ends(path):
            self.add_vertex_demand(tile, delta)

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
