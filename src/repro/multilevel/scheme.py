"""Bottom-up coarsening scheme (Section II-B).

The routing plane starts as a grid of level-0 tiles; each coarsening
step merges 2x2 tiles into one.  A net is *local at level i* when all
its pins fall into a single level-i tile; the bottom-up passes route
each net at the first level where it becomes local, so short nets are
committed before long ones — the property that makes local effects
like stitching-line constraints optimizable (Section II-B).
"""

from __future__ import annotations

from ..layout import Design, Net

Tile = tuple[int, int]


class MultilevelScheme:
    """Maps nets and level-0 tiles through the coarsening hierarchy.

    Args:
        design: the routing instance.
        nx, ny: level-0 tile grid dimensions (from the global graph).
    """

    def __init__(self, design: Design, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError("tile grid must be non-empty")
        self.design = design
        self.nx = nx
        self.ny = ny
        levels = 0
        extent = max(nx, ny)
        while (1 << levels) < extent:
            levels += 1
        #: Number of coarsening steps until a single tile remains.
        self.num_levels = levels + 1

    def tile_at_level(self, tile0: Tile, level: int) -> Tile:
        """Coarse tile containing level-0 tile ``tile0`` at ``level``."""
        self._check_level(level)
        return (tile0[0] >> level, tile0[1] >> level)

    def grid_at_level(self, level: int) -> tuple[int, int]:
        """Coarse grid dimensions at ``level``."""
        self._check_level(level)
        step = 1 << level
        return ((self.nx + step - 1) // step, (self.ny + step - 1) // step)

    def tile0_of(self, x: int, y: int) -> Tile:
        """Level-0 tile of grid cell ``(x, y)``."""
        t = self.design.config.tile_size
        return (
            min(x // t, self.nx - 1),
            min(y // t, self.ny - 1),
        )

    def net_level(self, net: Net) -> int:
        """First level at which ``net`` is local.

        Level 0 means all pins share one level-0 tile; the maximum is
        ``num_levels - 1``, where the whole plane is a single tile.
        """
        box = net.bbox
        lo = self.tile0_of(box.lo_x, box.lo_y)
        hi = self.tile0_of(box.hi_x, box.hi_y)
        for level in range(self.num_levels):
            if self.tile_at_level(lo, level) == self.tile_at_level(hi, level):
                return level
        return self.num_levels - 1

    def nets_by_level(self) -> dict[int, list[Net]]:
        """Nets grouped by the level at which they become local."""
        groups: dict[int, list[Net]] = {}
        for net in self.design.netlist:
            groups.setdefault(self.net_level(net), []).append(net)
        return groups

    def bottom_up_order(self) -> list[Net]:
        """All nets, lowest locality level first (ties by HPWL, name)."""
        return sorted(
            self.design.netlist,
            key=lambda n: (self.net_level(n), n.hpwl, n.name),
        )

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise ValueError(
                f"level {level} outside hierarchy of {self.num_levels} levels"
            )
