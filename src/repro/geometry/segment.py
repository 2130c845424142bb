"""Rectilinear wire segments.

A :class:`WireSegment` is a maximal straight run of routed wire on one
layer: horizontal (constant ``y``), vertical (constant ``x``), or a via
(zero 2-D extent, connecting two adjacent layers at one location).
Detailed routes decompose into wire segments through
:func:`repro.detailed.wiring.edges_to_segments`; the rasterizer and the
SVG plot both consume this representation.
"""

from __future__ import annotations

import dataclasses
import enum

from .point import GridPoint


class Orientation(enum.Enum):
    """Direction of a wire segment."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    VIA = "via"


@dataclasses.dataclass(frozen=True)
class WireSegment:
    """A maximal straight piece of routed wire.

    ``a`` and ``b`` are the endpoints in grid coordinates; for a via they
    share ``(x, y)`` and differ by exactly one layer.  Endpoints are
    normalized so that ``a <= b`` component-wise along the varying axis.
    """

    a: GridPoint
    b: GridPoint

    def __post_init__(self) -> None:
        diffs = (
            (self.a.x != self.b.x)
            + (self.a.y != self.b.y)
            + (self.a.layer != self.b.layer)
        )
        if diffs > 1:
            raise ValueError(f"segment is not axis-aligned: {self.a} -> {self.b}")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def orientation(self) -> Orientation:
        """Whether this run is horizontal, vertical, or a via."""
        if self.a.layer != self.b.layer:
            return Orientation.VIA
        if self.a.y != self.b.y:
            return Orientation.VERTICAL
        # A single grid point defaults to horizontal; callers that care
        # about zero-length stubs should filter on ``a == b``.
        return Orientation.HORIZONTAL

    @property
    def layer(self) -> int:
        """Layer of a planar segment (lower layer for a via)."""
        return min(self.a.layer, self.b.layer)
