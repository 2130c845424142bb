"""Grid geometry primitives: points, rectangles, intervals, segments."""

from .point import GridPoint, Point, Rect
from .interval import (
    Interval,
    max_overlap_density,
    overlapping_pairs,
    point_density,
)
from .segment import Orientation, WireSegment

__all__ = [
    "GridPoint",
    "Point",
    "Rect",
    "Interval",
    "max_overlap_density",
    "overlapping_pairs",
    "point_density",
    "Orientation",
    "WireSegment",
]
