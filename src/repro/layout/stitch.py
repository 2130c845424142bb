"""Stitching lines and stitch-unfriendly regions.

In MEBL the layout is written in vertical stripes (Fig. 1a); the stripe
boundaries are *stitching lines* at fixed x coordinates.  Around each
line lies a *stitch unfriendly region* of half-width ``epsilon`` tracks
(Fig. 5c) where vertical-segment line ends with landing vias create
short polygons, plus a wider *escape region* (Section III-D1) whose
routing resources the detailed router tries to reserve.
"""

from __future__ import annotations

import bisect
import dataclasses

from ..config import RouterConfig


@dataclasses.dataclass(frozen=True)
class StitchingLines:
    """An ordered set of vertical stitching lines.

    Attributes:
        xs: strictly increasing stitching-line x coordinates (in pitches).
        epsilon: half-width of the stitch unfriendly region, in tracks.
        escape_width: width of the escape region on each side, in tracks.
    """

    xs: tuple[int, ...]
    epsilon: int = 1
    escape_width: int = 4

    def __post_init__(self) -> None:
        xs = tuple(self.xs)
        if list(xs) != sorted(set(xs)):
            raise ValueError("stitching line xs must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        if self.epsilon < 0 or self.escape_width < 0:
            raise ValueError("epsilon and escape_width must be non-negative")

    @classmethod
    def uniform(
        cls, width: int, config: RouterConfig | None = None
    ) -> "StitchingLines":
        """Uniformly distributed lines over a layout of ``width`` pitches.

        Following Section IV, lines are spaced ``config.stitch_spacing``
        pitches apart, starting one spacing in from the left edge.
        """
        config = config or RouterConfig()
        spacing = config.stitch_spacing
        xs = tuple(range(spacing, width, spacing))
        return cls(xs, epsilon=config.epsilon, escape_width=config.escape_width)

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self):
        return iter(self.xs)

    def is_on_line(self, x: int) -> bool:
        """Whether ``x`` coincides with a stitching line."""
        i = bisect.bisect_left(self.xs, x)
        return i < len(self.xs) and self.xs[i] == x

    def line_index(self, x: int) -> int | None:
        """Index of the stitching line at ``x`` (``None`` if not a line).

        Violation attribution keys its per-line histograms by this
        index; it is stable under design rescaling of the line
        coordinates while ``x`` itself is not.
        """
        i = bisect.bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            return i
        return None

    def nearest_line(self, x: int) -> int | None:
        """The stitching line x closest to ``x`` (ties to the left)."""
        if not self.xs:
            return None
        i = bisect.bisect_left(self.xs, x)
        candidates = []
        if i > 0:
            candidates.append(self.xs[i - 1])
        if i < len(self.xs):
            candidates.append(self.xs[i])
        return min(candidates, key=lambda s: (abs(s - x), s))

    def distance_to_line(self, x: int) -> int | None:
        """Distance from ``x`` to the nearest stitching line."""
        line = self.nearest_line(x)
        if line is None:
            return None
        return abs(x - line)

    def in_unfriendly_region(self, x: int) -> bool:
        """Whether track ``x`` lies in a stitch unfriendly region.

        The region includes the line itself and ``epsilon`` tracks on
        each side.
        """
        d = self.distance_to_line(x)
        return d is not None and d <= self.epsilon

    def in_escape_region(self, x: int) -> bool:
        """Whether track ``x`` lies in an escape region.

        The escape region is the ``escape_width`` tracks nearest to a
        stitching line on each side, excluding the line itself (which is
        unusable anyway).
        """
        d = self.distance_to_line(x)
        return d is not None and 1 <= d <= self.escape_width

    def lines_crossing(self, lo: int, hi: int) -> list[int]:
        """Stitching lines strictly inside the x span ``[lo, hi]``.

        A wire whose x extent is ``[lo, hi]`` is *cut* by each of these
        lines.  Lines at the exact endpoints do not cut the wire into
        two polygons and are excluded.
        """
        i = bisect.bisect_right(self.xs, lo)
        j = bisect.bisect_left(self.xs, hi)
        return list(self.xs[i:j])

    def lines_in_range(self, lo: int, hi: int) -> list[int]:
        """Stitching lines with ``lo <= x <= hi``."""
        i = bisect.bisect_left(self.xs, lo)
        j = bisect.bisect_right(self.xs, hi)
        return list(self.xs[i:j])

    def usable_vertical_tracks(self, lo: int, hi: int) -> int:
        """Tracks in ``[lo, hi]`` not occupied by a stitching line.

        This is the vertical edge capacity of a global tile column
        (Fig. 7b): the stitching-line track itself is unusable.
        """
        total = hi - lo + 1
        return total - len(self.lines_in_range(lo, hi))

    def friendly_vertical_tracks(self, lo: int, hi: int) -> int:
        """Tracks in ``[lo, hi]`` outside every stitch unfriendly region.

        This is the *vertex capacity* of a global tile: the number of
        vertical tracks on which a segment line end does not risk a
        short polygon (Section III-A).
        """
        return sum(
            1 for x in range(lo, hi + 1) if not self.in_unfriendly_region(x)
        )
