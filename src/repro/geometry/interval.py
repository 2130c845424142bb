"""Closed integer intervals and helpers for interval graphs.

Vertical routing segments within a panel are one-dimensional spans, so
interval arithmetic is the workhorse of layer and track assignment.  The
segment conflict graph of Section III-B is an *interval graph* — the
property that makes the max-weight k-colorable subproblem polynomial.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence


@dataclasses.dataclass(frozen=True, order=True)
class Interval:
    """A closed integer interval ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"malformed interval: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        """Number of integer positions covered (inclusive)."""
        return self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        """Whether ``value`` lies inside the closed interval."""
        return self.lo <= value <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two closed intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlapping interval, or ``None`` if disjoint."""
        if not self.overlaps(other):
            return None
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def shifted(self, delta: int) -> "Interval":
        """A copy translated by ``delta``."""
        return Interval(self.lo + delta, self.hi + delta)


def max_overlap_density(intervals: Iterable[Interval]) -> int:
    """Maximum number of intervals covering any single point.

    This is the *segment density* of a panel: the minimum number of
    tracks required to assign all segments without overlap.
    """
    events: list[tuple[int, int]] = []
    for iv in intervals:
        events.append((iv.lo, 1))
        events.append((iv.hi + 1, -1))
    events.sort()
    best = 0
    current = 0
    for _, delta in events:
        current += delta
        best = max(best, current)
    return best


def point_density(intervals: Sequence[Interval], point: int) -> int:
    """Number of intervals containing ``point``."""
    return sum(1 for iv in intervals if iv.contains(point))


def overlapping_pairs(
    intervals: Sequence[Interval],
) -> list[tuple[int, int]]:
    """Indices ``(i, j)`` with ``i < j`` of every overlapping pair.

    Uses a sweep over sorted endpoints; output size is the number of
    edges of the interval graph.
    """
    order = sorted(range(len(intervals)), key=lambda i: intervals[i].lo)
    active: list[int] = []
    pairs: list[tuple[int, int]] = []
    for idx in order:
        iv = intervals[idx]
        active = [a for a in active if intervals[a].hi >= iv.lo]
        for a in active:
            pairs.append((min(a, idx), max(a, idx)))
        active.append(idx)
    pairs.sort()
    return pairs
