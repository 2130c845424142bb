"""Shared model for track assignment (Section III-C).

A *track assignment problem* places the segments of one (panel, layer)
pair onto exact tracks.  For a column panel the tracks are the x
coordinates inside the panel's tile column; the track occupied by a
stitching line is forbidden (vertical routing constraint) and tracks
within ε of a line are *stitch unfriendly*: a segment line end assigned
there is a **bad end** — the seed of a short polygon (Section III-C).

Tracks between two consecutive stitching lines form a *region*; the
graph-based assigner works region by region, as in Fig. 11.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..layout import StitchingLines
from .panels import Panel, PanelSegment


@dataclasses.dataclass(frozen=True)
class TrackRegion:
    """Consecutive usable tracks between stitching lines.

    Attributes:
        xs: usable track coordinates, ascending (stitch-line tracks
            excluded).
        sur_left: number of leading tracks inside the stitch
            unfriendly region of the line bounding the region's left.
        sur_right: number of trailing tracks inside the unfriendly
            region of the right bounding line.
    """

    xs: tuple[int, ...]
    sur_left: int
    sur_right: int

    @property
    def num_tracks(self) -> int:
        """Usable track count."""
        return len(self.xs)

    def is_unfriendly(self, track_index: int) -> bool:
        """Whether 0-based ``track_index`` is in a stitch unfriendly region."""
        return (
            track_index < self.sur_left
            or track_index >= self.num_tracks - self.sur_right
        )


def regions_of_span(
    x_lo: int, x_hi: int, stitches: StitchingLines
) -> list[TrackRegion]:
    """Split the track span ``[x_lo, x_hi]`` at stitching lines."""
    lines = set(stitches.lines_in_range(x_lo, x_hi))
    regions: list[TrackRegion] = []
    current: list[int] = []
    for x in range(x_lo, x_hi + 1):
        if x in lines:
            if current:
                regions.append(_make_region(current, stitches))
                current = []
        else:
            current.append(x)
    if current:
        regions.append(_make_region(current, stitches))
    return regions


def _make_region(xs: list[int], stitches: StitchingLines) -> TrackRegion:
    sur_left = 0
    for x in xs:
        if stitches.in_unfriendly_region(x):
            sur_left += 1
        else:
            break
    sur_right = 0
    for x in reversed(xs):
        if stitches.in_unfriendly_region(x):
            sur_right += 1
        else:
            break
    if sur_left >= len(xs):
        # Entire region unfriendly; split the blame evenly.
        sur_left = len(xs) // 2
        sur_right = len(xs) - sur_left
    return TrackRegion(xs=tuple(xs), sur_left=sur_left, sur_right=sur_right)


@dataclasses.dataclass
class TrackAssignmentResult:
    """Track assignment of one (panel, layer) problem.

    Attributes:
        panel: the panel whose segments were assigned (already filtered
            to one layer).
        tracks: ``segment index -> {tile row -> x coordinate}``; a
            segment whose rows map to different x values doglegs at the
            tile boundary.
        failed: segments that could not be placed (to be ripped up and
            routed directly in detailed routing, Section IV-A).
        bad_ends: ``(segment index, tile row)`` pairs where a line end
            was left on a stitch-unfriendly track.
        stats: per-method model-size counters (e.g. constraint-graph
            node count for the graph assigner, variable count for the
            ILP), aggregated into the flow trace by ``assign_tracks``.
    """

    panel: Panel
    tracks: dict[int, dict[int, int]]
    failed: list[int]
    bad_ends: list[tuple[int, int]]
    stats: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def num_bad_ends(self) -> int:
        """Count of line ends on stitch-unfriendly tracks."""
        return len(self.bad_ends)

    def dogleg_count(self) -> int:
        """Number of track changes across all segments."""
        count = 0
        for per_row in self.tracks.values():
            xs = [per_row[r] for r in sorted(per_row)]
            count += sum(1 for a, b in zip(xs, xs[1:]) if a != b)
        return count


def find_bad_ends(
    segments: Sequence[PanelSegment],
    tracks: dict[int, dict[int, int]],
    stitches: StitchingLines,
) -> list[tuple[int, int]]:
    """Line ends placed on stitch-unfriendly tracks.

    Conservative per Section III-C: any line end on an unfriendly track
    is counted, since the connected horizontal wire may be cut by the
    nearby stitching line.
    """
    bad: list[tuple[int, int]] = []
    for seg in segments:
        per_row = tracks.get(seg.index)
        if not per_row:
            continue
        for row in seg.line_end_rows:
            x = per_row.get(row)
            if x is not None and stitches.in_unfriendly_region(x):
                bad.append((seg.index, row))
    return bad


def validate_assignment(
    segments: Sequence[PanelSegment],
    tracks: dict[int, dict[int, int]],
) -> list[str]:
    """Internal-consistency violations of a track assignment.

    Returns human-readable problem strings (empty when valid): two
    segments sharing a (row, x), or a segment missing a row of its
    span.
    """
    problems: list[str] = []
    occupied: dict[tuple[int, int], int] = {}
    by_index = {seg.index: seg for seg in segments}
    for index, per_row in tracks.items():
        seg = by_index[index]
        for row in range(seg.span.lo, seg.span.hi + 1):
            if row not in per_row:
                problems.append(f"segment {index} missing row {row}")
                continue
            key = (row, per_row[row])
            if key in occupied:
                problems.append(
                    f"segments {occupied[key]} and {index} collide at {key}"
                )
            occupied[key] = index
    return problems
