"""Max-weight k-colorable subsets of intervals (Carlisle–Lloyd).

Segment conflict graphs are interval graphs, so the NP-complete
max-weight k-colorable subgraph problem becomes polynomial: model the
x-axis as a path with capacity ``k`` and each interval as a bypass edge
of capacity 1 and cost ``-weight``, then a min-cost flow of ``k`` units
selects the maximum-weight subset that no point covers more than ``k``
times — together with an explicit k-coloring (the flow decomposes into
``k`` unit paths; intervals on one path are pairwise disjoint and share
a color).  This is the engine of the proposed layer-assignment
heuristic (Section III-B).
"""

from __future__ import annotations

from collections.abc import Sequence

from typing import Optional

from ..geometry import Interval, max_overlap_density
from .mincostflow import MinCostFlow


def max_weight_k_colorable(
    intervals: Sequence[Interval],
    weights: Sequence[float],
    k: int,
    stats: Optional[dict[str, float]] = None,
) -> tuple[list[int], dict[int, int]]:
    """Select a max-weight subset with overlap density <= ``k``.

    Args:
        intervals: candidate intervals (closed; endpoint sharing counts
            as overlap, matching the segment conflict graph).
        weights: one non-negative weight per interval.
        k: number of colors (routing layers) available.
        stats: optional accumulator; gains ``flow_augmentations`` from
            the underlying min-cost flow.

    Returns:
        ``(selected, colors)`` — the selected interval indices in input
        order, and a color in ``range(k)`` for each selected index such
        that same-colored intervals are pairwise disjoint.
    """
    if len(intervals) != len(weights):
        raise ValueError("weights must match intervals")
    if k < 1:
        raise ValueError("k must be positive")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if not intervals:
        return [], {}

    coords = sorted(
        {iv.lo for iv in intervals} | {iv.hi + 1 for iv in intervals}
    )
    first, last = coords[0], coords[-1]

    net = MinCostFlow()
    for a, b in zip(coords, coords[1:]):
        net.add_edge(("x", a), ("x", b), capacity=k, cost=0.0)
    edge_ids: list[int] = []
    for idx, iv in enumerate(intervals):
        eid = net.add_edge(
            ("x", iv.lo), ("x", iv.hi + 1), capacity=1, cost=-float(weights[idx])
        )
        edge_ids.append(eid)

    flow, _ = net.min_cost_flow(("x", first), ("x", last), max_flow=k)
    assert flow == k, "spine edges guarantee k units can always flow"
    if stats is not None:
        stats["flow_augmentations"] = (
            stats.get("flow_augmentations", 0) + net.augmentations
        )

    selected = [
        idx for idx, eid in enumerate(edge_ids) if net.flow_on(eid) > 0.5
    ]
    colors = _decompose_colors(net, intervals, edge_ids, coords, k)
    assert sorted(colors) == selected
    return selected, colors


def _decompose_colors(
    net: MinCostFlow,
    intervals: Sequence[Interval],
    edge_ids: Sequence[int],
    coords: Sequence[int],
    k: int,
) -> dict[int, int]:
    """Peel the flow into ``k`` unit paths; path index = color."""
    # Remaining flow per edge id, for interval edges only; spine flow is
    # implied (a unit path follows the spine wherever no interval edge
    # is taken), so we can greedily walk coordinates left to right and
    # jump along any interval edge with remaining flow.
    remaining: dict[int, int] = {
        idx: int(round(net.flow_on(eid)))
        for idx, eid in enumerate(edge_ids)
    }
    # Intervals starting at each coordinate, heaviest-flow first.
    starts: dict[int, list[int]] = {}
    for idx, iv in enumerate(intervals):
        if remaining[idx] > 0:
            starts.setdefault(iv.lo, []).append(idx)

    colors: dict[int, int] = {}
    for color in range(k):
        position = coords[0]
        while position <= coords[-1]:
            candidates = [
                idx for idx in starts.get(position, []) if remaining[idx] > 0
            ]
            if candidates:
                idx = candidates[0]
                remaining[idx] -= 1
                colors[idx] = color
                position = intervals[idx].hi + 1
            else:
                position += 1
    assert all(r == 0 for r in remaining.values())
    return colors


def is_k_colorable(intervals: Sequence[Interval], k: int) -> bool:
    """Whether the interval set admits a proper k-coloring.

    Interval graphs are perfect: chromatic number equals clique number,
    which is the maximum overlap density.
    """
    return max_overlap_density(intervals) <= k


def greedy_interval_coloring(
    intervals: Sequence[Interval],
) -> dict[int, int]:
    """Proper coloring with the minimum number of colors.

    Left-to-right greedy coloring is optimal on interval graphs; used
    by the conventional (non-stitch-aware) track assignment baseline.
    """
    order = sorted(range(len(intervals)), key=lambda i: intervals[i].lo)
    colors: dict[int, int] = {}
    # Active intervals per color: color -> rightmost occupied endpoint.
    busy_until: list[int] = []
    import heapq

    free: list[int] = []
    active: list[tuple[int, int]] = []  # (hi, color) heap
    for idx in order:
        iv = intervals[idx]
        while active and active[0][0] < iv.lo:
            _, color = heapq.heappop(active)
            heapq.heappush(free, color)
        if free:
            color = heapq.heappop(free)
        else:
            color = len(busy_until)
            busy_until.append(0)
        colors[idx] = color
        heapq.heappush(active, (iv.hi, color))
    return colors
