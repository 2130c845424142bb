"""ILP-based short-polygon-avoiding track assignment (Section III-C1).

The multicommodity-flow model of Fig. 10 solved exactly: every segment
is a commodity flowing from a source through one track vertex per
global tile row to a target; source/target edges onto stitch-unfriendly
tracks are removed when the corresponding end is a line end (bad-end
exclusion); track edges between adjacent rows allow doglegs and are
weighted by the track distance (wirelength/bend objective, Eq. (5)–(9)).

The paper solves this with CPLEX 12.3; we use ``scipy.optimize.milp``
(HiGHS).  As in the paper, the ILP is exact but prohibitively slow on
large panels — Table VII reports >100000 s and "NA" for the biggest
circuits — so callers should prefer the graph heuristic beyond small
designs.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import Optional

from ..layout import StitchingLines
from .panels import Panel, PanelSegment
from .track_common import TrackAssignmentResult, find_bad_ends
from .track_graph import _enforce_density

#: Maximum dogleg distance (in track indices) between adjacent rows.
#: Bounds the edge count; the paper's model is unbounded but real
#: doglegs span a couple of tracks.
DEFAULT_MAX_DOGLEG = 2


@dataclasses.dataclass(frozen=True)
class _Edge:
    """One directed edge of one commodity's flow graph."""

    segment: int
    kind: str  # "source", "track", "target"
    row: int  # row of the head vertex ("target": row of the tail)
    t_from: int  # track index of the tail (-1 for source edges)
    t_to: int  # track index of the head (-1 for target edges)
    weight: float


def assign_tracks_ilp(
    panel: Panel,
    xs: Sequence[int],
    stitches: StitchingLines,
    max_dogleg: int = DEFAULT_MAX_DOGLEG,
) -> TrackAssignmentResult:
    """Optimal stitch-aware track assignment of one (panel, layer)."""
    usable = [x for x in xs if not stitches.is_on_line(x)]
    if not usable:
        return TrackAssignmentResult(
            panel=panel,
            tracks={},
            failed=[seg.index for seg in panel.segments],
            bad_ends=[],
        )
    unfriendly = [stitches.in_unfriendly_region(x) for x in usable]
    live, failed = _enforce_density(panel.segments, len(usable))
    if not live:
        return TrackAssignmentResult(
            panel=panel, tracks={}, failed=failed, bad_ends=[]
        )

    stats: dict[str, float] = {}
    solution = _solve(
        live, usable, unfriendly, max_dogleg, exclude_bad=True, stats=stats
    )
    if solution is None:
        # Bad-end exclusions made the model infeasible: some bad ends
        # are unavoidable.  Re-solve with the exclusions turned into a
        # large penalty so the ILP still *minimizes* the bad-end count
        # before optimizing wirelength.
        solution = _solve(
            live,
            usable,
            unfriendly,
            max_dogleg,
            exclude_bad=False,
            bad_end_penalty=1000.0,
            stats=stats,
        )
    if solution is None:
        # Still infeasible (should not happen after the density guard);
        # fail everything so the router re-routes the nets directly.
        return TrackAssignmentResult(
            panel=panel,
            tracks={},
            failed=failed + [seg.index for seg in live],
            bad_ends=[],
            stats=stats,
        )
    bad = find_bad_ends(panel.segments, solution, stitches)
    return TrackAssignmentResult(
        panel=panel,
        tracks=solution,
        failed=failed,
        bad_ends=bad,
        stats=stats,
    )


def _solve(
    segments: Sequence[PanelSegment],
    usable: list[int],
    unfriendly: list[bool],
    max_dogleg: int,
    exclude_bad: bool,
    bad_end_penalty: float = 0.0,
    stats: Optional[dict[str, float]] = None,
) -> Optional[dict[int, dict[int, int]]]:
    # Imported here, so that only track_method="ilp" loads numpy and
    # scipy.
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    edges = _build_edges(
        segments, usable, unfriendly, max_dogleg, exclude_bad, bad_end_penalty
    )
    if edges is None:
        return None
    num_vars = len(edges)
    if stats is not None:
        stats["track_ilp_variables"] = (
            stats.get("track_ilp_variables", 0) + num_vars
        )
    by_segment: dict[int, list[int]] = {}
    for idx, edge in enumerate(edges):
        by_segment.setdefault(edge.segment, []).append(idx)

    rows_lhs: list[sparse.csr_matrix] = []
    lows: list[float] = []
    highs: list[float] = []

    def add_constraint(indices: list[int], coeffs: list[float], lo, hi):
        data = np.asarray(coeffs, dtype=float)
        col = np.asarray(indices, dtype=int)
        row = np.zeros(len(indices), dtype=int)
        rows_lhs.append(
            sparse.csr_matrix((data, (row, col)), shape=(1, num_vars))
        )
        lows.append(lo)
        highs.append(hi)

    by_index = {seg.index: seg for seg in segments}
    # (5)/(6): unit flow out of each source and into each target.
    for idxs in by_segment.values():
        src = [i for i in idxs if edges[i].kind == "source"]
        tgt = [i for i in idxs if edges[i].kind == "target"]
        if not src or not tgt:
            return None
        add_constraint(src, [1.0] * len(src), 1.0, 1.0)
        add_constraint(tgt, [1.0] * len(tgt), 1.0, 1.0)

    # (7): conservation at every (row, track) vertex per commodity.
    for seg_index, idxs in by_segment.items():
        seg = by_index[seg_index]
        inflow: dict[tuple[int, int], list[int]] = {}
        outflow: dict[tuple[int, int], list[int]] = {}
        for i in idxs:
            e = edges[i]
            if e.kind == "source":
                inflow.setdefault((e.row, e.t_to), []).append(i)
            elif e.kind == "track":
                inflow.setdefault((e.row, e.t_to), []).append(i)
                outflow.setdefault((e.row - 1, e.t_from), []).append(i)
            else:  # target
                outflow.setdefault((e.row, e.t_from), []).append(i)
        for node in sorted(set(inflow) | set(outflow)):
            ins = inflow.get(node, [])
            outs = outflow.get(node, [])
            add_constraint(
                ins + outs, [1.0] * len(ins) + [-1.0] * len(outs), 0.0, 0.0
            )

    # (8): each (row, track) vertex occupied by at most one segment.
    occupancy: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(edges):
        if e.kind in ("source", "track"):
            occupancy.setdefault((e.row, e.t_to), []).append(i)
    for idxs in occupancy.values():
        if len(idxs) > 1:
            add_constraint(idxs, [1.0] * len(idxs), 0.0, 1.0)

    # (9): crossing track-edge pairs mutually exclusive.
    track_edge_groups: dict[tuple[int, int, int], list[int]] = {}
    for i, e in enumerate(edges):
        if e.kind == "track":
            track_edge_groups.setdefault((e.row, e.t_from, e.t_to), []).append(i)
    boundaries: dict[int, list[tuple[int, int, list[int]]]] = {}
    for (row, t_from, t_to), idxs in track_edge_groups.items():
        boundaries.setdefault(row, []).append((t_from, t_to, idxs))
    for group in boundaries.values():
        for a in range(len(group)):
            fa, ta, idx_a = group[a]
            for b in range(a + 1, len(group)):
                fb, tb, idx_b = group[b]
                if (fa - fb) * (ta - tb) < 0:
                    add_constraint(
                        idx_a + idx_b,
                        [1.0] * (len(idx_a) + len(idx_b)),
                        0.0,
                        1.0,
                    )

    objective = np.array([e.weight for e in edges], dtype=float)
    constraints = LinearConstraint(
        sparse.vstack(rows_lhs, format="csr"),
        np.asarray(lows),
        np.asarray(highs),
    )
    result = milp(
        c=objective,
        constraints=[constraints],
        integrality=np.ones(num_vars),
        bounds=Bounds(0.0, 1.0),
    )
    if not result.success:
        return None
    chosen = result.x > 0.5

    tracks: dict[int, dict[int, int]] = {}
    for i, e in enumerate(edges):
        if not chosen[i]:
            continue
        if e.kind in ("source", "track"):
            tracks.setdefault(e.segment, {})[e.row] = usable[e.t_to]
    return tracks


def _build_edges(
    segments: Sequence[PanelSegment],
    usable: list[int],
    unfriendly: list[bool],
    max_dogleg: int,
    exclude_bad: bool,
    bad_end_penalty: float = 0.0,
) -> Optional[list[_Edge]]:
    num_tracks = len(usable)
    edges: list[_Edge] = []
    for seg in segments:
        lo, hi = seg.span.lo, seg.span.hi
        end_lo = lo in seg.line_end_rows
        end_hi = hi in seg.line_end_rows
        exclude_lo = exclude_bad and end_lo
        exclude_hi = exclude_bad and end_hi
        any_source = False
        for t in range(num_tracks):
            if exclude_lo and unfriendly[t]:
                continue
            weight = (
                bad_end_penalty if (end_lo and unfriendly[t]) else 0.0
            )
            any_source = True
            edges.append(_Edge(seg.index, "source", lo, -1, t, weight))
        any_target = False
        for t in range(num_tracks):
            if exclude_hi and unfriendly[t]:
                continue
            weight = (
                bad_end_penalty if (end_hi and unfriendly[t]) else 0.0
            )
            any_target = True
            edges.append(_Edge(seg.index, "target", hi, t, -1, weight))
        if not any_source or not any_target:
            return None
        for row in range(lo + 1, hi + 1):
            for t_from in range(num_tracks):
                for t_to in range(
                    max(0, t_from - max_dogleg),
                    min(num_tracks, t_from + max_dogleg + 1),
                ):
                    weight = float(abs(usable[t_to] - usable[t_from]))
                    edges.append(
                        _Edge(seg.index, "track", row, t_from, t_to, weight)
                    )
    return edges
