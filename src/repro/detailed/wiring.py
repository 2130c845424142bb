"""Wire-edge utilities shared by the router and the evaluator.

A wire *edge* is a pair of adjacent grid nodes physically connected by
metal or a via.  The router trims each net right after connecting it
(releasing never-used trunk metal back to the grid — real routers'
cleanup, and essential for routability since untrimmed trunks would
block later pins); the evaluator re-uses the same trimming for its
reports.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Optional

from ..geometry import GridPoint, WireSegment
from ..layout import StitchingLines
from .grid import Node

Edge = tuple[Node, Node]


def canonical_edge(a: Node, b: Node) -> Edge:
    """Order-normalized edge between two adjacent nodes."""
    if sum(abs(p - q) for p, q in zip(a, b)) != 1:
        raise ValueError(f"nodes {a} and {b} are not adjacent")
    return (a, b) if a <= b else (b, a)


def path_edges(path: Sequence[Node]) -> set[Edge]:
    """Order-normalized wire edges of an ordered node path.

    Validates adjacency: a gap in the path would silently fabricate
    diagonal "wire", which every consumer downstream (trimming,
    violation checking, rendering) would misinterpret.
    """
    out: set[Edge] = set()
    for a, b in zip(path, path[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2]) != 1:
            raise ValueError(f"non-adjacent path nodes: {a} -> {b}")
        out.add((a, b) if a <= b else (b, a))
    return out


def nodes_of_edges(edges: set[Edge]) -> set[Node]:
    """All endpoints of an edge set."""
    return {node for edge in edges for node in edge}


def trim_dangling(edges: set[Edge], anchors: set[Node]) -> set[Edge]:
    """Remove edges hanging off non-anchor degree-1 nodes.

    Repeatedly peels leaf edges whose leaf endpoint is not an anchor
    (pin) until every remaining leaf is an anchor or a cycle remains.
    Endpoint degrees are counted first: a set without a non-anchor
    leaf, such as a net the router has already trimmed, comes back as
    a copy without building the peel's incidence sets.
    """
    degree = Counter(chain.from_iterable(edges))
    frontier = [
        node for node, count in degree.items() if count == 1 and node not in anchors
    ]
    if not frontier:
        return set(edges)
    # Leaf peeling is confluent: whatever order edges are indexed and
    # leaves are peeled in, the surviving edge set is the same.
    incident: dict[Node, set[Edge]] = {node: set() for node in degree}
    for edge in edges:  # repro: allow-DET001 confluent reduction
        a, b = edge
        incident[a].add(edge)
        incident[b].add(edge)
    alive = set(edges)
    while frontier:
        node = frontier.pop()
        inc = incident.get(node, set())
        if len(inc) != 1 or node in anchors:
            continue
        (edge,) = inc
        if edge not in alive:
            continue
        alive.discard(edge)
        for endpoint in edge:
            incident[endpoint].discard(edge)
            if len(incident[endpoint]) == 1 and endpoint not in anchors:
                frontier.append(endpoint)
    return alive


#: Unit-edge start coordinates of one axis, keyed by the edge's two
#: fixed coordinates in ``(x, y, layer)`` order: ``(y, layer)`` for an
#: x edge, ``(x, layer)`` for a y edge and ``(x, y)`` for a via.  Each
#: list holds the smaller varying coordinate of every edge on that line,
#: in no particular order; :func:`edge_runs` merges it.
EdgeRows = dict[tuple[int, int], list[int]]


def edge_rows(edges: Iterable[Edge], axes: str = "xyz") -> dict[str, EdgeRows]:
    """Group a net's unit edges by axis and fixed coordinates.

    Returns one :data:`EdgeRows` per letter of ``axes`` (``"x"``,
    ``"y"``, ``"z"``); edges along the other axes are skipped, so a
    consumer pays only for the lines it reads.  Together with
    :func:`edge_runs` this is the one merge rule behind every maximal
    wire run: the segments of :func:`edges_to_segments`, the short
    polygons of :func:`short_polygon_sites` and the evaluator's
    vertical-wire check.
    """
    x_rows: Optional[EdgeRows] = defaultdict(list) if "x" in axes else None
    y_rows: Optional[EdgeRows] = defaultdict(list) if "y" in axes else None
    z_rows: Optional[EdgeRows] = defaultdict(list) if "z" in axes else None
    # Consumers sort the keys and merge the starts, so the hash order
    # of ``edges`` never reaches their output.
    for (a0, a1, a2), (b0, b1, b2) in edges:
        if a0 != b0:
            if x_rows is not None:
                x_rows[a1, a2].append(a0 if a0 < b0 else b0)
        elif a1 != b1:
            if y_rows is not None:
                y_rows[a0, a2].append(a1 if a1 < b1 else b1)
        elif z_rows is not None:
            z_rows[a0, a1].append(a2 if a2 < b2 else b2)
    groups = {"x": x_rows, "y": y_rows, "z": z_rows}
    return {axis: rows for axis, rows in groups.items() if rows is not None}


def edge_runs(starts: Iterable[int]) -> list[tuple[int, int]]:
    """Maximal runs ``(lo, hi)`` of consecutive unit-edge starts.

    A run's wire covers ``lo`` to ``hi + 1`` along its axis; duplicate
    starts merge.
    """
    ordered = sorted(set(starts))
    runs: list[tuple[int, int]] = []
    if not ordered:
        return runs
    begin = prev = ordered[0]
    for v in ordered[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append((begin, prev))
        begin = prev = v
    runs.append((begin, prev))
    return runs


def edges_to_segments(edges: set[Edge]) -> list[WireSegment]:
    """Merge collinear unit edges into maximal wire segments.

    Segments come axis by axis (x, y, then vias), each axis's lines in
    sorted order of their fixed coordinates and each line's runs from
    low to high.
    """
    segments: list[WireSegment] = []
    for axis, rows in edge_rows(edges).items():
        for c1, c2 in sorted(rows):
            for lo, hi in edge_runs(rows[c1, c2]):
                if axis == "x":
                    a, b = GridPoint(lo, c1, c2), GridPoint(hi + 1, c1, c2)
                elif axis == "y":
                    a, b = GridPoint(c1, lo, c2), GridPoint(c1, hi + 1, c2)
                else:
                    a, b = GridPoint(c1, c2, lo), GridPoint(c1, c2, hi + 1)
                segments.append(WireSegment(a, b))
    return segments


def via_landing_points(edges: set[Edge], pins: set[Node]) -> set[Node]:
    """(x, y, layer) points where a via (or a pin contact) lands."""
    landings: set[Node] = set()
    for a, b in edges:  # repro: allow-DET001 building a set; order-free
        if a[2] != b[2]:
            landings.add(a)
            landings.add(b)
    landings.update(pins)
    return landings


def short_polygon_sites(
    edges: set[Edge], pins: set[Node], stitches: StitchingLines
) -> list[tuple[Node, Node]]:
    """Short polygons of a net's trimmed geometry (Fig. 5c).

    Returns one ``(crossing_node, end_node)`` pair per short polygon:
    the node where the offending horizontal wire crosses the stitching
    line, and the wire's bad line end.  The count equals the #SP
    contribution of this net; the crossing nodes are what a repair
    pass blocks when re-routing.
    """
    return row_short_polygons(edge_rows(edges, "x")["x"], edges, pins, stitches)


def row_short_polygons(
    rows: EdgeRows,
    edges: set[Edge],
    pins: set[Node],
    stitches: StitchingLines,
) -> list[tuple[Node, Node]]:
    """:func:`short_polygon_sites` over the x rows of ``edges``.

    ``rows`` is ``edge_rows(edges, ...)["x"]``, for a caller that has
    grouped the edges already.  Sites come row by row in sorted
    ``(y, layer)`` order, each row's runs from low to high, each run's
    crossing lines from left to right and its low end before its high
    end.
    """
    epsilon = stitches.epsilon
    landings: Optional[set[Node]] = None
    sites: list[tuple[Node, Node]] = []
    for y, layer in sorted(rows):
        for lo, hi in edge_runs(rows[y, layer]):
            end = hi + 1
            for line in stitches.lines_crossing(lo, end):
                for end_x in (lo, end):
                    if abs(end_x - line) > epsilon:
                        continue
                    if landings is None:
                        landings = via_landing_points(edges, pins)
                    if (end_x, y, layer) in landings:
                        sites.append(((line, y, layer), (end_x, y, layer)))
    return sites
