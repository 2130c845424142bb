"""The tuple-level run builder against the segment-object reference.

``edge_rows`` and ``edge_runs`` (``repro.detailed.wiring``) feed the
stitching-line checks with plain ints.  The functions below are the
object-based code they replaced: every maximal run became a
``WireSegment`` of ``GridPoint``s, and the checks read its orientation,
length and endpoints back.  On random edge sets the new
``short_polygon_sites``, ``edges_to_segments`` and the violation list
of the evaluator's ``_check_net`` must equal the reference exactly,
order included.
"""

from collections import defaultdict
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detailed import RoutedNet
from repro.detailed.wiring import (
    edges_to_segments,
    path_edges,
    short_polygon_sites,
    trim_dangling,
    via_landing_points,
)
from repro.eval.violations import Violation, _check_net, _via_positions
from repro.geometry import GridPoint, Orientation, Point, WireSegment
from repro.layout import Net, Pin, StitchingLines

WIDTH, HEIGHT, LAYERS = 16, 8, 3


# ----------------------------------------------------------------------
# Reference: the segment-object code
# ----------------------------------------------------------------------
def reference_edges_to_segments(edges):
    groups = defaultdict(list)
    for a, b in edges:
        a0, a1, a2 = a
        b0 = b[0]
        if a0 != b0:
            groups[("x", a1, a2)].append(a0 if a0 < b0 else b0)
        else:
            b1 = b[1]
            if a1 != b1:
                groups[("y", a0, a2)].append(a1 if a1 < b1 else b1)
            else:
                b2 = b[2]
                groups[("z", a0, a1)].append(a2 if a2 < b2 else b2)

    segments = []
    for (axis, c1, c2), starts in sorted(groups.items()):
        for lo, hi in reference_runs(starts):
            if axis == "x":
                seg = WireSegment(GridPoint(lo, c1, c2), GridPoint(hi + 1, c1, c2))
            elif axis == "y":
                seg = WireSegment(GridPoint(c1, lo, c2), GridPoint(c1, hi + 1, c2))
            else:
                seg = WireSegment(GridPoint(c1, c2, lo), GridPoint(c1, c2, hi + 1))
            segments.append(seg)
    return segments


def reference_runs(starts):
    ordered = sorted(set(starts))
    runs = []
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


def reference_short_polygon_sites(edges, pins, stitches):
    epsilon = stitches.epsilon
    landings = via_landing_points(edges, pins)
    sites = []
    for seg in reference_edges_to_segments(edges):
        if seg.orientation is not Orientation.HORIZONTAL:
            continue
        y, layer = seg.a.y, seg.a.layer
        for line in stitches.lines_crossing(seg.a.x, seg.b.x):
            for end_x in (seg.a.x, seg.b.x):
                if 0 < abs(end_x - line) <= epsilon and (
                    (end_x, y, layer) in landings
                ):
                    sites.append(((line, y, layer), (end_x, y, layer)))
    return sites


def reference_vertical_violations(net, stitches, segments):
    out = []
    for seg in segments:
        if seg.orientation is Orientation.VERTICAL:
            line = stitches.line_index(seg.a.x)
            if line is not None:
                out.append(
                    Violation(
                        net,
                        "vertical",
                        line,
                        seg.a.x,
                        min(seg.a.y, seg.b.y),
                        seg.a.layer,
                    )
                )
    return out


def reference_check_net_violations(stitches, routed_net):
    name = routed_net.net.name
    pins = routed_net.pin_nodes
    edges = trim_dangling(routed_net.edges, pins)
    segments = reference_edges_to_segments(edges)
    violations = []
    for (x, y), layer in sorted(_via_positions(edges).items()):
        line = stitches.line_index(x)
        if line is not None:
            violations.append(Violation(name, "via", line, x, y, layer))
    if routed_net.routed:
        for x, y, z in sorted(pins):
            line = stitches.line_index(x)
            if line is not None:
                violations.append(Violation(name, "via", line, x, y, z))
    violations.extend(reference_vertical_violations(name, stitches, segments))
    for (line_x, y, layer), _end in reference_short_polygon_sites(
        edges, pins, stitches
    ):
        line = stitches.line_index(line_x)
        violations.append(
            Violation(name, "short-polygon", line, line_x, y, layer)
        )
    return violations


# ----------------------------------------------------------------------
# Random edge sets
# ----------------------------------------------------------------------
nodes = st.tuples(
    st.integers(0, WIDTH - 1), st.integers(0, HEIGHT - 1), st.integers(1, LAYERS)
)
steps = st.sampled_from(
    [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
)


@st.composite
def unit_paths(draw):
    """A walk of unit steps inside the grid; long straight stretches
    come from repeating a step."""
    node = draw(nodes)
    path = [node]
    for step, repeat in draw(st.lists(st.tuples(steps, st.integers(1, 6)), max_size=10)):
        for _ in range(repeat):
            x, y, layer = (p + d for p, d in zip(path[-1], step))
            if 0 <= x < WIDTH and 0 <= y < HEIGHT and 1 <= layer <= LAYERS:
                path.append((x, y, layer))
    return path


@st.composite
def edge_sets(draw):
    """Overlapping walks, a walk drawn twice, and some edges stored in
    both orientations: duplicate unit-edge starts within a run."""
    paths = draw(st.lists(unit_paths(), min_size=1, max_size=4))
    if draw(st.booleans()):
        paths.append(paths[0][::-1])
    edges = set().union(*(path_edges(path) for path in paths))
    flipped = draw(st.lists(st.sampled_from(sorted(edges)), max_size=4)) if edges else []
    edges.update((b, a) for a, b in flipped)
    # Pins, at least the two a net needs: on the wire (they anchor
    # trimming and land short polygons) or anywhere.
    wire = sorted({node for path in paths for node in path})
    pins = draw(
        st.lists(st.one_of(st.sampled_from(wire), nodes), min_size=2, max_size=6, unique=True)
    )
    return edges, set(pins)


@st.composite
def stitching_lines(draw):
    xs = draw(st.lists(st.integers(0, WIDTH - 1), max_size=4, unique=True))
    return StitchingLines(tuple(sorted(xs)), epsilon=draw(st.integers(0, 3)))


def net_of(pins):
    return Net(
        "n",
        tuple(Pin(f"n.{k}", Point(x, y), layer) for k, (x, y, layer) in enumerate(sorted(pins))),
    )


@settings(max_examples=300, deadline=None)
@given(edge_sets(), stitching_lines())
def test_segments_and_short_polygons_match_reference(case, stitches):
    edges, pins = case
    assert edges_to_segments(edges) == reference_edges_to_segments(edges)
    assert short_polygon_sites(edges, pins, stitches) == (
        reference_short_polygon_sites(edges, pins, stitches)
    )


@settings(max_examples=300, deadline=None)
@given(edge_sets(), stitching_lines(), st.booleans())
def test_check_net_violations_match_reference(case, stitches, routed):
    edges, pins = case
    routed_net = RoutedNet(
        net=net_of(pins),
        nodes={node for edge in edges for node in edge},
        edges=edges,
        routed=routed,
    )
    design = SimpleNamespace(stitches=stitches)
    report = _check_net(design, routed_net)
    expected = reference_check_net_violations(stitches, routed_net)
    assert report.violations == expected
    kinds = [v.kind for v in expected]
    assert report.via_violations == kinds.count("via")
    assert report.vertical_violations == kinds.count("vertical")
    assert report.short_polygons == kinds.count("short-polygon")


def test_vertical_runs_on_a_line_are_reported_per_run():
    # Two separate vertical runs and one overlapping pair on the line
    # column x = 5, and one vertical run off the line.
    stitches = StitchingLines((5,), epsilon=1)
    edges = path_edges([(5, 0, 2), (5, 1, 2), (5, 2, 2)])
    edges |= path_edges([(5, 1, 2), (5, 2, 2), (5, 3, 2)])
    edges |= path_edges([(5, 6, 2), (5, 7, 2)])
    edges |= path_edges([(4, 0, 2), (4, 1, 2)])
    pins = {(5, 0, 2), (5, 3, 2), (5, 6, 2), (5, 7, 2), (4, 0, 2), (4, 1, 2)}
    routed_net = RoutedNet(net=net_of(pins), nodes=set(), edges=edges, routed=False)
    report = _check_net(SimpleNamespace(stitches=stitches), routed_net)
    assert report.violations == [
        Violation("n", "vertical", 0, 5, 0, 2),
        Violation("n", "vertical", 0, 5, 6, 2),
    ]
