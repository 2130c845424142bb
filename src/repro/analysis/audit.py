"""Independent solution auditor (the AUD rule catalog).

DRC-style verification of a finished routing solution.  The evaluator
in :mod:`repro.eval` is the same code path the router optimizes
against, so a bookkeeping bug there is invisible to the regression
gate — the router would be grading its own homework.  This module is
the independent second opinion: it takes the final
:class:`~repro.detailed.DetailedResult` (plus the design's
:class:`~repro.layout.StitchingLines`) and re-derives every stitching
constraint **from scratch, with its own geometry code** — trimming,
segment merging, via extraction, connectivity, and short-polygon
detection are all reimplemented here and deliberately import nothing
from the evaluator's counting internals (``repro.eval.geometry`` /
``repro.detailed.wiring``).  Only the *data models* (result/report
dataclasses, the stitching-line table) are shared.

Two kinds of failure are reported:

* **findings** — one :class:`AuditFinding` per AUD-rule breach, with
  net / stitching-line / x / y / layer attribution (mirroring the
  linter's :class:`~repro.analysis.lint.Finding` shape);
* **drift** — one :class:`CounterDrift` per disagreement between a
  recomputed quantity and the router's self-reported
  :class:`~repro.eval.RoutingReport` counters (totals, per-net counts,
  and the per-line ``stitch_line_histogram``).

``repro audit`` is the CLI front end.  It, the regression gate and the
performance benchmark all call :func:`audit_solution` on a finished
:class:`~repro.api.FlowResult`; the flow never audits itself.  See
``docs/static_analysis.md``.
"""

from __future__ import annotations

import bisect
import dataclasses
from collections import Counter
from typing import TYPE_CHECKING, Optional, Union

from .rules import AUDIT_RULES

if TYPE_CHECKING:  # data models only — never their counting helpers
    from ..detailed import DetailedResult
    from ..detailed.router import RoutedNet
    from ..eval import NetReport, RoutingReport
    from ..globalroute import GlobalRoutingResult
    from ..layout import StitchingLines

#: Grid node / unit wire edge, redeclared locally so the auditor's
#: geometry layer shares no code with the router's.
Node = tuple[int, int, int]
Edge = tuple[Node, Node]

Number = Union[int, float]

#: Attribution key of one recomputed violation: (line, x, y, layer).
Attribution = tuple[int, int, int, int]


@dataclasses.dataclass(frozen=True)
class AuditFinding:
    """One AUD-rule breach at one solution location.

    Mirrors the linter's ``Finding`` shape: a rule code, a message,
    and a location — here a net / stitching line / grid coordinate
    instead of a file / line / column.
    """

    rule: str
    message: str
    net: Optional[str] = None
    line: Optional[int] = None
    x: Optional[int] = None
    y: Optional[int] = None
    layer: Optional[int] = None

    @property
    def fix_hint(self) -> str:
        """The rule's canonical fix, for display."""
        return AUDIT_RULES[self.rule].fix_hint

    @property
    def location(self) -> str:
        """Compact ``net=.. line=.. x=.. y=.. layer=..`` attribution."""
        parts = []
        for label, value in (
            ("net", self.net),
            ("line", self.line),
            ("x", self.x),
            ("y", self.y),
            ("layer", self.layer),
        ):
            if value is not None:
                parts.append(f"{label}={value}")
        return " ".join(parts)

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form for ``--format json`` output."""
        return {
            "rule": self.rule,
            "message": self.message,
            "net": self.net,
            "line": self.line,
            "x": self.x,
            "y": self.y,
            "layer": self.layer,
            "fix_hint": self.fix_hint,
        }


@dataclasses.dataclass(frozen=True)
class CounterDrift:
    """One disagreement between a reported and a recomputed counter."""

    counter: str
    reported: Number
    recomputed: Number

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form for ``--format json`` output."""
        return {
            "counter": self.counter,
            "reported": self.reported,
            "recomputed": self.recomputed,
        }


@dataclasses.dataclass
class AuditReport:
    """Outcome of one independent solution audit."""

    design_name: str
    findings: list[AuditFinding]
    drift: list[CounterDrift]
    nets_checked: int
    rules_checked: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether the solution verified clean (no finding, no drift)."""
        return not self.findings and not self.drift

    def to_dict(self) -> dict[str, object]:
        """Plain-dict document (the ``--format json`` payload)."""
        return {
            "design": self.design_name,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "drift": [d.to_dict() for d in self.drift],
            "nets_checked": self.nets_checked,
            "rules_checked": list(self.rules_checked),
        }


def render_audit(report: AuditReport) -> str:
    """Human-readable audit output (linter-style, one finding per line)."""
    out: list[str] = []
    for finding in report.findings:
        out.append(f"{finding.rule} {finding.message} [{finding.location}]")
        out.append(f"    hint: {finding.fix_hint}")
    for drift in report.drift:
        out.append(
            f"DRIFT {drift.counter}: reported {drift.reported} != "
            f"recomputed {drift.recomputed}"
        )
    verdict = "clean" if report.ok else "FAILED"
    out.append(
        f"{report.design_name}: {len(report.findings)} finding(s), "
        f"{len(report.drift)} counter drift(s) over "
        f"{report.nets_checked} net(s) "
        f"[{', '.join(report.rules_checked)}] — {verdict}"
    )
    return "\n".join(out)


# ----------------------------------------------------------------------
# Independent geometry layer (no code shared with repro.eval /
# repro.detailed.wiring — reimplemented from the problem statement).
# ----------------------------------------------------------------------
def _line_index(xs: tuple[int, ...], x: int) -> Optional[int]:
    """Index of the stitching line at ``x`` (binary search; None if off)."""
    i = bisect.bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return i
    return None


def _audit_trim(
    edges: frozenset[Edge], anchors: frozenset[Node]
) -> frozenset[Edge]:
    """Remove edges hanging off non-anchor degree-1 nodes.

    Same contract as the router's trimming but implemented as repeated
    whole-graph passes to a fixpoint (the reduction is confluent, so
    the survivor set is identical whatever the peeling order).
    """
    alive = set(edges)
    while True:
        degree: Counter[Node] = Counter()
        for a, b in alive:
            degree[a] += 1
            degree[b] += 1
        doomed = {
            e
            for e in alive
            if any(degree[n] == 1 and n not in anchors for n in e)
        }
        if not doomed:
            return frozenset(alive)
        alive -= doomed


def _maximal_runs(values: list[int]) -> list[tuple[int, int]]:
    """Merge unit-step start coordinates into maximal [lo, hi] runs."""
    runs: list[tuple[int, int]] = []
    for v in sorted(set(values)):
        if runs and v == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return runs


@dataclasses.dataclass
class _NetGeometry:
    """Everything the auditor re-derives for one net."""

    name: str
    routed: bool
    pins: frozenset[Node]
    raw_edges: frozenset[Edge]
    edges: frozenset[Edge]
    #: x-axis maximal segments as (y, layer, x_lo, x_hi).
    horizontal: list[tuple[int, int, int, int]]
    #: y-axis maximal segments as (x, layer, y_lo, y_hi).
    vertical: list[tuple[int, int, int, int]]
    #: (x, y) -> lowest layer of the via stack there.
    via_stacks: dict[tuple[int, int], int]
    #: every node where a via (or a pin cell contact) lands.
    landings: frozenset[Node]
    wirelength: int
    vias: int
    #: recomputed attributed violations per kind (multisets).
    via_events: Counter[Attribution]
    vertical_events: Counter[Attribution]
    sp_events: Counter[Attribution]


def _derive_net_geometry(
    routed_net: "RoutedNet", stitches: "StitchingLines"
) -> _NetGeometry:
    """Re-derive one net's audited geometry from its raw edge set."""
    name = routed_net.net.name
    pins = frozenset(routed_net.pin_nodes)
    raw = frozenset(routed_net.edges)
    edges = _audit_trim(raw, pins)
    xs = stitches.xs
    epsilon = stitches.epsilon

    # Maximal planar runs, grouped by the two fixed coordinates.
    h_groups: dict[tuple[int, int], list[int]] = {}
    v_groups: dict[tuple[int, int], list[int]] = {}
    via_stacks: dict[tuple[int, int], int] = {}
    wirelength = 0
    vias = 0
    landing_nodes: set[Node] = set(pins)
    for a, b in sorted(edges):
        if a[2] != b[2]:
            vias += 1
            low = min(a[2], b[2])
            key = (a[0], a[1])
            via_stacks[key] = min(via_stacks.get(key, low), low)
            landing_nodes.add(a)
            landing_nodes.add(b)
        elif a[0] != b[0]:
            wirelength += 1
            h_groups.setdefault((a[1], a[2]), []).append(min(a[0], b[0]))
        else:
            wirelength += 1
            v_groups.setdefault((a[0], a[2]), []).append(min(a[1], b[1]))

    horizontal = [
        (y, layer, lo, hi + 1)
        for (y, layer), starts in sorted(h_groups.items())
        for lo, hi in _maximal_runs(starts)
    ]
    vertical = [
        (x, layer, lo, hi + 1)
        for (x, layer), starts in sorted(v_groups.items())
        for lo, hi in _maximal_runs(starts)
    ]

    # Recomputed attributed violations (the report's column semantics).
    via_events: Counter[Attribution] = Counter()
    for (x, y), layer in sorted(via_stacks.items()):
        line = _line_index(xs, x)
        if line is not None:
            via_events[(line, x, y, layer)] += 1
    if routed_net.routed:
        # Each routed pin is a cell contact below layer 1: a pin on a
        # line is an (unavoidable, Problem-1-sanctioned) via violation.
        for x, y, layer in sorted(pins):
            line = _line_index(xs, x)
            if line is not None:
                via_events[(line, x, y, layer)] += 1

    vertical_events: Counter[Attribution] = Counter()
    for x, layer, y_lo, _y_hi in vertical:
        line = _line_index(xs, x)
        if line is not None:
            vertical_events[(line, x, y_lo, layer)] += 1

    landings = frozenset(landing_nodes)
    sp_events: Counter[Attribution] = Counter()
    for y, layer, x_lo, x_hi in horizontal:
        # Lines strictly inside the wire's x extent cut it in two.
        lo = bisect.bisect_right(xs, x_lo)
        hi = bisect.bisect_left(xs, x_hi)
        for line_x in xs[lo:hi]:
            for end_x in (x_lo, x_hi):
                if 0 < abs(end_x - line_x) <= epsilon and (
                    (end_x, y, layer) in landings
                ):
                    line = _line_index(xs, line_x)
                    assert line is not None
                    sp_events[(line, line_x, y, layer)] += 1

    return _NetGeometry(
        name=name,
        routed=routed_net.routed,
        pins=pins,
        raw_edges=raw,
        edges=edges,
        horizontal=horizontal,
        vertical=vertical,
        via_stacks=via_stacks,
        landings=landings,
        wirelength=wirelength,
        vias=vias,
        via_events=via_events,
        vertical_events=vertical_events,
        sp_events=sp_events,
    )


def _reported_events(
    net_report: "NetReport", kind: str
) -> Counter[Attribution]:
    """The report's attributed violations of one kind, as a multiset."""
    out: Counter[Attribution] = Counter()
    for violation in net_report.violations:
        if violation.kind == kind:
            out[
                (violation.line, violation.x, violation.y, violation.layer)
            ] += 1
    return out


def _diff_events(
    findings: list[AuditFinding],
    rule: str,
    net: str,
    kind: str,
    recomputed: Counter[Attribution],
    reported: Counter[Attribution],
) -> None:
    """Emit findings for every recomputed/reported multiset mismatch."""
    for line, x, y, layer in sorted((recomputed - reported).elements()):
        findings.append(
            AuditFinding(
                rule=rule,
                message=f"{kind} violation in geometry but absent from "
                "the report",
                net=net,
                line=line,
                x=x,
                y=y,
                layer=layer,
            )
        )
    for line, x, y, layer in sorted((reported - recomputed).elements()):
        findings.append(
            AuditFinding(
                rule=rule,
                message=f"reported {kind} violation has no supporting "
                "geometry",
                net=net,
                line=line,
                x=x,
                y=y,
                layer=layer,
            )
        )


def _connected_pin_components(geo: _NetGeometry) -> list[set[Node]]:
    """Connected components (over trimmed edges) containing each pin."""
    parent: dict[Node, Node] = {}

    def find(node: Node) -> Node:
        root = node
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for a, b in sorted(geo.edges):
        parent[find(a)] = find(b)
    for pin in sorted(geo.pins):
        find(pin)
    components: dict[Node, set[Node]] = {}
    for node in parent:
        components.setdefault(find(node), set()).add(node)
    return [comp for comp in components.values() if comp & geo.pins]


def _check_net_rules(
    geo: _NetGeometry,
    net_report: Optional["NetReport"],
    stitches: "StitchingLines",
    die: tuple[int, int, int],
    horizontal_layer: list[bool],
    findings: list[AuditFinding],
) -> None:
    """AUD001/002/003/004/006 for one net."""
    xs = stitches.xs

    # AUD001a: a via stack on a line is legal only at a fixed pin.
    pin_xy = {(x, y) for x, y, _layer in geo.pins}
    for (x, y), layer in sorted(geo.via_stacks.items()):
        line = _line_index(xs, x)
        if line is not None and (x, y) not in pin_xy:
            findings.append(
                AuditFinding(
                    rule="AUD001",
                    message="routed via stack on a stitching line away "
                    "from any fixed pin",
                    net=geo.name,
                    line=line,
                    x=x,
                    y=y,
                    layer=layer,
                )
            )

    # AUD002: vertical wire along a line — hard constraint, always bad.
    for x, layer, y_lo, _y_hi in geo.vertical:
        line = _line_index(xs, x)
        if line is not None:
            findings.append(
                AuditFinding(
                    rule="AUD002",
                    message="vertical wire runs along a stitching line",
                    net=geo.name,
                    line=line,
                    x=x,
                    y=y_lo,
                    layer=layer,
                )
            )

    # AUD001b/AUD002b/AUD003: the report's attributed violations must
    # match the recomputed events exactly, item by item.
    if net_report is not None:
        _diff_events(
            findings,
            "AUD001",
            geo.name,
            "via",
            geo.via_events,
            _reported_events(net_report, "via"),
        )
        reported_vertical = _reported_events(net_report, "vertical")
        for line, x, y, layer in sorted(
            (reported_vertical - geo.vertical_events).elements()
        ):
            findings.append(
                AuditFinding(
                    rule="AUD002",
                    message="reported vertical violation has no "
                    "supporting geometry",
                    net=geo.name,
                    line=line,
                    x=x,
                    y=y,
                    layer=layer,
                )
            )
        _diff_events(
            findings,
            "AUD003",
            geo.name,
            "short-polygon",
            geo.sp_events,
            _reported_events(net_report, "short-polygon"),
        )

    # AUD004: a routed net must connect all pins in one component.
    if geo.routed and geo.pins:
        components = _connected_pin_components(geo)
        if len(components) > 1:
            anchor = min(min(comp) for comp in components)
            for comp in sorted(components, key=min):
                pin = min(comp & geo.pins)
                if pin == anchor or anchor in comp:
                    continue
                findings.append(
                    AuditFinding(
                        rule="AUD004",
                        message=f"net marked routed but pin {pin} is "
                        f"disconnected from pin {anchor}",
                        net=geo.name,
                        x=pin[0],
                        y=pin[1],
                        layer=pin[2],
                    )
                )

    # AUD006: grid legality of every unit edge.
    width, height, num_layers = die
    for a, b in sorted(geo.raw_edges):
        dx, dy, dz = abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2])
        if dx + dy + dz != 1:
            findings.append(
                AuditFinding(
                    rule="AUD006",
                    message=f"edge {a} -> {b} is not a unit grid move",
                    net=geo.name,
                    x=a[0],
                    y=a[1],
                    layer=a[2],
                )
            )
            continue
        off_die = any(
            not (
                0 <= n[0] < width
                and 0 <= n[1] < height
                and 1 <= n[2] <= num_layers
            )
            for n in (a, b)
        )
        if off_die:
            findings.append(
                AuditFinding(
                    rule="AUD006",
                    message=f"edge {a} -> {b} leaves the die or the "
                    "layer stack",
                    net=geo.name,
                    x=a[0],
                    y=a[1],
                    layer=a[2],
                )
            )
            continue
        if dx == 1 and not horizontal_layer[a[2]]:
            findings.append(
                AuditFinding(
                    rule="AUD006",
                    message="x-direction wire on a vertical layer",
                    net=geo.name,
                    x=min(a[0], b[0]),
                    y=a[1],
                    layer=a[2],
                )
            )
        elif dy == 1 and horizontal_layer[a[2]]:
            findings.append(
                AuditFinding(
                    rule="AUD006",
                    message="y-direction wire on a horizontal layer",
                    net=geo.name,
                    x=a[0],
                    y=min(a[1], b[1]),
                    layer=a[2],
                )
            )


def _check_shorts(
    geometries: list[_NetGeometry], findings: list[AuditFinding]
) -> None:
    """AUD005: no grid node may carry the metal of two nets."""
    owner: dict[Node, str] = {}
    reported: set[tuple[Node, str, str]] = set()
    for geo in geometries:
        nodes = {n for e in geo.raw_edges for n in e}
        if geo.routed:
            nodes |= geo.pins
        for node in sorted(nodes):
            previous = owner.get(node)
            if previous is None:
                owner[node] = geo.name
            elif previous != geo.name:
                key = (node, previous, geo.name)
                if key not in reported:
                    reported.add(key)
                    findings.append(
                        AuditFinding(
                            rule="AUD005",
                            message=f"nets {previous!r} and {geo.name!r} "
                            f"both occupy grid node {node}",
                            net=geo.name,
                            x=node[0],
                            y=node[1],
                            layer=node[2],
                        )
                    )


def _check_global_accounting(
    global_result: "GlobalRoutingResult", findings: list[AuditFinding]
) -> None:
    """AUD007: the graph's demand must equal the recompute from final routes."""
    graph = global_result.graph
    h: Counter[tuple[int, int]] = Counter()
    v: Counter[tuple[int, int]] = Counter()
    vertex: Counter[tuple[int, int]] = Counter()
    for name in sorted(global_result.routes):
        route = global_result.routes[name]
        for path in route.paths:
            for a, b in zip(path, path[1:]):
                if a[1] == b[1]:
                    h[(min(a[0], b[0]), a[1])] += 1
                else:
                    v[(a[0], min(a[1], b[1]))] += 1
            # Maximal vertical runs: both end tiles hold a line end.
            run_start: Optional[int] = None
            for idx in range(len(path) - 1):
                is_vertical = path[idx][0] == path[idx + 1][0]
                if is_vertical and run_start is None:
                    run_start = idx
                if not is_vertical and run_start is not None:
                    vertex[path[run_start]] += 1
                    vertex[path[idx]] += 1
                    run_start = None
            if run_start is not None:
                vertex[path[run_start]] += 1
                vertex[path[-1]] += 1

    # The stored demand is read entry by entry, an edge by its kind
    # (``None`` for a tile), over the shapes of the graph's lists.
    nx, ny = graph.nx, graph.ny
    checks: tuple[
        tuple[str, Optional[str], int, int, Counter[tuple[int, int]]], ...
    ] = (
        ("h-edge", "h", nx - 1, ny, h),
        ("v-edge", "v", nx, ny - 1, v),
        ("vertex", None, nx, ny, vertex),
    )
    for label, kind, ni, nj, fresh in checks:
        for i in range(ni):
            for j in range(nj):
                expected = fresh.get((i, j), 0)
                actual = (
                    graph.tile_demand((i, j))
                    if kind is None
                    else graph.edge_demand((kind, i, j))
                )
                if actual != expected:
                    findings.append(
                        AuditFinding(
                            rule="AUD007",
                            message=f"{label} ({i}, {j}) demand {actual} "
                            f"!= {expected} recomputed from the final "
                            "routes",
                            x=i,
                            y=j,
                        )
                    )


def _cross_check(
    report: "RoutingReport",
    geometries: list[_NetGeometry],
    drift: list[CounterDrift],
) -> None:
    """Diff every report counter against its recomputed value."""

    def check(counter: str, reported: Number, recomputed: Number) -> None:
        if reported != recomputed:
            drift.append(CounterDrift(counter, reported, recomputed))

    by_name = {geo.name: geo for geo in geometries}

    # Per-net counters and their attribution lists.
    for name in sorted(report.nets):
        net_report = report.nets[name]
        geo = by_name.get(name)
        if geo is None:
            drift.append(CounterDrift(f"net[{name}].present", 1, 0))
            continue
        check(f"net[{name}].routed", int(net_report.routed), int(geo.routed))
        check(
            f"net[{name}].via_violations",
            net_report.via_violations,
            sum(geo.via_events.values()),
        )
        check(
            f"net[{name}].vertical_violations",
            net_report.vertical_violations,
            sum(geo.vertical_events.values()),
        )
        check(
            f"net[{name}].short_polygons",
            net_report.short_polygons,
            sum(geo.sp_events.values()),
        )
        check(
            f"net[{name}].wirelength", net_report.wirelength, geo.wirelength
        )
        check(f"net[{name}].vias", net_report.vias, geo.vias)
        # Internal consistency: scalar counts vs attribution lists.
        kinds = Counter(v.kind for v in net_report.violations)
        check(
            f"net[{name}].violations.via",
            net_report.via_violations,
            kinds.get("via", 0),
        )
        check(
            f"net[{name}].violations.vertical",
            net_report.vertical_violations,
            kinds.get("vertical", 0),
        )
        check(
            f"net[{name}].violations.short-polygon",
            net_report.short_polygons,
            kinds.get("short-polygon", 0),
        )
    for geo in geometries:
        if geo.name not in report.nets:
            drift.append(CounterDrift(f"net[{geo.name}].present", 0, 1))

    # Aggregate columns (the #SP column counts routed nets only).
    check("total_nets", report.total_nets, len(geometries))
    check(
        "routed_nets",
        report.routed_nets,
        sum(1 for geo in geometries if geo.routed),
    )
    check(
        "via_violations",
        report.via_violations,
        sum(sum(geo.via_events.values()) for geo in geometries),
    )
    check(
        "vertical_violations",
        report.vertical_violations,
        sum(sum(geo.vertical_events.values()) for geo in geometries),
    )
    check(
        "short_polygons",
        report.short_polygons,
        sum(
            sum(geo.sp_events.values()) for geo in geometries if geo.routed
        ),
    )
    check(
        "wirelength",
        report.wirelength,
        sum(geo.wirelength for geo in geometries),
    )
    check("vias", report.vias, sum(geo.vias for geo in geometries))

    # Per-line histogram: recompute with the same column semantics
    # (short polygons of unrouted nets are excluded).
    recomputed: dict[int, dict[str, int]] = {}

    def bump(line: int, kind: str, count: int) -> None:
        per_line = recomputed.setdefault(
            line, {"via": 0, "vertical": 0, "short-polygon": 0}
        )
        per_line[kind] += count

    for geo in geometries:
        for (line, _x, _y, _layer), count in sorted(geo.via_events.items()):
            bump(line, "via", count)
        for (line, _x, _y, _layer), count in sorted(
            geo.vertical_events.items()
        ):
            bump(line, "vertical", count)
        if geo.routed:
            for (line, _x, _y, _layer), count in sorted(
                geo.sp_events.items()
            ):
                bump(line, "short-polygon", count)

    histogram = report.stitch_line_histogram()
    for line in sorted(set(histogram) | set(recomputed)):
        reported_kinds = histogram.get(line, {})
        recomputed_kinds = recomputed.get(line, {})
        for kind in ("via", "vertical", "short-polygon"):
            check(
                f"line[{line}].{kind}",
                reported_kinds.get(kind, 0),
                recomputed_kinds.get(kind, 0),
            )


def audit_solution(
    result: "DetailedResult",
    report: "RoutingReport",
    global_result: Optional["GlobalRoutingResult"] = None,
) -> AuditReport:
    """Independently verify a routing solution against its report.

    Args:
        result: the final detailed-routing geometry.
        report: the router's self-reported violation/metric report
            (the object whose numbers are being cross-checked).
        global_result: when given, the global-routing outcome is also
            audited (AUD007 capacity accounting).

    Returns:
        An :class:`AuditReport`; :attr:`AuditReport.ok` is ``True``
        only when no rule fired and no counter drifted.
    """
    design = result.design
    stitches = design.stitches
    if stitches is None:
        raise ValueError("design has no stitching lines to audit against")
    tech = design.technology
    horizontal_layer = [False] + [
        tech.is_horizontal(m) for m in tech.layers
    ]

    findings: list[AuditFinding] = []
    drift: list[CounterDrift] = []
    geometries: list[_NetGeometry] = []
    for name in sorted(result.nets):
        geo = _derive_net_geometry(result.nets[name], stitches)
        geometries.append(geo)
        _check_net_rules(
            geo,
            report.nets.get(name),
            stitches,
            (design.width, design.height, tech.num_layers),
            horizontal_layer,
            findings,
        )
    _check_shorts(geometries, findings)
    rules = ["AUD001", "AUD002", "AUD003", "AUD004", "AUD005", "AUD006"]
    if global_result is not None:
        _check_global_accounting(global_result, findings)
        rules.append("AUD007")
    _cross_check(report, geometries, drift)

    order = {code: idx for idx, code in enumerate(AUDIT_RULES)}
    findings.sort(
        key=lambda f: (
            order[f.rule],
            f.net or "",
            f.line if f.line is not None else -1,
            f.x if f.x is not None else -1,
            f.y if f.y is not None else -1,
            f.layer if f.layer is not None else -1,
            f.message,
        )
    )
    return AuditReport(
        design_name=design.name,
        findings=findings,
        drift=drift,
        nets_checked=len(geometries),
        rules_checked=tuple(rules),
    )
