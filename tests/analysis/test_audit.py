"""Independent solution auditor: clean runs, corruption, independence."""

import ast
import dataclasses
import pathlib

import pytest

from repro.analysis import (
    AUDIT_RULES,
    AuditFinding,
    AuditReport,
    CounterDrift,
    audit_solution,
    render_audit,
)
from repro.benchmarks_gen import mcnc_design
from repro.api import BaselineRouter, StitchAwareRouter
from repro.detailed import DetailedResult
from repro.detailed.router import RoutedNet
from repro.eval import evaluate
from repro.geometry import Point
from repro.layout import Design, Net, Netlist, Pin, Technology


@pytest.fixture(scope="module")
def flows():
    """Both routers on one hard gate circuit, serial."""
    out = {}
    for label, router in (
        ("baseline", BaselineRouter()),
        ("stitch-aware", StitchAwareRouter()),
    ):
        out[label] = router.route(mcnc_design("S9234", 0.02))
    return out


def _audit(flow):
    return audit_solution(
        flow.detailed_result, flow.report, flow.global_result
    )


class TestCleanSolutions:
    @pytest.mark.parametrize("label", ["baseline", "stitch-aware"])
    def test_real_solutions_verify_clean(self, flows, label):
        report = _audit(flows[label])
        assert report.ok
        assert report.findings == []
        assert report.drift == []
        assert report.nets_checked == len(flows[label].report.nets)

    def test_all_rules_checked_with_global_result(self, flows):
        report = _audit(flows["stitch-aware"])
        assert report.rules_checked == tuple(AUDIT_RULES)

    def test_global_rule_skipped_without_global_result(self, flows):
        flow = flows["stitch-aware"]
        report = audit_solution(flow.detailed_result, flow.report)
        assert "AUD007" not in report.rules_checked
        assert report.ok

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 'Dogleg jogs against AUD006': the "
        "trunk doglegs jog along tile-boundary rows on the vertical "
        "layer",
    )
    def test_tile_boundary_doglegs_audit_clean(self):
        flow = StitchAwareRouter().route(mcnc_design("S38584", 0.02))
        assert _audit(flow).ok


def _tiny_design():
    """A 40x20 HVH die with one stitching line crossing a two-pin net."""
    tech = Technology(num_layers=3)
    net = Net("a", (Pin("a1", Point(10, 5)), Pin("a2", Point(20, 5))))
    far = Net("b", (Pin("b1", Point(2, 12)), Pin("b2", Point(6, 12))))
    return Design(
        name="tiny",
        width=40,
        height=20,
        technology=tech,
        netlist=Netlist([net, far]),
    )


def _straight_route(design, name):
    """A legal layer-1 horizontal wire between the net's two pins."""
    net = design.netlist[name]
    (x0, y), (x1, _) = (
        (net.pins[0].location.x, net.pins[0].location.y),
        (net.pins[1].location.x, net.pins[1].location.y),
    )
    edges = {
        ((x, y, 1), (x + 1, y, 1)) for x in range(min(x0, x1), max(x0, x1))
    }
    nodes = {n for e in edges for n in e}
    return RoutedNet(net=net, nodes=nodes, edges=edges, routed=True)


@pytest.fixture()
def tiny():
    """(design, clean DetailedResult, matching report) triple."""
    design = _tiny_design()
    nets = {
        "a": _straight_route(design, "a"),
        "b": _straight_route(design, "b"),
    }
    result = DetailedResult(
        design=design, nets=nets, failed=[], cpu_seconds=0.0
    )
    report = evaluate(result)
    audit = audit_solution(result, report)
    assert audit.ok, render_audit(audit)
    return design, result, report


def _corrupt(result, name, extra_edges):
    """A copy of ``result`` with edges added to one net."""
    nets = dict(result.nets)
    target = nets[name]
    nets[name] = dataclasses.replace(
        target, edges=set(target.edges) | set(extra_edges)
    )
    return dataclasses.replace(result, nets=nets)


class TestInjectedCorruption:
    def test_via_moved_onto_line_fails_with_attribution(self, tiny):
        # The acceptance scenario: mutate geometry after evaluate so a
        # via stack sits on the stitching line away from any pin.
        design, result, report = tiny
        line_x = design.stitches.xs[0]  # 15, strictly inside net "a"
        y = 5
        corrupted = _corrupt(
            result,
            "a",
            [
                ((line_x, y, 1), (line_x, y, 2)),
                ((line_x + 1, y, 1), (line_x + 1, y, 2)),
                ((line_x, y, 2), (line_x + 1, y, 2)),
            ],
        )
        audit = audit_solution(corrupted, report)
        assert not audit.ok
        rules = {f.rule for f in audit.findings}
        assert "AUD001" in rules
        finding = next(f for f in audit.findings if f.rule == "AUD001")
        assert finding.net == "a"
        assert finding.line == 0
        assert finding.x == line_x
        assert finding.y == y
        # The stale report no longer matches the geometry either.
        assert audit.drift

    def test_vertical_wire_along_line_fires_aud002(self, tiny):
        design, result, report = tiny
        line_x = design.stitches.xs[0]
        y = 5
        # A closed loop touching the net so trimming cannot remove it:
        # up the line track on layer 2, across on layer 3, back down.
        loop = [
            ((line_x, y, 1), (line_x, y, 2)),
            ((line_x, y, 2), (line_x, y + 1, 2)),
            ((line_x, y + 1, 2), (line_x, y + 1, 3)),
            ((line_x + 1, y, 1), (line_x + 1, y, 2)),
            ((line_x + 1, y, 2), (line_x + 1, y + 1, 2)),
            ((line_x + 1, y + 1, 2), (line_x + 1, y + 1, 3)),
            ((line_x, y + 1, 3), (line_x + 1, y + 1, 3)),
        ]
        corrupted = _corrupt(result, "a", loop)
        audit = audit_solution(corrupted, report)
        assert not audit.ok
        findings = [f for f in audit.findings if f.rule == "AUD002"]
        assert findings
        assert findings[0].net == "a"
        assert findings[0].line == 0
        assert findings[0].x == line_x

    def test_disconnected_routed_net_fires_aud004(self, tiny):
        design, result, report = tiny
        nets = dict(result.nets)
        kept = {
            e
            for e in nets["a"].edges
            if max(e[0][0], e[1][0]) <= 14  # cut at x=14, pins at 10/20
        }
        nets["a"] = dataclasses.replace(nets["a"], edges=kept)
        corrupted = dataclasses.replace(result, nets=nets)
        audit = audit_solution(corrupted, report)
        rules = {f.rule for f in audit.findings}
        assert "AUD004" in rules
        finding = next(f for f in audit.findings if f.rule == "AUD004")
        assert finding.net == "a"

    def test_shared_node_fires_aud005(self, tiny):
        design, result, report = tiny
        stolen = sorted(result.nets["a"].edges)[0]
        corrupted = _corrupt(result, "b", [stolen])
        audit = audit_solution(corrupted, report)
        rules = {f.rule for f in audit.findings}
        assert "AUD005" in rules
        finding = next(f for f in audit.findings if f.rule == "AUD005")
        assert "'a'" in finding.message and "'b'" in finding.message

    def test_wrong_direction_wire_fires_aud006(self, tiny):
        design, result, report = tiny
        # A y-move on layer 1 (horizontal) — raw-edge check, so even a
        # dangling edge is caught.
        corrupted = _corrupt(result, "a", [((12, 5, 1), (12, 6, 1))])
        audit = audit_solution(corrupted, report)
        rules = {f.rule for f in audit.findings}
        assert "AUD006" in rules

    def test_off_die_edge_fires_aud006(self, tiny):
        design, result, report = tiny
        corrupted = _corrupt(
            result, "a", [((39, 5, 1), (40, 5, 1))]  # width is 40
        )
        audit = audit_solution(corrupted, report)
        assert any(f.rule == "AUD006" for f in audit.findings)

    def test_non_unit_edge_fires_aud006(self, tiny):
        design, result, report = tiny
        corrupted = _corrupt(result, "a", [((12, 5, 1), (14, 5, 1))])
        audit = audit_solution(corrupted, report)
        assert any(f.rule == "AUD006" for f in audit.findings)

    @pytest.mark.parametrize(
        "resource, label",
        [(("h", 0, 0), "h-edge"), (("v", 0, 0), "v-edge"), ((0, 0), "vertex")],
        ids=["h-edge", "v-edge", "vertex"],
    )
    def test_demand_bump_fires_aud007(self, flows, resource, label):
        flow = flows["stitch-aware"]
        graph = flow.global_result.graph
        bump = graph.add_vertex_demand if label == "vertex" else graph.add_edge_demand
        bump(resource, +1)
        try:
            audit = _audit(flow)
        finally:
            bump(resource, -1)
        findings = [f for f in audit.findings if f.rule == "AUD007"]
        assert findings
        assert f"{label} (0, 0)" in findings[0].message
        assert _audit(flow).ok  # restored

    def test_phantom_reported_violation_fires_aud001(self, tiny):
        design, result, report = tiny
        from repro.eval import Violation

        tampered = dataclasses.replace(report)
        tampered.nets["a"].violations.append(
            Violation("a", "via", 0, design.stitches.xs[0], 5, 1)
        )
        try:
            audit = audit_solution(result, tampered)
        finally:
            tampered.nets["a"].violations.pop()
        findings = [f for f in audit.findings if f.rule == "AUD001"]
        assert findings
        assert "no supporting geometry" in findings[0].message
        # The scalar column no longer matches the attribution list.
        assert any(
            d.counter == "net[a].violations.via" for d in audit.drift
        )


class TestCounterDrift:
    @pytest.mark.parametrize(
        "field",
        [
            "via_violations",
            "vertical_violations",
            "short_polygons",
            "wirelength",
            "vias",
            "routed_nets",
            "total_nets",
        ],
    )
    def test_scalar_tampering_is_caught(self, flows, field):
        flow = flows["stitch-aware"]
        tampered = dataclasses.replace(
            flow.report, **{field: getattr(flow.report, field) + 3}
        )
        audit = audit_solution(
            flow.detailed_result, tampered, flow.global_result
        )
        assert not audit.ok
        assert any(d.counter == field for d in audit.drift)
        assert not audit.findings  # pure bookkeeping, geometry is fine

    def test_per_net_tampering_names_the_net(self, tiny):
        design, result, report = tiny
        report.nets["a"].wirelength += 2
        try:
            audit = audit_solution(result, report)
        finally:
            report.nets["a"].wirelength -= 2
        counters = {d.counter for d in audit.drift}
        assert "net[a].wirelength" in counters
        # The aggregate was computed before the tampering and still
        # matches the geometry, so only the per-net counter drifts.
        assert "wirelength" not in counters

    def test_missing_net_entry_is_drift(self, tiny):
        design, result, report = tiny
        tampered = dataclasses.replace(
            report, nets={k: v for k, v in report.nets.items() if k != "b"}
        )
        audit = audit_solution(result, tampered)
        assert any(d.counter == "net[b].present" for d in audit.drift)

    def test_drift_reports_both_values(self, flows):
        flow = flows["stitch-aware"]
        tampered = dataclasses.replace(
            flow.report, vias=flow.report.vias + 5
        )
        audit = audit_solution(flow.detailed_result, tampered)
        drift = next(d for d in audit.drift if d.counter == "vias")
        assert drift.reported == flow.report.vias + 5
        assert drift.recomputed == flow.report.vias


class TestIndependence:
    """The auditor must not lean on the evaluator's counting code."""

    FORBIDDEN = (
        "repro.eval.geometry",
        "repro.detailed.wiring",
        "eval.geometry",
        "detailed.wiring",
    )
    FORBIDDEN_NAMES = {
        "trim_dangling",
        "edge_rows",
        "edge_runs",
        "row_short_polygons",
        "edges_to_segments",
        "via_landing_points",
        "short_polygon_sites",
        "via_count",
        "wirelength",
        "evaluate",
    }

    def test_audit_module_imports_no_counting_internals(self):
        import repro.analysis.audit as audit_module

        path = pathlib.Path(audit_module.__file__)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert not any(
                    module.endswith(f) for f in self.FORBIDDEN
                ), f"audit imports counting module {module}"
                imported = {alias.name for alias in node.names}
                assert not (imported & self.FORBIDDEN_NAMES), (
                    f"audit imports counting helper(s) "
                    f"{sorted(imported & self.FORBIDDEN_NAMES)}"
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert not any(
                        alias.name.endswith(f) for f in self.FORBIDDEN
                    ), f"audit imports counting module {alias.name}"


class TestReportShape:
    def test_to_dict_round_trips_to_json(self, flows):
        import json

        audit = _audit(flows["baseline"])
        doc = json.loads(json.dumps(audit.to_dict()))
        assert doc["ok"] is True
        assert doc["design"] == "S9234"
        assert doc["findings"] == [] and doc["drift"] == []
        assert doc["rules_checked"] == list(AUDIT_RULES)

    def test_render_clean(self, flows):
        text = render_audit(_audit(flows["baseline"]))
        assert "clean" in text and "S9234" in text

    def test_render_failure_lists_findings_and_drift(self):
        report = AuditReport(
            design_name="x",
            findings=[
                AuditFinding(
                    rule="AUD002",
                    message="vertical wire runs along a stitching line",
                    net="n1",
                    line=2,
                    x=30,
                    y=4,
                    layer=2,
                )
            ],
            drift=[CounterDrift("vias", 10, 9)],
            nets_checked=1,
            rules_checked=("AUD002",),
        )
        text = render_audit(report)
        assert "AUD002" in text and "net=n1" in text and "line=2" in text
        assert "DRIFT vias" in text
        assert "FAILED" in text

    def test_finding_fix_hint_comes_from_catalog(self):
        finding = AuditFinding(rule="AUD005", message="m")
        assert finding.fix_hint == AUDIT_RULES["AUD005"].fix_hint

    def test_findings_sorted_by_rule_then_location(self, tiny):
        design, result, report = tiny
        corrupted = _corrupt(
            result,
            "a",
            [((12, 5, 1), (12, 6, 1)), ((12, 6, 1), (12, 7, 1))],
        )
        # Also break connectivity of net b so two rules fire.
        nets = dict(corrupted.nets)
        nets["b"] = dataclasses.replace(nets["b"], edges=set())
        corrupted = dataclasses.replace(corrupted, nets=nets)
        audit = audit_solution(corrupted, report)
        rules = [f.rule for f in audit.findings]
        assert rules == sorted(rules)
