"""Tests for JSON persistence of designs and reports."""

import json

import pytest

from repro.benchmarks_gen import SyntheticSpec, generate_design
from repro.api import StitchAwareRouter
from repro.io import (
    design_from_dict,
    design_to_dict,
    load_design,
    load_report,
    report_from_dict,
    report_to_dict,
    save_design,
    save_report,
)

SPEC = SyntheticSpec(name="io-t", nets=25, pins=60, layers=3)


@pytest.fixture(scope="module")
def design():
    return generate_design(SPEC)


@pytest.fixture(scope="module")
def report(design):
    return StitchAwareRouter().route(design).report


class TestDesignRoundtrip:
    def test_dict_roundtrip_preserves_structure(self, design):
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt.name == design.name
        assert (rebuilt.width, rebuilt.height) == (design.width, design.height)
        assert rebuilt.technology.num_layers == design.technology.num_layers
        assert rebuilt.stitches.xs == design.stitches.xs
        assert [n.name for n in rebuilt.netlist] == [
            n.name for n in design.netlist
        ]
        assert [
            (p.name, p.location, p.layer)
            for n in rebuilt.netlist
            for p in n.pins
        ] == [
            (p.name, p.location, p.layer)
            for n in design.netlist
            for p in n.pins
        ]

    def test_config_roundtrip(self, design):
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt.config == design.config

    def test_old_snapshot_with_search_budgets_routes_identically(self, design):
        """Older snapshots carry the detailed search budgets; they load
        without them and route node for node like the fresh design.
        """
        data = design_to_dict(design)
        assert "max_ripup_iterations" not in data["config"]
        assert "detail_expansion_limit" not in data["config"]
        data["config"].update(max_ripup_iterations=1, detail_expansion_limit=5000)
        rebuilt = design_from_dict(data)
        assert rebuilt.config == design.config

        def solution(d):
            nets = StitchAwareRouter().route(d).detailed_result.nets
            return {
                name: (rn.nodes, rn.edges, rn.routed)
                for name, rn in nets.items()
            }

        assert solution(rebuilt) == solution(design)

    def test_file_roundtrip(self, design, tmp_path):
        path = tmp_path / "design.json"
        save_design(design, path)
        rebuilt = load_design(path)
        assert rebuilt.num_nets == design.num_nets
        # The file is valid plain JSON.
        json.loads(path.read_text())

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            design_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self, design):
        data = design_to_dict(design)
        data["version"] = 99
        with pytest.raises(ValueError):
            design_from_dict(data)

    def test_roundtrip_routes_identically(self, design):
        """A reloaded design routes to the same report."""
        rebuilt = design_from_dict(design_to_dict(design))
        a = StitchAwareRouter().route(design).report
        b = StitchAwareRouter().route(rebuilt).report
        assert a.short_polygons == b.short_polygons
        assert a.wirelength == b.wirelength
        assert a.routed_nets == b.routed_nets


class TestReportRoundtrip:
    def test_dict_roundtrip(self, report):
        rebuilt = report_from_dict(report_to_dict(report))
        assert rebuilt.design_name == report.design_name
        assert rebuilt.short_polygons == report.short_polygons
        assert rebuilt.via_violations == report.via_violations
        assert rebuilt.routability == report.routability
        assert set(rebuilt.nets) == set(report.nets)

    def test_file_roundtrip(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_report(report, path)
        rebuilt = load_report(path)
        assert rebuilt.wirelength == report.wirelength

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            report_from_dict({"format": "nope"})
