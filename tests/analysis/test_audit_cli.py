"""The ``repro audit`` CLI: exit codes, formats, failure reporting."""

import dataclasses
import json

import pytest

from repro.analysis import audit_solution
from repro.benchmarks_gen import mcnc_design
from repro.cli import build_parser, main
from repro.api import StitchAwareRouter


class TestParser:
    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit", "S9234"])
        assert args.circuit == "S9234"
        assert args.scale == 0.05
        assert args.format == "text"
        assert not args.baseline


class TestCleanRuns:
    def test_exit_zero_and_text_verdict(self, capsys):
        assert main(["audit", "S9234", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "S9234" in out

    def test_json_document_shape(self, capsys):
        code = main(
            ["audit", "S9234", "--scale", "0.02", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["design"] == "S9234"
        assert doc["findings"] == [] and doc["drift"] == []
        assert doc["rules_checked"][0] == "AUD001"

    def test_baseline_router_and_report_file(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            [
                "audit",
                "S9234",
                "--scale",
                "0.02",
                "--baseline",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert report.exists()


def _failing_flow():
    """A real flow whose audit genuinely fails.

    Routes a tiny circuit and corrupts the final geometry (deletes one
    net's wires while leaving it marked routed).  Returns the corrupted
    flow and the audit it must get.
    """
    flow = StitchAwareRouter().route(mcnc_design("S9234", 0.02))
    name = sorted(flow.detailed_result.nets)[0]
    nets = dict(flow.detailed_result.nets)
    nets[name] = dataclasses.replace(nets[name], edges=set())
    corrupted = dataclasses.replace(
        flow, detailed_result=dataclasses.replace(flow.detailed_result, nets=nets)
    )
    audit = audit_solution(
        corrupted.detailed_result, corrupted.report, corrupted.global_result
    )
    assert not audit.ok
    return corrupted, audit


class TestFailingRuns:
    @pytest.fixture()
    def rigged(self, monkeypatch):
        """Point the CLI at a router whose flow fails the CLI's audit."""
        flow, audit = _failing_flow()

        class RiggedRouter:
            def __init__(self, *, config=None):
                self.config = config

            def route(self, design, *, tracer=None):
                return flow

        monkeypatch.setattr("repro.cli.StitchAwareRouter", RiggedRouter)
        return audit

    def test_exit_one_with_attribution(self, rigged, capsys):
        assert main(["audit", "S9234", "--scale", "0.02"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        first = rigged.findings[0]
        assert first.rule in out
        assert f"net={first.net}" in out

    def test_json_failure_document(self, rigged, capsys):
        code = main(
            ["audit", "S9234", "--scale", "0.02", "--format", "json"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["findings"]
        assert doc["findings"][0]["rule"] == rigged.findings[0].rule
        assert doc["findings"][0]["net"] == rigged.findings[0].net
