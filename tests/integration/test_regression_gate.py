"""The benchmark regression gate runs green against committed baselines.

This is the same check the ``regression-gate`` CI job performs; having
it in the tier-1 suite means a PR that changes routing behavior cannot
land without refreshing ``benchmarks/baselines/`` (the gate fails) and
a PR that refreshes baselines cannot drift from the code (this test
fails).
"""

import importlib.util
import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
GATE = REPO / "benchmarks" / "regression.py"


@pytest.fixture(scope="module")
def regression():
    spec = importlib.util.spec_from_file_location("regression", GATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules["regression"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("regression", None)


def test_gate_passes_against_committed_baselines(regression, capsys, tmp_path):
    # The whole gate, as CI runs it: a change that moves any circuit
    # fails here, not only one that moves the smallest.
    code = regression.main(["--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "regression gate passed" in out
    # The CI artifact copies are loadable BENCH documents.
    for circuit in regression.CIRCUITS:
        produced = tmp_path / f"BENCH_{circuit}.json"
        assert produced.exists()
        traces = regression.load_traces(produced)
        assert set(traces) == {"baseline", "stitch-aware"}


def test_gate_fails_on_injected_counter_regression(
    regression, capsys, tmp_path, monkeypatch
):
    # Copy the committed baseline, bump one deterministic counter, and
    # point the gate at the tampered copy.
    src = regression.baseline_path("S9234")
    doc = json.loads(src.read_text())
    spans = doc["stitch-aware"]["spans"]

    def bump_first_counter(span_list):
        for span in span_list:
            for name in span.get("counters", {}):
                span["counters"][name] += 1
                return True
            if bump_first_counter(span.get("children", [])):
                return True
        return False

    assert bump_first_counter(spans)
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_S9234.json").write_text(json.dumps(doc))
    monkeypatch.setattr(regression, "BASELINE_DIR", baseline_dir)

    code = regression.main(["--only", "S9234"])
    out = capsys.readouterr().out
    assert code == 1
    assert "regression gate FAILED" in out
    assert "counter" in out


def test_gate_pins_the_report_columns(regression, capsys, monkeypatch):
    # One more short polygon than the baseline, with an audit that
    # would not notice: the gate's counter diff alone must catch it.
    from repro.core import flow

    real_evaluate = flow.evaluate

    def one_more_short_polygon(result):
        report = real_evaluate(result)
        report.short_polygons += 1
        return report

    monkeypatch.setattr(flow, "evaluate", one_more_short_polygon)
    monkeypatch.setattr(regression, "audit_flows", lambda circuit, flows: [])
    code = regression.main(["--only", "S9234"])
    out = capsys.readouterr().out
    assert code == 1
    assert "regression gate FAILED" in out
    assert "counter short_polygons" in out


def test_update_without_behavior_change_keeps_the_bytes(
    regression, capsys, tmp_path, monkeypatch
):
    # A refresh rewrites only what the gate compares: the committed
    # timings stay, so a run that moves no counter changes nothing.
    committed = regression.baseline_path("S9234").read_bytes()
    (tmp_path / "BENCH_S9234.json").write_bytes(committed)
    monkeypatch.setattr(regression, "BASELINE_DIR", tmp_path)
    code = regression.main(["--update", "--only", "S9234"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert (tmp_path / "BENCH_S9234.json").read_bytes() == committed


def test_keep_timings_matches_spans_by_name_and_rank(regression):
    committed = {
        "wall_seconds": 1.0,
        "spans": [
            {"name": "a", "wall_seconds": 2.0, "started_at": 0.5,
             "children": [{"name": "r", "cpu_seconds": 3.0}]},
        ],
    }
    fresh = {
        "wall_seconds": 9.0,
        "spans": [
            {"name": "b", "wall_seconds": 9.1},
            {"name": "a", "wall_seconds": 9.2, "started_at": 9.3,
             "children": [
                 {"name": "r", "cpu_seconds": 9.4},
                 {"name": "r", "cpu_seconds": 9.5},
             ]},
        ],
    }
    regression.keep_timings(fresh, committed, children="spans")
    # Spans the committed document lacks keep their fresh timings.
    assert fresh == {
        "wall_seconds": 1.0,
        "spans": [
            {"name": "b", "wall_seconds": 9.1},
            {"name": "a", "wall_seconds": 2.0, "started_at": 0.5,
             "children": [
                 {"name": "r", "cpu_seconds": 3.0},
                 {"name": "r", "cpu_seconds": 9.5},
             ]},
        ],
    }


def test_gate_reports_missing_baseline(regression, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(regression, "BASELINE_DIR", tmp_path / "nowhere")
    code = regression.main(["--only", "S9234"])
    out = capsys.readouterr().out
    assert code == 1
    assert "missing baseline" in out


def test_gate_rejects_unknown_circuit(regression):
    with pytest.raises(SystemExit):
        regression.main(["--only", "NotACircuit"])


def test_gate_audits_fresh_solutions(regression, capsys, tmp_path):
    code = regression.main(["--only", "S9234"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "S9234/baseline: audit clean" in out
    assert "S9234/stitch-aware: audit clean" in out


def test_audit_failure_fails_the_gate(regression, capsys, monkeypatch):
    def failing_audit(circuit, flows):
        return [f"{circuit}/stitch-aware: audit AUD004 net split"]

    monkeypatch.setattr(regression, "audit_flows", failing_audit)
    code = regression.main(["--only", "S9234"])
    out = capsys.readouterr().out
    assert code == 1
    assert "regression gate FAILED" in out
    assert "AUD004" in out
