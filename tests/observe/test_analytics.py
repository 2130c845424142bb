"""Trace analytics: rollups, diffing, hotspots, loading, rendering."""

import copy
import gzip
import json
import pathlib

import pytest

from repro.observe import (
    DiffThresholds,
    RunTrace,
    Span,
    StreamingTracer,
    TraceSummary,
    Tracer,
    collect_perf_history,
    diff_traces,
    hotspots,
    load_trace_file,
    render_diff,
    render_hotspots,
    render_perf_history,
    render_summary,
)

FIXTURE = pathlib.Path(__file__).parent / "data" / "trace_v1.json"


def make_trace(
    maze: int = 100, ripup: int = 3, detail_wall: float = 1.0
) -> RunTrace:
    """A hand-built two-pass trace with tunable knobs."""
    detail = Span(
        "detailed-route",
        wall_seconds=detail_wall,
        cpu_seconds=detail_wall,
        counters={"astar_expansions": 555, "ripup_rounds": ripup},
    )
    trace = RunTrace(
        router="StitchAwareRouter",
        design="toy",
        wall_seconds=1.5 + detail_wall,
        cpu_seconds=1.4 + detail_wall,
        spans=[
            Span(
                "pass1",
                wall_seconds=1.5,
                cpu_seconds=1.4,
                children=[
                    Span(
                        "global-route",
                        wall_seconds=1.4,
                        cpu_seconds=1.3,
                        counters={"maze_expansions": maze},
                    )
                ],
            ),
            Span(
                "pass2",
                wall_seconds=detail_wall + 0.01,
                cpu_seconds=detail_wall,
                children=[detail],
            ),
        ],
        counters={"orphans": 1},
    )
    return trace


class TestSummary:
    def test_rolls_up_by_name(self):
        trace = make_trace()
        summary = TraceSummary.from_trace(trace)
        assert summary.design == "toy"
        assert set(summary.stages) == {
            "pass1", "global-route", "pass2", "detailed-route",
        }
        assert summary.stages["global-route"].counters == {
            "maze_expansions": 100
        }
        assert summary.counters["orphans"] == 1

    def test_repeated_spans_merge(self):
        tracer = Tracer()
        for round_no in range(3):
            with tracer.span("round", round=round_no) as span:
                span.count("work", 10)
        summary = TraceSummary.from_trace(tracer.finish())
        assert summary.stages["round"].spans == 3
        assert summary.stages["round"].counters == {"work": 30}
        assert summary.stages["round"].gauges == {"round": 2}

    def test_render_plain_and_markdown(self):
        summary = TraceSummary.from_trace(make_trace())
        plain = render_summary(summary)
        assert "global-route" in plain and "maze_expansions=100" in plain
        md = render_summary(summary, fmt="markdown")
        assert md.count("|") > 10 and "detailed-route" in md

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render_summary(TraceSummary.from_trace(make_trace()), fmt="html")


class TestDiff:
    def test_identical_traces_diff_empty(self):
        old, new = make_trace(), make_trace()
        diff = diff_traces(old, new)
        assert diff.ok
        assert diff.counter_deltas == []
        assert diff.wall_regressions == []
        assert diff.regressions() == []

    def test_schema_roundtrip_then_diff_empty(self):
        trace = make_trace()
        reloaded = RunTrace.from_json(trace.to_json())
        assert diff_traces(trace, reloaded).ok

    def test_counter_bump_detected(self):
        diff = diff_traces(make_trace(maze=100), make_trace(maze=101))
        assert not diff.ok
        (delta,) = diff.counter_deltas
        assert delta.name == "maze_expansions"
        assert (delta.old, delta.new, delta.delta) == (100, 101, 1)
        assert "maze_expansions" in diff.regressions()[0]

    def test_counter_drop_is_also_drift(self):
        diff = diff_traces(make_trace(ripup=3), make_trace(ripup=2))
        assert not diff.ok

    def test_slow_span_detected(self):
        diff = diff_traces(
            make_trace(detail_wall=1.0), make_trace(detail_wall=2.0)
        )
        assert not diff.ok
        regressed = {t.stage for t in diff.wall_regressions}
        assert "detailed-route" in regressed

    def test_slowdown_within_tolerance_passes(self):
        diff = diff_traces(
            make_trace(detail_wall=1.0), make_trace(detail_wall=1.1)
        )
        assert diff.ok

    def test_min_wall_floor_skips_noise(self):
        # 3x slower but both sides under the floor: not compared.
        diff = diff_traces(
            make_trace(detail_wall=0.01),
            make_trace(detail_wall=0.03),
            DiffThresholds(min_wall_seconds=0.1),
        )
        assert "detailed-route" not in {t.stage for t in diff.timing_deltas}

    def test_no_wall_mode_ignores_any_slowdown(self):
        diff = diff_traces(
            make_trace(detail_wall=1.0),
            make_trace(detail_wall=50.0),
            DiffThresholds(include_wall=False),
        )
        assert diff.ok
        assert diff.timing_deltas == []

    def test_render_diff(self):
        diff = diff_traces(make_trace(maze=100), make_trace(maze=150))
        text = render_diff(diff)
        assert "maze_expansions" in text and "REGRESSION" in text
        assert "| --- |" in render_diff(diff, fmt="markdown")

    def test_render_empty_diff(self):
        text = render_diff(
            diff_traces(
                make_trace(), make_trace(), DiffThresholds(include_wall=False)
            )
        )
        assert "no differences" in text


class TestHotspots:
    def test_self_time_ranks_leaf_above_parent(self):
        trace = make_trace(detail_wall=2.0)
        spots = hotspots(trace, n=10)
        paths = [s.path for s in spots]
        # pass2 wraps detailed-route with ~0.01s of own work; the leaf
        # carries the real time and must rank first.
        assert paths[0] == "pass2/detailed-route"
        leaf = spots[0]
        assert leaf.self_wall_seconds == pytest.approx(2.0)
        parent = next(s for s in spots if s.path == "pass2")
        assert parent.self_wall_seconds == pytest.approx(0.01)

    def test_repeated_paths_merge_and_n_limits(self):
        tracer = Tracer()
        with tracer.span("stage"):
            for _ in range(4):
                with tracer.span("round"):
                    pass
        trace = tracer.finish()
        spots = hotspots(trace, n=1)
        assert len(spots) == 1
        merged = hotspots(trace, n=10)
        round_spot = next(s for s in merged if s.path == "stage/round")
        assert round_spot.spans == 4
        assert "self_s" in render_hotspots(merged)


class TestCompatFixture:
    """A checked-in v1 document must stay loadable forever."""

    def test_from_dict_v1_fixture(self):
        trace = RunTrace.load(FIXTURE)
        assert trace.router == "StitchAwareRouter"
        assert trace.design == "FixtureCircuit"
        assert trace.counters == {"orphan_events": 2}
        assert trace.meta["coloring"] == "flow"
        round_span = trace.find("negotiation-round")
        assert round_span is not None
        assert round_span.gauges == {"round": 1, "edge_overflow": 7}
        agg = trace.aggregate_counters()
        assert agg["maze_expansions"] == 1234
        assert agg["astar_expansions"] == 5678

    def test_v1_fixture_roundtrips_losslessly(self):
        data = json.loads(FIXTURE.read_text())
        assert RunTrace.from_dict(data).to_dict() == data

    def test_unknown_version_rejected(self):
        data = json.loads(FIXTURE.read_text())
        data["version"] = 999
        with pytest.raises(ValueError):
            RunTrace.from_dict(data)


class TestLoadTraceFile:
    def test_bare_trace(self, tmp_path):
        path = tmp_path / "t.json"
        make_trace().save(path)
        assert load_trace_file(path).design == "toy"

    def test_report_with_embedded_trace(self, tmp_path):
        report_doc = {
            "format": "repro-report",
            "trace": json.loads(make_trace().to_json()),
        }
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report_doc))
        assert load_trace_file(path).design == "toy"
        del report_doc["trace"]
        path.write_text(json.dumps(report_doc))
        with pytest.raises(ValueError, match="no embedded trace"):
            load_trace_file(path)

    def test_bench_document_needs_key_when_ambiguous(self, tmp_path):
        doc = {
            "baseline": make_trace().to_dict(),
            "stitch-aware": make_trace(maze=7).to_dict(),
        }
        path = tmp_path / "BENCH_toy.json"
        path.write_text(json.dumps(doc))
        trace = load_trace_file(path, key="stitch-aware")
        assert trace.aggregate_counters()["maze_expansions"] == 7
        with pytest.raises(ValueError, match="pick one"):
            load_trace_file(path)
        with pytest.raises(ValueError, match="no trace"):
            load_trace_file(path, key="bogus")
        single = copy.deepcopy(doc)
        del single["baseline"]
        path.write_text(json.dumps(single))
        assert load_trace_file(path).design == "toy"

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="not a trace"):
            load_trace_file(path)

    def test_gzip_compressed_trace(self, tmp_path):
        path = tmp_path / "t.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(make_trace().to_json())
        assert load_trace_file(path).design == "toy"

    def test_gzip_compressed_bench_document(self, tmp_path):
        doc = {"stitch-aware": make_trace(maze=7).to_dict()}
        path = tmp_path / "BENCH_toy.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        trace = load_trace_file(path, key="stitch-aware")
        assert trace.aggregate_counters()["maze_expansions"] == 7

    @pytest.mark.parametrize("name", ["run.ndjson", "run.ndjson.gz"])
    def test_event_stream_files(self, tmp_path, name):
        path = tmp_path / name
        tracer = StreamingTracer(path)
        with tracer.span("pass1") as span:
            span.count("maze_expansions", 5)
        streamed = tracer.finish(router="R", design="streamed-toy")
        loaded = load_trace_file(path)
        assert loaded.design == "streamed-toy"
        assert loaded.to_json() == streamed.to_json()


def write_artifacts(root, make_trace_fn=None):
    """A small artifact directory in the committed schemas."""
    make = make_trace_fn or make_trace
    bench = {
        "baseline": make(maze=200).to_dict(),
        "stitch-aware": make(maze=100).to_dict(),
    }
    (root / "BENCH_S9234.json").write_text(json.dumps(bench))
    (root / "SPEEDUP_ENGINE_S9234.json").write_text(
        json.dumps(
            {
                "circuit": "S9234",
                "scale": 0.2,
                "scale_multiplier": 10.0,
                "object_wall_seconds": 2.0,
                "array_wall_seconds": 1.0,
                "repeats": 3,
                "speedup": 2.0,
            }
        )
    )


class TestPerfHistory:
    def test_collects_both_artifact_kinds(self, tmp_path):
        write_artifacts(tmp_path)
        history = collect_perf_history(tmp_path)
        assert not history.empty
        assert {r["router"] for r in history.bench_rows} == {
            "baseline", "stitch-aware",
        }
        aware = next(
            r for r in history.bench_rows if r["router"] == "stitch-aware"
        )
        assert aware["maze_expansions"] == 100
        assert aware["detail_s"] == 1.0
        (engine_row,) = history.engine_rows
        assert engine_row["speedup"] == 2.0

    def test_unparseable_and_unrelated_json_skipped(self, tmp_path):
        write_artifacts(tmp_path)
        (tmp_path / "BENCH_garbage.json").write_text('{"x": 1}')
        (tmp_path / "SPEEDUP_ENGINE_bad.json").write_text("[]")
        (tmp_path / "unrelated.json").write_text("{}")
        history = collect_perf_history(tmp_path)
        assert {r["circuit"] for r in history.bench_rows} == {"S9234"}
        assert len(history.engine_rows) == 1

    def test_empty_directory_reports_empty(self, tmp_path):
        history = collect_perf_history(tmp_path)
        assert history.empty
        assert "no benchmark artifacts" in render_perf_history(history)

    def test_render_plain_and_markdown(self, tmp_path):
        write_artifacts(tmp_path)
        history = collect_perf_history(tmp_path)
        plain = render_perf_history(history)
        assert "benchmark snapshots" in plain
        assert "engine speedups" in plain
        md = render_perf_history(history, fmt="markdown")
        assert md.count("|") > 20

    def test_committed_repo_artifacts_ingest(self):
        """The real committed artifacts must parse, forever."""
        root = pathlib.Path(__file__).parents[2]
        history = collect_perf_history(root)
        circuits = {r["circuit"] for r in history.bench_rows}
        assert {"S9234", "S5378", "S13207"} <= circuits
        assert history.engine_rows  # committed SPEEDUP_ENGINE_*.json
