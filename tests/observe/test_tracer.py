"""Unit tests for the tracing/metrics subsystem."""

import time

import pytest

from repro.observe import (
    TRACE_FORMAT,
    TRACE_VERSION,
    RunTrace,
    Span,
    Tracer,
    ensure,
)


class TestSpans:
    def test_nesting_structure(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"), tracer.span("leaf"):
                pass
        trace = tracer.finish()
        assert [s.name for s in trace.spans] == ["outer"]
        outer = trace.spans[0]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert [s.name for s in trace.walk()] == [
            "outer", "inner-a", "inner-b", "leaf",
        ]
        assert trace.find("leaf") is not None
        assert trace.find("nope") is None

    def test_timing_monotonicity(self):
        tracer = Tracer()
        with tracer.span("outer"), tracer.span("inner"):
            time.sleep(0.01)
        trace = tracer.finish()
        outer = trace.spans[0]
        inner = outer.children[0]
        assert inner.wall_seconds >= 0.01
        assert outer.wall_seconds >= inner.wall_seconds
        assert trace.wall_seconds >= outer.wall_seconds
        assert inner.started_at >= outer.started_at
        assert outer.cpu_seconds >= 0.0

    def test_current_and_open_span_guard(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("a") as span:
            assert tracer.current is span
            with pytest.raises(RuntimeError, match="open span"):
                tracer.finish()
        assert tracer.current is None
        tracer.finish()  # now fine

    def test_span_kwargs_become_gauges(self):
        tracer = Tracer()
        with tracer.span("round", round=3, queued=17):
            pass
        trace = tracer.finish()
        assert trace.spans[0].gauges == {"round": 3, "queued": 17}


class TestCounters:
    def test_counts_attach_to_innermost_span(self):
        tracer = Tracer()
        tracer.count("orphan", 2)
        with tracer.span("outer"):
            tracer.count("hits")
            with tracer.span("inner"):
                tracer.count("hits", 5)
            tracer.count("hits", 3)
        trace = tracer.finish()
        outer = trace.spans[0]
        assert outer.counters["hits"] == 4
        assert outer.children[0].counters["hits"] == 5
        assert trace.counters == {"orphan": 2}

    def test_aggregate_counters_sums_spans_and_orphans(self):
        tracer = Tracer()
        tracer.count("x", 1)
        with tracer.span("a"):
            tracer.count("x", 10)
            with tracer.span("b"):
                tracer.count("x", 100)
                tracer.count("y", 7)
        trace = tracer.finish()
        assert trace.aggregate_counters() == {"x": 111, "y": 7}

    def test_gauges_overwrite(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.gauge("overflow", 12)
            tracer.gauge("overflow", 3)
        trace = tracer.finish()
        assert trace.spans[0].gauges["overflow"] == 3

    def test_stage_wall_seconds_sums_repeats(self):
        tracer = Tracer()
        with tracer.span("round"):
            pass
        with tracer.span("round"):
            pass
        trace = tracer.finish()
        assert set(trace.stage_wall_seconds()) == {"round"}


class TestSerialization:
    def _sample_trace(self) -> RunTrace:
        tracer = Tracer()
        tracer.count("orphan", 2)
        with tracer.span("stage", size=4):
            tracer.count("events", 9)
            with tracer.span("child"):
                tracer.gauge("depth", 1.5)
        return tracer.finish(
            router="StitchAwareRouter",
            design="toy",
            meta={"scale": 0.02},
        )

    def test_json_round_trip(self):
        trace = self._sample_trace()
        rebuilt = RunTrace.from_json(trace.to_json())
        assert rebuilt.to_dict() == trace.to_dict()
        assert rebuilt.router == "StitchAwareRouter"
        assert rebuilt.design == "toy"
        assert rebuilt.meta == {"scale": 0.02}
        assert rebuilt.find("child").gauges == {"depth": 1.5}

    def test_save_load(self, tmp_path):
        trace = self._sample_trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        assert RunTrace.load(path).to_dict() == trace.to_dict()

    def test_format_tag(self):
        data = self._sample_trace().to_dict()
        assert data["format"] == TRACE_FORMAT
        assert data["version"] == TRACE_VERSION

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a trace"):
            RunTrace.from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self):
        data = self._sample_trace().to_dict()
        data["version"] = TRACE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            RunTrace.from_dict(data)

    def test_span_round_trip_drops_nothing(self):
        span = Span(name="s", counters={"a": 1}, gauges={"g": 2.0})
        span.children.append(Span(name="c"))
        assert Span.from_dict(span.to_dict()).to_dict() == span.to_dict()


class TestGauges:
    def test_gauge_outside_any_span_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="'overflow'"):
            tracer.gauge("overflow", 2.5)
        assert tracer.finish().counters == {}


def run_small(tracer):
    with tracer.span("outer", round=1) as outer:
        with tracer.span("inner"):
            tracer.count("unit")
            tracer.count("flush", 5)
            tracer.gauge("overflow", 2)
            tracer.progress("net", stage="global", net="n0")
        outer.count("late", 3)  # direct span write: no event
    return tracer.finish(router="R", design="D", meta={"k": 1})


class TestListeners:
    def record(self):
        events = []
        trace = run_small(Tracer([events.append]))
        return events, trace

    def test_event_sequence(self):
        events, _ = self.record()
        assert [e["ev"] for e in events] == [
            "span-open", "span-open", "count", "gauge", "progress",
            "span-close", "span-close", "finish",
        ]
        outer_open, inner_open = events[0], events[1]
        assert outer_open["parent"] is None
        assert outer_open["gauges"] == {"round": 1}
        assert inner_open["parent"] == outer_open["id"]
        assert events[2]["span"] == events[3]["span"] == inner_open["id"]
        assert events[4] == {
            "ev": "progress", "kind": "net", "stage": "global", "net": "n0",
        }

    def test_span_close_carries_frozen_values(self):
        events, trace = self.record()
        outer_close = events[6]
        outer = trace.spans[0]
        assert outer_close["id"] == events[0]["id"]
        assert outer_close["wall_seconds"] == outer.wall_seconds > 0.0
        assert outer_close["cpu_seconds"] == outer.cpu_seconds
        assert outer_close["counters"] == {"late": 3}

    def test_finish_event_carries_root_fields(self):
        events, trace = self.record()
        assert events[-1] == {
            "ev": "finish",
            "router": "R",
            "design": "D",
            "wall_seconds": trace.wall_seconds,
            "cpu_seconds": trace.cpu_seconds,
            "counters": {},
            "meta": {"k": 1},
        }

    def test_listeners_do_not_change_the_trace(self):
        _, heard = self.record()
        plain = run_small(Tracer())
        assert heard.aggregate_counters() == plain.aggregate_counters()
        assert [s.gauges for s in heard.walk()] == [
            s.gauges for s in plain.walk()
        ]


def test_ensure_passthrough_and_fresh():
    tracer = Tracer()
    assert ensure(tracer) is tracer
    fresh = ensure(None)
    assert isinstance(fresh, Tracer)
    assert fresh is not tracer
