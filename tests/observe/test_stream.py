"""Event streaming: NDJSON emission, tailing, and byte-exact replay."""

import gzip
import io
import json
import threading

import pytest

from repro.observe import (
    STREAM_FORMAT,
    STREAM_VERSION,
    StreamReplayer,
    StreamWriter,
    Tracer,
    iter_stream_events,
    read_stream,
    read_stream_text,
)
from repro.observe import stream as stream_module


@pytest.fixture(autouse=True)
def no_heartbeats(monkeypatch):
    """Heartbeats only where a test asks for them (timing-independent)."""
    monkeypatch.setattr(stream_module, "HEARTBEAT_INTERVAL", 1e9)


def streamed(sink):
    """A tracer whose one listener writes ``sink``."""
    return Tracer([StreamWriter(sink)])


def run_nested(tracer):
    """A small run exercising spans, counts, gauges, and progress."""
    with tracer.span("pass1") as pass1:
        with tracer.span("global-route", window=3) as stage:
            stage.count("maze_expansions", 40)
            for _ in range(5):
                tracer.count("probes")  # unit increments: not streamed
            tracer.progress("net", net="n1", routed=True)
            tracer.gauge("edge_overflow", 7)
        pass1.count("rounds", 2)
    with tracer.span("pass2"):
        tracer.count("astar_expansions", 99)
    tracer.count("orphans", 3)
    return tracer.finish(
        router="StitchAwareRouter", design="toy", meta={"seed": 1}
    )


class TestStreamingTracer:
    """A tracer with a :class:`StreamWriter` listener."""

    def test_replay_is_byte_identical(self):
        sink = io.StringIO()
        trace = run_nested(streamed(sink))
        replayed = read_stream_text(sink.getvalue())
        assert replayed.to_json() == trace.to_json()

    def test_event_vocabulary_and_order(self):
        sink = io.StringIO()
        run_nested(streamed(sink))
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "open"
        assert kinds[-1] == "finish"
        assert kinds.count("span-open") == kinds.count("span-close") == 3
        assert "progress" in kinds and "gauge" in kinds
        header = events[0]
        assert header["format"] == STREAM_FORMAT
        assert header["version"] == STREAM_VERSION

    def test_unit_counts_not_streamed_but_flushes_are(self):
        sink = io.StringIO()
        run_nested(streamed(sink))
        counts = [
            json.loads(line)
            for line in sink.getvalue().splitlines()
            if json.loads(line)["ev"] == "count"
        ]
        names = {c["name"] for c in counts}
        assert "orphans" in names and "probes" not in names

    def test_span_close_carries_final_totals(self):
        sink = io.StringIO()
        run_nested(streamed(sink))
        closes = {
            e["id"]: e
            for e in map(json.loads, sink.getvalue().splitlines())
            if e["ev"] == "span-close"
        }
        opens = {
            e["id"]: e
            for e in map(json.loads, sink.getvalue().splitlines())
            if e["ev"] == "span-open"
        }
        gid = next(
            i for i, e in opens.items() if e["name"] == "global-route"
        )
        # The unit increments land in the close totals even though they
        # were never streamed individually.
        assert closes[gid]["counters"]["probes"] == 5
        assert closes[gid]["counters"]["maze_expansions"] == 40
        assert opens[gid]["parent"] is not None

    def test_finish_carries_trace_counters_and_streaming_adds_none(
        self, monkeypatch
    ):
        monkeypatch.setattr(stream_module, "HEARTBEAT_INTERVAL", 0.0)
        sink = io.StringIO()
        trace = run_nested(streamed(sink))
        plain = run_nested(Tracer())
        finish = json.loads(sink.getvalue().splitlines()[-1])
        assert finish["ev"] == "finish"
        assert finish["counters"] == trace.counters == {"orphans": 3}
        assert trace.aggregate_counters() == plain.aggregate_counters()

    def test_heartbeats_carry_liveness_gauges(self, monkeypatch):
        monkeypatch.setattr(stream_module, "HEARTBEAT_INTERVAL", 0.0)
        sink = io.StringIO()
        run_nested(streamed(sink))
        beats = [
            e
            for e in map(json.loads, sink.getvalue().splitlines())
            if e["ev"] == "heartbeat"
        ]
        assert beats
        for beat in beats:
            assert beat["wall_seconds"] >= 0.0
            assert beat["rss_kib"] > 0
            assert beat["events"] > 0
            assert beat["open_spans"] >= 0
        # The writer counts open spans from the span events it sees.
        assert max(beat["open_spans"] for beat in beats) == 2

    def test_path_sink_and_gzip_sink(self, tmp_path):
        plain = tmp_path / "run.ndjson"
        zipped = tmp_path / "run.ndjson.gz"
        t1 = run_nested(streamed(plain))
        t2 = run_nested(streamed(zipped))
        assert read_stream(plain).to_json() == t1.to_json()
        assert read_stream(zipped).to_json() == t2.to_json()
        # The gzip sink really is gzip.
        with gzip.open(zipped, "rt") as fh:
            assert json.loads(fh.readline())["ev"] == "open"

    @pytest.mark.parametrize("name", ["run.ndjson", "run.ndjson.gz"])
    def test_path_sink_holds_one_run(self, tmp_path, name):
        path = tmp_path / name
        run_nested(streamed(path))
        second = run_nested(streamed(path))
        assert read_stream(path).to_json() == second.to_json()

    def test_close_is_idempotent_and_stops_emission(self, tmp_path):
        path = tmp_path / "run.ndjson"
        writer = StreamWriter(path)
        tracer = Tracer([writer])
        writer.close()
        writer.close()
        tracer.progress("net", net="late")
        assert "late" not in path.read_text()

    def test_concurrent_progress_emission_is_line_atomic(self):
        sink = io.StringIO()
        tracer = streamed(sink)

        def spam(worker):
            for i in range(50):
                tracer.progress("net", worker=worker, index=i)

        threads = [
            threading.Thread(target=spam, args=(w,)) for w in range(4)
        ]
        with tracer.span("stage"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        tracer.finish()
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert sum(e["ev"] == "progress" for e in events) == 200


class TestReading:
    def test_read_stream_rejects_missing_finish(self):
        sink = io.StringIO()
        tracer = streamed(sink)
        with tracer.span("stage"):
            pass
        # interrupted: no finish event
        with pytest.raises(ValueError, match="finish"):
            read_stream_text(sink.getvalue())

    def test_interrupted_prefix_still_iterates(self):
        sink = io.StringIO()
        tracer = streamed(sink)
        with tracer.span("stage"):
            pass
        events = list(iter_stream_events(io.StringIO(sink.getvalue())))
        assert [e["ev"] for e in events] == [
            "open", "span-open", "span-close",
        ]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="open"):
            read_stream_text('{"ev":"span-open","id":0,"name":"x"}\n')
        bogus = json.dumps(
            {"ev": "open", "format": "something-else", "version": 1}
        )
        with pytest.raises(ValueError, match="not an event stream"):
            read_stream_text(bogus + "\n")
        future = json.dumps(
            {"ev": "open", "format": STREAM_FORMAT, "version": 999}
        )
        with pytest.raises(ValueError, match="version"):
            read_stream_text(future + "\n")

    def test_non_event_line_rejected(self):
        with pytest.raises(ValueError, match="not a stream event"):
            read_stream_text("[1, 2, 3]\n")

    def test_unknown_events_pass_through(self):
        sink = io.StringIO()
        run_nested(streamed(sink))
        lines = sink.getvalue().splitlines()
        # Splice in an event from "the future" before the finish line.
        lines.insert(-1, json.dumps({"ev": "quantum-telemetry", "q": 1}))
        text = "\n".join(lines) + "\n"
        events = list(iter_stream_events(io.StringIO(text)))
        assert any(e["ev"] == "quantum-telemetry" for e in events)
        # The replayer ignores it and still reassembles the trace.
        assert read_stream_text(text).design == "toy"

    def test_replayer_incremental_state(self):
        sink = io.StringIO()
        trace = run_nested(streamed(sink))
        replayer = StreamReplayer()
        for event in iter_stream_events(io.StringIO(sink.getvalue())):
            before = replayer.trace
            replayer.apply(event)
            if event["ev"] != "finish":
                assert before is None
        assert replayer.trace is not None
        assert replayer.trace.to_json() == trace.to_json()
        assert replayer.events > 0


def stream_text(*events):
    """NDJSON text of a header followed by ``events``."""
    header = {"ev": "open", "format": STREAM_FORMAT, "version": 1}
    return "".join(json.dumps(e) + "\n" for e in (header, *events))


FINISH = {"ev": "finish", "router": "R", "design": "D"}
ROOT = {"ev": "span-open", "id": 0, "parent": None, "name": "pass1"}


class TestMalformedStreams:
    """A stream holds one well-formed run; anything else is a ValueError."""

    @pytest.mark.parametrize(
        "events,message",
        [
            (
                [{"ev": "span-close", "id": 7}, FINISH],
                "event 2: span-close names unknown span id 7",
            ),
            (
                [{"ev": "span-open", "id": 1, "parent": 5, "name": "x"}],
                "event 2: span-open parent names unknown span id 5",
            ),
            (
                [{"ev": "span-open", "parent": None, "name": "x"}],
                "event 2: span-open without an integer id: None",
            ),
            (
                [{"ev": "span-open", "id": "0", "name": "x"}],
                "without an integer id: '0'",
            ),
            ([ROOT, ROOT], "event 3: span-open reuses span id 0"),
            (
                [{"ev": "span-open", "id": 0, "parent": None}],
                "event 2: span-open 0 without a name",
            ),
        ],
        ids=[
            "close-unknown", "unknown-parent", "no-id", "str-id",
            "reused-id", "no-name",
        ],
    )
    def test_bad_span_events_raise(self, events, message):
        with pytest.raises(ValueError, match=message):
            read_stream_text(stream_text(*events))

    def test_two_runs_in_one_stream_raise(self):
        one_run = stream_text(FINISH)
        with pytest.raises(ValueError, match="event 3: a second 'open'"):
            read_stream_text(one_run + one_run)
