"""The ``repro watch`` monitor: tailing, progress lines, exit codes."""

import io
import json
import pathlib
import threading
import time

import pytest

from repro.observe import StreamWriter, Tracer, load_trace_file
from repro.observe import stream as stream_module
from repro.observe import watch as watch_module
from repro.observe.watch import StreamWatcher, follow_events, watch_stream

#: A committed gate trace whose stitch-aware run goes through two rip-up
#: rounds, so it carries every counter the monitor reads.
GATE_TRACE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "baselines"
    / "BENCH_S5378.json"
)


@pytest.fixture(autouse=True)
def no_heartbeats(monkeypatch):
    """Streams without heartbeats, so event lists are timing-independent."""
    monkeypatch.setattr(stream_module, "HEARTBEAT_INTERVAL", 1e9)


def write_run(path):
    """Stream a small synthetic run to ``path``; returns the trace."""
    tracer = Tracer([StreamWriter(path)])
    with tracer.span("pass1"):
        with tracer.span("global-route") as stage:
            stage.count("maze_expansions", 40)
            for i in range(3):
                tracer.progress("net", stage="global", net=f"n{i}")
    with tracer.span("pass2"):
        for i in range(2):
            tracer.progress("net", stage="detailed", net=f"n{i}")
    return tracer.finish(router="StitchAwareRouter", design="toy")


class TestWatchStream:
    def test_complete_stream_no_follow(self, tmp_path, capsys=None):
        path = tmp_path / "run.ndjson"
        write_run(path)
        out = io.StringIO()
        assert watch_stream(path, follow=False, out=out) == 0
        text = out.getvalue()
        assert "watching stream" in text
        assert "> pass1" in text and "< pass1" in text
        assert "finished: StitchAwareRouter on toy" in text
        assert "hotspots" in text  # final ranking from the replay

    def test_gzip_stream(self, tmp_path):
        path = tmp_path / "run.ndjson.gz"
        write_run(path)
        out = io.StringIO()
        assert watch_stream(path, follow=False, out=out) == 0
        assert "finished" in out.getvalue()

    def test_interrupted_stream_exits_nonzero(self, tmp_path):
        path = tmp_path / "run.ndjson"
        tracer = Tracer([StreamWriter(path)])
        with tracer.span("pass1"):
            pass
        # no finish event
        out = io.StringIO()
        assert watch_stream(path, follow=False, out=out) == 1
        assert "without a finish event" in out.getvalue()

    def test_bad_stream_raises(self, tmp_path):
        path = tmp_path / "bogus.ndjson"
        path.write_text('{"ev":"gauge","name":"x","value":1}\n')
        with pytest.raises(ValueError, match="open"):
            watch_stream(path, follow=False, out=io.StringIO())


class TestFollowEvents:
    def test_tails_a_growing_file(self, tmp_path):
        path = tmp_path / "run.ndjson"

        def producer():
            tracer = Tracer([StreamWriter(path)])
            with tracer.span("pass1"):
                time.sleep(0.05)
            tracer.finish(router="R", design="D")

        thread = threading.Thread(target=producer)
        thread.start()
        try:
            # Wait for the header line so open_stream_text finds the file.
            for _ in range(100):
                if path.exists() and path.read_text().endswith("\n"):
                    break
                time.sleep(0.01)
            events = list(
                follow_events(path, poll_interval=0.01, timeout=5.0)
            )
        finally:
            thread.join()
        assert [e["ev"] for e in events] == [
            "open", "span-open", "span-close", "finish",
        ]

    def test_partial_trailing_line_never_yielded(self, tmp_path):
        path = tmp_path / "run.ndjson"
        write_run(path)
        complete = path.read_text()
        # Truncate mid-line: the fragment must be invisible.
        path.write_text(complete + '{"ev":"progress","kind":')
        events = list(follow_events(path, follow=False))
        assert all("ev" in e for e in events)
        assert events[-1]["ev"] == "finish"

    def test_timeout_on_silent_producer(self, tmp_path):
        path = tmp_path / "run.ndjson"
        writer = StreamWriter(path)
        tracer = Tracer([writer])
        with tracer.span("pass1"):
            pass
        writer.close()  # producer goes silent without finishing
        with pytest.raises(TimeoutError):
            list(follow_events(path, poll_interval=0.01, timeout=0.05))

    def test_no_follow_stops_at_eof(self, tmp_path):
        path = tmp_path / "run.ndjson"
        writer = StreamWriter(path)
        tracer = Tracer([writer])
        with tracer.span("pass1"):
            pass
        writer.close()
        events = list(follow_events(path, follow=False))
        assert [e["ev"] for e in events] == [
            "open", "span-open", "span-close",
        ]


class TestStreamWatcher:
    def feed(self, events, depth=1):
        out = io.StringIO()
        watcher = StreamWatcher(out=out, depth=depth)
        for event in events:
            watcher.handle(event)
        return watcher, out.getvalue()

    def synthetic_events(self):
        return [
            {"ev": "open", "format": "repro-trace-stream", "version": 1},
            {
                "ev": "span-open", "id": 0, "parent": None,
                "name": "pass1", "started_at": 0.0,
            },
            {
                "ev": "span-close", "id": 0, "wall_seconds": 2.0,
                "cpu_seconds": 2.0,
                "counters": {"maze_expansions": 1000, "failed_nets": 0},
            },
            {
                "ev": "heartbeat", "wall_seconds": 2.5, "rss_kib": 2048,
                "events": 3, "open_spans": 0,
            },
        ]

    def test_heartbeat_line_carries_rates_and_hotspot_delta(self):
        _, text = self.feed(self.synthetic_events())
        beat_line = next(
            line for line in text.splitlines() if "heartbeat" in line
        )
        assert "rss=2MiB" in beat_line
        assert "expansions/s" in beat_line
        assert "hotspot pass1 +2.000s" in beat_line

    def test_watched_counters_are_emitted_by_a_real_run(self):
        counters = load_trace_file(
            GATE_TRACE, key="stitch-aware"
        ).aggregate_counters()
        watched = (
            watch_module._EXPANSION_COUNTERS + watch_module._NOTABLE_COUNTERS
        )
        assert [name for name in watched if name not in counters] == []

    def test_span_close_echoes_notable_counters(self):
        _, text = self.feed(self.synthetic_events())
        close_line = next(
            line for line in text.splitlines() if "< pass1" in line
        )
        assert "wall=2.000s" in close_line
        assert "maze_expansions=1000" in close_line

    def test_net_progress_prints_every_hundred(self):
        events = self.synthetic_events()[:2]
        events += [
            {
                "ev": "progress", "kind": "net", "stage": "global",
                "net": f"n{i}", "routed": True,
            }
            for i in range(250)
        ]
        watcher, text = self.feed(events)
        assert text.count("global nets committed") == 2  # at 100 and 200
        assert watcher._nets == {"global": 250}

    def test_deep_spans_stay_quiet_but_feed_hotspots(self):
        events = self.synthetic_events()[:2]
        events.append(
            {
                "ev": "span-open", "id": 1, "parent": 0,
                "name": "round", "started_at": 0.1,
            }
        )
        events.append(
            {
                "ev": "span-open", "id": 2, "parent": 1,
                "name": "net", "started_at": 0.2,
            }
        )
        watcher, text = self.feed(events)
        assert "> pass1/round" in text  # depth 1: printed
        assert "pass1/round/net" not in text  # depth 2: quiet
        assert watcher._depth[2] == 2
        _, deeper = self.feed(events, depth=2)
        assert "> pass1/round/net" in deeper

    def test_nets_counted_per_stage(self):
        events = self.synthetic_events()[:2]
        for stage, nets in (("global", 3), ("detailed", 2)):
            events += [
                {"ev": "progress", "kind": "net", "stage": stage, "net": n}
                for n in range(nets)
            ]
        events.append(
            {"ev": "finish", "router": "R", "design": "D", "wall_seconds": 1.0}
        )
        _, text = self.feed(events)
        assert "nets committed: global 3, detailed 2" in text
        assert "3.0 global nets/s" in text
        assert "2.0 detailed nets/s" in text

    def test_finish_prints_summary_and_ranking(self, tmp_path):
        path = tmp_path / "run.ndjson"
        write_run(path)
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        watcher, text = self.feed(events)
        assert watcher.replayer.trace is not None
        assert "finished: StitchAwareRouter on toy" in text
        assert "hotspots" in text
        assert "self_s" in text
