"""Live NDJSON trace streaming and replay (``repro.observe.stream``).

The tracer freezes a run into a :class:`~repro.observe.RunTrace` only
*after* the run completes; on 10-100x-scale instances that makes long
runs black boxes until they finish.  This module streams the same
events incrementally: a :class:`StreamingTracer` is a drop-in
:class:`~repro.observe.Tracer` that additionally appends one JSON
object per line (NDJSON) to a file or pipe sink *while the run
executes* — span opens and closes, counter flushes, gauges, per-net
progress, and periodic heartbeats carrying wall-clock and peak-RSS
gauges.

The schema is versioned (:data:`STREAM_FORMAT` / :data:`STREAM_VERSION`)
and append-only: every line is self-contained, so a consumer may tail
the file mid-run (``repro watch``) and a crashed run leaves a valid
prefix.  :func:`read_stream` replays a complete stream back into a
:class:`RunTrace` that is **byte-identical** to the trace the run's own
``finish()`` returned — span-close events carry the authoritative final
counter/gauge dicts and the exact wall/CPU floats, and
``RunTrace.to_json`` sorts keys, so reassembly order cannot perturb the
serialized document.

Event vocabulary (the ``ev`` field):

* ``open`` — stream header: format and version tags.
* ``span-open`` — ``id``, ``parent`` (id or ``None``), ``name``,
  ``started_at``, opening ``gauges``.
* ``span-close`` — ``id``, final ``wall_seconds`` / ``cpu_seconds`` and
  the span's complete final ``counters`` / ``gauges`` dicts.
* ``count`` — a counter *flush* (``delta != 1``; unit increments are
  too hot to stream, the span-close totals cover them).
* ``gauge`` — a point-in-time value on the innermost span.
* ``progress`` — free-form per-net progress
  (:meth:`StreamingTracer.progress`; emitted by the routers under
  ``RouterConfig(profile="full")``).
* ``heartbeat`` — periodic liveness: wall offset, peak RSS (KiB),
  events emitted so far, open-span depth.
* ``finish`` — the ``RunTrace`` root fields (router, design, wall,
  CPU, orphan counters, meta); terminates the stream.

Thread safety: all emission funnels through one lock.  The routing
stages call the tracer from one thread, so streams are canonically
ordered; the lock keeps concurrent callers from interleaving events.
"""

from __future__ import annotations

import gzip
import io
import json
import pathlib
import time
from contextlib import contextmanager
from collections.abc import Iterator
from typing import IO, Any, Optional, Union

from .tracer import (
    TRACE_FORMAT,
    TRACE_VERSION,
    Number,
    PathLike,
    RunTrace,
    Span,
    Tracer,
)

#: Format tag of the first line of every stream.
STREAM_FORMAT = "repro-trace-stream"
#: Schema version; bump on any incompatible event-shape change.
STREAM_VERSION = 1

#: File suffixes recognized as NDJSON event streams.
STREAM_SUFFIXES = (".ndjson", ".ndjson.gz")

Event = dict[str, Any]
Sink = Union[PathLike, IO[str]]


def _peak_rss_kib() -> int:
    """Peak resident set size of this process in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - platform specific
        rss //= 1024
    return int(rss)


def open_stream_text(path: PathLike, mode: str = "rt") -> IO[str]:
    """Open a stream file for text I/O, transparently gunzipping."""
    p = pathlib.Path(path)
    if p.name.endswith(".gz"):
        return gzip.open(p, mode, encoding="utf-8")  # type: ignore[return-value]
    return open(p, mode.replace("t", "") + "t", encoding="utf-8")


class StreamingTracer(Tracer):
    """A :class:`Tracer` that also streams events to an NDJSON sink.

    Drop-in replacement anywhere a tracer is accepted: the frozen
    :class:`RunTrace` is byte-identical to a plain tracer's except for
    the ``stream_*`` bookkeeping counters recorded at finish (strip
    them before diffing against non-streamed baselines — the
    regression gate and the differential suites already do).

    Args:
        sink: target path (``.gz`` suffix writes gzip) or an open
            text-mode file object.  Paths are opened for append so a
            supervisor may pre-create the file or point at a pipe.
        heartbeat_interval: minimum seconds between heartbeat events;
            heartbeats piggyback on event emission (no timer thread),
            so their cadence is bounded below by event traffic.
    """

    def __init__(
        self, sink: Sink, heartbeat_interval: float = 1.0
    ) -> None:
        super().__init__()
        if isinstance(sink, (str, pathlib.Path)):
            self._sink: IO[str] = open_stream_text(sink, "at")
            self._owns_sink = True
        else:
            self._sink = sink
            self._owns_sink = False
        self._heartbeat_interval = heartbeat_interval
        self._last_heartbeat = time.perf_counter()
        import threading

        self._emit_lock = threading.Lock()
        self._next_id = 0
        self._id_stack: list[int] = []
        self.events_emitted = 0
        self.heartbeats_emitted = 0
        self._closed = False
        self._emit(
            {
                "ev": "open",
                "format": STREAM_FORMAT,
                "version": STREAM_VERSION,
                "trace_format": TRACE_FORMAT,
                "trace_version": TRACE_VERSION,
            },
            heartbeat=False,
        )

    # -- emission ------------------------------------------------------
    def _emit(self, event: Event, heartbeat: bool = True) -> None:
        """Write one event line (and maybe a heartbeat) to the sink."""
        if self._closed:
            return
        with self._emit_lock:
            self._sink.write(
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self._sink.flush()
            self.events_emitted += 1
            now = time.perf_counter()
            if (
                heartbeat
                and now - self._last_heartbeat >= self._heartbeat_interval
            ):
                self._last_heartbeat = now
                beat = {
                    "ev": "heartbeat",
                    "wall_seconds": now - self._epoch_wall,
                    "rss_kib": _peak_rss_kib(),
                    "events": self.events_emitted,
                    "open_spans": len(self._id_stack),
                }
                self._sink.write(
                    json.dumps(beat, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
                self._sink.flush()
                self.events_emitted += 1
                self.heartbeats_emitted += 1

    # -- mirrored recording --------------------------------------------
    @contextmanager
    def span(self, name: str, **gauges: Number) -> Iterator[Span]:
        sid = self._next_id
        self._next_id += 1
        parent = self._id_stack[-1] if self._id_stack else None
        span: Optional[Span] = None
        try:
            with super().span(name, **gauges) as span:
                event: Event = {
                    "ev": "span-open",
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "started_at": span.started_at,
                }
                if span.gauges:
                    event["gauges"] = dict(span.gauges)
                self._emit(event)
                self._id_stack.append(sid)
                try:
                    yield span
                finally:
                    self._id_stack.pop()
        finally:
            # Emitted after the base tracer's exit hook so the final
            # wall/cpu floats (and any counters flushed in the span's
            # own finally blocks) are the exact frozen values — this is
            # what makes replay byte-identical.
            if span is not None:
                close: Event = {
                    "ev": "span-close",
                    "id": sid,
                    "wall_seconds": span.wall_seconds,
                    "cpu_seconds": span.cpu_seconds,
                }
                if span.counters:
                    close["counters"] = dict(span.counters)
                if span.gauges:
                    close["gauges"] = dict(span.gauges)
                self._emit(close)

    def count(self, name: str, delta: Number = 1) -> None:
        super().count(name, delta)
        # Unit increments are too hot to stream; per-call flushes from
        # stage code (delta != 1) mark real per-stage totals.
        if delta != 1:
            self._emit(
                {
                    "ev": "count",
                    "span": self._id_stack[-1] if self._id_stack else None,
                    "name": name,
                    "delta": delta,
                }
            )

    def gauge(self, name: str, value: Number) -> None:
        super().gauge(name, value)
        self._emit(
            {
                "ev": "gauge",
                "span": self._id_stack[-1] if self._id_stack else None,
                "name": name,
                "value": value,
            }
        )

    def progress(self, kind: str, **fields: object) -> None:
        """Stream a free-form progress event (never enters the trace)."""
        event: Event = {"ev": "progress", "kind": kind}
        event.update(fields)
        self._emit(event)

    # -- finalization --------------------------------------------------
    def finish(
        self,
        router: str = "",
        design: str = "",
        meta: Optional[dict[str, object]] = None,
    ) -> RunTrace:
        """Freeze the trace, emit the ``finish`` event, close the sink.

        The ``stream_events`` / ``stream_heartbeats`` bookkeeping
        counters are recorded as orphan counters *before* freezing, so
        the finish event and the returned trace agree exactly.
        """
        self.counters["stream_events"] = self.events_emitted
        self.counters["stream_heartbeats"] = self.heartbeats_emitted
        trace = super().finish(router=router, design=design, meta=meta)
        self._emit(
            {
                "ev": "finish",
                "router": trace.router,
                "design": trace.design,
                "wall_seconds": trace.wall_seconds,
                "cpu_seconds": trace.cpu_seconds,
                "counters": dict(trace.counters),
                "meta": dict(trace.meta),
            },
            heartbeat=False,
        )
        self.close()
        return trace

    def close(self) -> None:
        """Stop emitting; close the sink if this tracer opened it."""
        if self._closed:
            return
        self._closed = True
        if self._owns_sink:
            self._sink.close()


# ----------------------------------------------------------------------
# Reading / replay
# ----------------------------------------------------------------------
def check_stream_header(event: Event) -> None:
    """Raise :class:`ValueError` unless ``event`` is a valid header."""
    if event.get("ev") != "open":
        raise ValueError("stream does not start with an 'open' event")
    if event.get("format") != STREAM_FORMAT:
        raise ValueError(f"not an event stream: {event.get('format')!r}")
    if event.get("version") != STREAM_VERSION:
        raise ValueError(
            f"unsupported stream version {event.get('version')!r}"
        )


def parse_event_line(line: str) -> Event:
    """Decode one NDJSON line into an event dict (or raise ValueError)."""
    event = json.loads(line)
    if not isinstance(event, dict) or "ev" not in event:
        raise ValueError(f"not a stream event line: {line[:80]!r}")
    return event


def iter_stream_events(source: Sink) -> Iterator[Event]:
    """Yield the events of a stream file (or open text file object).

    The first line must be a valid ``open`` header; later lines that
    carry unknown ``ev`` values are yielded as-is (forward
    compatibility — consumers skip what they do not understand).
    """
    if isinstance(source, (str, pathlib.Path)):
        fh: IO[str] = open_stream_text(source, "rt")
        owns = True
    else:
        fh = source
        owns = False
    try:
        first = True
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = parse_event_line(line)
            if first:
                first = False
                check_stream_header(event)
            yield event
    finally:
        if owns:
            fh.close()


class StreamReplayer:
    """Incrementally reassembles stream events into a trace.

    Feed events in order with :meth:`apply`; :attr:`trace` is set once
    the ``finish`` event arrives.  ``repro watch`` keeps one of these
    alive while tailing a live file, so hotspot rollups are available
    the moment the run ends.
    """

    def __init__(self) -> None:
        self._spans: dict[int, Span] = {}
        self._roots: list[Span] = []
        #: Reassembled trace; ``None`` until the finish event.
        self.trace: Optional[RunTrace] = None
        #: Events applied so far (any type).
        self.events = 0

    def apply(self, event: Event) -> None:
        """Fold one event into the reassembly state."""
        self.events += 1
        ev = event.get("ev")
        if ev == "span-open":
            span = Span(
                name=event["name"],
                started_at=event.get("started_at", 0.0),
                gauges=dict(event.get("gauges", {})),
            )
            self._spans[event["id"]] = span
            parent = event.get("parent")
            if parent is None:
                self._roots.append(span)
            else:
                self._spans[parent].children.append(span)
        elif ev == "span-close":
            span = self._spans[event["id"]]
            span.wall_seconds = event.get("wall_seconds", 0.0)
            span.cpu_seconds = event.get("cpu_seconds", 0.0)
            span.counters = dict(event.get("counters", {}))
            span.gauges = dict(event.get("gauges", {}))
        elif ev == "finish":
            self.trace = RunTrace(
                router=event.get("router", ""),
                design=event.get("design", ""),
                wall_seconds=event.get("wall_seconds", 0.0),
                cpu_seconds=event.get("cpu_seconds", 0.0),
                spans=self._roots,
                counters=dict(event.get("counters", {})),
                meta=dict(event.get("meta", {})),
            )
        # open / count / gauge / progress / heartbeat: the span-close
        # and finish totals are authoritative; nothing to fold.


def read_stream(source: Sink) -> RunTrace:
    """Replay a complete stream into its :class:`RunTrace`.

    Raises :class:`ValueError` when the stream carries no ``finish``
    event (an interrupted run — the prefix is still iterable with
    :func:`iter_stream_events`).
    """
    replayer = StreamReplayer()
    for event in iter_stream_events(source):
        replayer.apply(event)
    if replayer.trace is None:
        raise ValueError(
            "stream has no 'finish' event (interrupted run?)"
        )
    return replayer.trace


def read_stream_text(text: str) -> RunTrace:
    """Replay a stream from its NDJSON text (testing convenience)."""
    return read_stream(io.StringIO(text))
