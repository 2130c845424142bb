"""Live NDJSON trace streaming and replay (``repro.observe.stream``).

The tracer freezes a run into a :class:`~repro.observe.RunTrace` only
*after* the run completes; on 10-100x-scale instances that makes long
runs black boxes until they finish.  A :class:`StreamWriter` is a
:class:`~repro.observe.Tracer` listener that writes the same events
incrementally, one JSON object per line (NDJSON), to a file or pipe
sink *while the run executes* — span opens and closes, counter
flushes, gauges, per-net progress, and periodic heartbeats carrying
wall-clock and peak-RSS gauges::

    tracer = Tracer([StreamWriter("run.ndjson")])

The schema is versioned (:data:`STREAM_FORMAT` / :data:`STREAM_VERSION`)
and every line is self-contained, so a consumer may tail the file
mid-run (``repro watch``) and a crashed run leaves a valid prefix.  A
stream file holds exactly one run.  :func:`read_stream` replays a
complete stream back into a :class:`RunTrace` that is
**byte-identical** to the trace the run's own ``finish()`` returned —
span-close events carry the authoritative final counter/gauge dicts
and the exact wall/CPU floats, and ``RunTrace.to_json`` sorts keys, so
reassembly order cannot perturb the serialized document.

Event vocabulary (the ``ev`` field):

* ``open`` — stream header: format and version tags (written by the
  :class:`StreamWriter`, not the tracer).
* ``span-open`` — ``id``, ``parent`` (id or ``None``), ``name``,
  ``started_at``, opening ``gauges``.
* ``span-close`` — ``id``, final ``wall_seconds`` / ``cpu_seconds`` and
  the span's complete final ``counters`` / ``gauges`` dicts.
* ``count`` — a counter *flush* (``delta != 1``; unit increments are
  too hot to stream, the span-close totals cover them).
* ``gauge`` — a point-in-time value on the innermost span.
* ``progress`` — free-form per-net progress
  (:meth:`~repro.observe.Tracer.progress`; the global and detailed
  routers send one ``net`` event per routed net).
* ``heartbeat`` — periodic liveness written by the
  :class:`StreamWriter`: wall offset, peak RSS (KiB), lines written so
  far, open-span depth.
* ``finish`` — the ``RunTrace`` root fields (router, design, wall,
  CPU, orphan counters, meta); terminates the stream.

Thread safety: every write holds the writer's lock.  The routing
stages call the tracer from one thread, so streams are canonically
ordered; the lock keeps concurrent callers from interleaving lines.
"""

from __future__ import annotations

import gzip
import io
import json
import pathlib
import threading
import time
from collections.abc import Iterator
from typing import IO, Optional, Union

from .tracer import (
    TRACE_FORMAT,
    TRACE_VERSION,
    Event,
    PathLike,
    RunTrace,
    Span,
    _counters,
    _gauges,
    _number,
    _object,
    _string,
)

#: Format tag of the first line of every stream.
STREAM_FORMAT = "repro-trace-stream"
#: Schema version; bump on any incompatible event-shape change.
STREAM_VERSION = 1

#: File suffixes recognized as NDJSON event streams.
STREAM_SUFFIXES = (".ndjson", ".ndjson.gz")

#: Minimum seconds between heartbeat lines.  Heartbeats piggyback on
#: writes (no timer thread), so event traffic bounds their cadence.
HEARTBEAT_INTERVAL = 1.0

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


class StreamWriter:
    """A tracer listener that writes each event as one NDJSON line.

    The ``open`` header is written when the writer is built; the
    ``finish`` event closes the sink.  Every line is flushed at once.

    Args:
        sink: target path (``.gz`` suffix writes gzip) or an open
            text-mode file object.  Paths are opened for writing, so a
            stream file holds one run; a pre-created file or a named
            pipe works too.
    """

    def __init__(self, sink: Sink) -> None:
        if isinstance(sink, (str, pathlib.Path)):
            self._sink: IO[str] = open_stream_text(sink, "wt")
            self._owns_sink = True
        else:
            self._sink = sink
            self._owns_sink = False
        self._lock = threading.Lock()
        self._epoch = self._last_heartbeat = time.perf_counter()
        self._lines = 0
        self._open_spans = 0
        self._closed = False
        self._write(
            {
                "ev": "open",
                "format": STREAM_FORMAT,
                "version": STREAM_VERSION,
                "trace_format": TRACE_FORMAT,
                "trace_version": TRACE_VERSION,
            }
        )

    def _write(self, event: Event) -> None:
        self._sink.write(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._sink.flush()
        self._lines += 1

    def __call__(self, event: Event) -> None:
        """Write ``event`` (and maybe a heartbeat) to the sink."""
        ev = event["ev"]
        with self._lock:
            if self._closed:
                return
            if ev == "span-open":
                self._open_spans += 1
            elif ev == "span-close":
                self._open_spans -= 1
            self._write(event)
            now = time.perf_counter()
            if (
                ev != "finish"
                and now - self._last_heartbeat >= HEARTBEAT_INTERVAL
            ):
                self._last_heartbeat = now
                self._write(
                    {
                        "ev": "heartbeat",
                        "wall_seconds": now - self._epoch,
                        "rss_kib": _peak_rss_kib(),
                        "events": self._lines,
                        "open_spans": self._open_spans,
                    }
                )
        if ev == "finish":
            self.close()

    def close(self) -> None:
        """Stop writing; close the sink if this writer opened it."""
        with self._lock:
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
    the ``finish`` event arrives.  ``repro watch`` and ``-v`` keep one
    of these alive while the run goes on, so hotspot rollups are
    available the moment it ends.
    """

    def __init__(self) -> None:
        self._spans: dict[int, Span] = {}
        self._roots: list[Span] = []
        self._opened = False
        #: Reassembled trace; ``None`` until the finish event.
        self.trace: Optional[RunTrace] = None
        #: Events applied so far (any type).
        self.events = 0

    def apply(self, event: Event) -> None:
        """Fold one event into the reassembly state.

        Raises:
            ValueError: the event cannot belong to the one well-formed
                run a stream holds: a second ``open`` header, a
                ``span-open`` without a fresh integer ``id`` or with
                an unknown ``parent``, a ``span-close`` for a span
                that never opened, or a field of the wrong shape (the
                same checks as :meth:`RunTrace.from_dict`).  The
                message names the event's 1-based position.
        """
        self.events += 1
        try:
            self._fold(event)
        except ValueError as error:
            raise ValueError(f"event {self.events}: {error}") from None

    def _fold(self, event: Event) -> None:
        ev = event.get("ev")
        if ev == "open":
            if self._opened:
                raise ValueError(
                    "a second 'open' header (two runs in one file?)"
                )
            self._opened = True
        elif ev == "span-open":
            sid = event.get("id")
            if not isinstance(sid, int) or isinstance(sid, bool):
                raise ValueError(f"span-open without an integer id: {sid!r}")
            if sid in self._spans:
                raise ValueError(f"span-open reuses span id {sid}")
            name = event.get("name")
            if not isinstance(name, str):
                raise ValueError(f"span-open {sid} without a name")
            parent = event.get("parent")
            siblings = self._roots
            if parent is not None:
                siblings = self._span(parent, "span-open parent").children
            span = Span(
                name=name,
                started_at=_number(
                    event.get("started_at", 0.0), "span-open started_at"
                ),
                gauges=_gauges(event.get("gauges", {}), "span-open gauges"),
            )
            self._spans[sid] = span
            siblings.append(span)
        elif ev == "span-close":
            span = self._span(event.get("id"), "span-close")
            span.wall_seconds = _number(
                event.get("wall_seconds", 0.0), "span-close wall_seconds"
            )
            span.cpu_seconds = _number(
                event.get("cpu_seconds", 0.0), "span-close cpu_seconds"
            )
            span.counters = _counters(
                event.get("counters", {}), "span-close counters"
            )
            span.gauges = _gauges(event.get("gauges", {}), "span-close gauges")
        elif ev == "finish":
            self.trace = RunTrace(
                router=_string(event.get("router", ""), "finish router"),
                design=_string(event.get("design", ""), "finish design"),
                wall_seconds=_number(
                    event.get("wall_seconds", 0.0), "finish wall_seconds"
                ),
                cpu_seconds=_number(
                    event.get("cpu_seconds", 0.0), "finish cpu_seconds"
                ),
                spans=self._roots,
                counters=_counters(
                    event.get("counters", {}), "finish counters"
                ),
                meta=_object(event.get("meta", {}), "finish meta"),
            )
        elif ev == "heartbeat":
            # Nothing to fold, but the watcher prints these two.
            _number(event.get("wall_seconds", 0.0), "heartbeat wall_seconds")
            _number(event.get("rss_kib", 0), "heartbeat rss_kib")
        # count / gauge / progress: the span-close and finish totals
        # are authoritative; nothing to fold.

    def _span(self, sid: object, what: str) -> Span:
        """The opened span ``sid`` names, else a ValueError."""
        span = self._spans.get(sid) if isinstance(sid, int) else None
        if span is None:
            raise ValueError(f"{what} names unknown span id {sid!r}")
        return span


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
