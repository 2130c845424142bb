"""Live run monitor: ``repro watch`` and the CLI's ``-v`` / ``-vv``.

A :class:`StreamWatcher` folds the events of
:mod:`repro.observe.stream` into human-oriented progress lines: stage
opens/closes with their wall, net-commit rates per routing stage
(``nets/s``), A* throughput (``expansions/s``), heartbeat gauges (peak
RSS, open-span depth), and — between heartbeats — the *hotspot
delta*: the span path whose closed wall time grew the most since the
previous beat.  When the ``finish`` event arrives the watcher prints
the standard hotspot ranking of the reassembled trace, so a run ends
with the same rollup ``repro trace top`` would print.

``repro watch`` feeds it the lines of a stream file;
``-v`` registers :meth:`StreamWatcher.handle` as a listener on the
run's own :class:`~repro.observe.Tracer`, printing to stderr.
Heartbeats are written by the :class:`~repro.observe.StreamWriter`,
so they show only when a stream file is watched.

:func:`follow_events` is the tailing reader underneath: it yields
complete event lines as the producer appends them, polling on EOF
until the ``finish`` event, the producer's silence exceeds
``timeout``, or ``follow=False`` reaches the current end of file.
Partial trailing lines (the producer mid-``write``) are never yielded
— the reader seeks back and retries, so a consumer only ever sees
whole events.

This module never runs inside a routing flow — its ``time.sleep``
polling and wall-clock arithmetic are observer-side only.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterator
from typing import IO, Optional, TextIO

from .analytics import hotspots, render_hotspots
from .stream import (
    StreamReplayer,
    check_stream_header,
    open_stream_text,
    parse_event_line,
)
from .tracer import Event, PathLike

#: Counter names whose span-close totals feed the expansions/s rate.
_EXPANSION_COUNTERS = ("maze_expansions", "astar_expansions")

#: Span-close counters worth echoing inline (kept short on purpose),
#: in print order.  ``tests/observe/test_watch.py`` checks each name
#: against a committed gate trace, so a misspelt one fails there.
_NOTABLE_COUNTERS = (
    "nets_routed",
    "maze_expansions",
    "astar_searches",
    "astar_expansions",
    "ripup_rounds",
    "failed_nets",
)


def follow_events(
    path: PathLike,
    follow: bool = True,
    poll_interval: float = 0.5,
    timeout: Optional[float] = None,
) -> Iterator[Event]:
    """Yield events from ``path``, tailing the file while it grows.

    Args:
        path: stream file (``.ndjson`` or ``.ndjson.gz``; gzip files
            are complete archives, so tailing them only makes sense
            with ``follow=False``).
        follow: keep polling at EOF until the ``finish`` event
            arrives; ``False`` stops at the current end of file.
        poll_interval: seconds between EOF polls.
        timeout: abort with :class:`TimeoutError` after this many
            seconds without a single new complete line (``None``
            waits forever).
    """
    fh: IO[str] = open_stream_text(path, "rt")
    try:
        first = True
        idle = 0.0
        while True:
            position = fh.tell()
            line = fh.readline()
            if line.endswith("\n"):
                idle = 0.0
                stripped = line.strip()
                if not stripped:
                    continue
                event = parse_event_line(stripped)
                if first:
                    first = False
                    check_stream_header(event)
                yield event
                if follow and event.get("ev") == "finish":
                    return
                continue
            # EOF, or a partial line the producer is still writing:
            # rewind so the fragment is re-read whole next time.
            fh.seek(position)
            if not follow:
                return
            time.sleep(poll_interval)
            idle += poll_interval
            if timeout is not None and idle >= timeout:
                raise TimeoutError(
                    f"no stream activity in {path} for {idle:.1f}s"
                )
    finally:
        fh.close()


class StreamWatcher:
    """Folds stream events into live progress lines on ``out``.

    Only spans at most ``depth`` levels below a top-level span get
    open/close lines — depth 1 (``repro watch``, ``-v``) shows the
    stages, depth 2 (``-vv``) adds the negotiation and rip-up rounds.
    Deeper spans still feed the hotspot-delta tracking and the final
    ranking.

    Nets are counted per ``stage`` field of the ``net`` progress
    events: every net sends one from the global and one from the
    detailed stage, and the global count includes the nets re-routed
    by negotiation rounds.
    """

    def __init__(self, out: Optional[TextIO] = None, depth: int = 1) -> None:
        self._out: TextIO = out if out is not None else sys.stdout
        self._max_depth = depth
        self.replayer = StreamReplayer()
        self._depth: dict[int, int] = {}
        self._path: dict[int, str] = {}
        self._started: dict[int, float] = {}
        #: Committed nets per routing stage, in first-seen order.
        self._nets: dict[str, int] = {}
        self._expansions = 0.0
        self._wall = 0.0
        self._closed_wall: dict[str, float] = {}
        self._hotspot_snapshot: dict[str, float] = {}

    # -- helpers -------------------------------------------------------
    def _print(self, text: str) -> None:
        self._out.write(text + "\n")
        self._out.flush()

    def _stamp(self) -> str:
        return f"[{self._wall:8.2f}s]"

    def _rates(self) -> str:
        if self._wall <= 0.0:
            return ""
        parts = [
            f"{count / self._wall:.1f} {stage} nets/s"
            for stage, count in self._nets.items()
        ]
        if self._expansions:
            parts.append(f"{self._expansions / self._wall:.0f} expansions/s")
        return "  ".join(parts)

    def _hotspot_delta(self) -> str:
        """The span path whose closed wall grew most since last call."""
        best_path, best_delta = "", 0.0
        for path, wall in self._closed_wall.items():
            delta = wall - self._hotspot_snapshot.get(path, 0.0)
            if delta > best_delta:
                best_path, best_delta = path, delta
        self._hotspot_snapshot = dict(self._closed_wall)
        if not best_path:
            return ""
        return f"hotspot {best_path} +{best_delta:.3f}s"

    # -- event handling ------------------------------------------------
    def handle(self, event: Event) -> None:
        """Fold one event: update state, print any progress line."""
        self.replayer.apply(event)
        ev = event.get("ev")
        if ev == "open":
            self._print(
                f"watching stream ({event.get('format')} "
                f"v{event.get('version')})"
            )
        elif ev == "span-open":
            sid = int(event["id"])
            parent = event.get("parent")
            depth = 0 if parent is None else self._depth[int(parent)] + 1
            path = event.get("name", "?")
            if parent is not None:
                path = f"{self._path[int(parent)]}/{path}"
            started = float(event.get("started_at", 0.0))
            self._depth[sid] = depth
            self._path[sid] = str(path)
            self._started[sid] = started
            self._wall = max(self._wall, started)
            if depth <= self._max_depth:
                self._print(f"{self._stamp()} > {path}")
        elif ev == "span-close":
            sid = int(event["id"])
            wall = float(event.get("wall_seconds", 0.0))
            path = self._path.get(sid, "?")
            self._closed_wall[path] = self._closed_wall.get(path, 0.0) + wall
            self._wall = max(self._wall, self._started.get(sid, 0.0) + wall)
            counters = event.get("counters") or {}
            for name in _EXPANSION_COUNTERS:
                self._expansions += counters.get(name, 0)
            if self._depth.get(sid, 0) <= self._max_depth:
                notable = "  ".join(
                    f"{name}={counters[name]:g}"
                    for name in _NOTABLE_COUNTERS
                    if name in counters
                )
                line = f"{self._stamp()} < {path}  wall={wall:.3f}s"
                if notable:
                    line += f"  {notable}"
                self._print(line)
        elif ev == "progress" and event.get("kind") == "net":
            stage = str(event.get("stage", "?"))
            count = self._nets.get(stage, 0) + 1
            self._nets[stage] = count
            if count % 100 == 0:
                rates = self._rates()
                suffix = f"  ({rates})" if rates else ""
                self._print(
                    f"{self._stamp()} {count} {stage} nets committed{suffix}"
                )
        elif ev == "heartbeat":
            self._wall = max(self._wall, float(event.get("wall_seconds", 0.0)))
            rss_mib = float(event.get("rss_kib", 0)) / 1024.0
            parts = [
                f"{self._stamp()} heartbeat",
                f"rss={rss_mib:.0f}MiB",
                f"events={event.get('events', 0)}",
                f"open_spans={event.get('open_spans', 0)}",
            ]
            rates = self._rates()
            if rates:
                parts.append(rates)
            delta = self._hotspot_delta()
            if delta:
                parts.append(delta)
            self._print("  ".join(parts))
        elif ev == "finish":
            self._wall = max(
                self._wall, float(event.get("wall_seconds", 0.0))
            )
            self._print(
                f"{self._stamp()} finished: "
                f"{event.get('router', '?')} on {event.get('design', '?')} "
                f"(wall {event.get('wall_seconds', 0.0):.3f}s, "
                f"cpu {event.get('cpu_seconds', 0.0):.3f}s)"
            )
            if self._nets:
                counts = ", ".join(
                    f"{stage} {count}" for stage, count in self._nets.items()
                )
                self._print(f"  nets committed: {counts}")
            rates = self._rates()
            if rates:
                self._print(f"  overall: {rates}")
            trace = self.replayer.trace
            if trace is not None:
                self._print("")
                self._print(render_hotspots(hotspots(trace, n=5)))
        # count / gauge / other progress / unknown events: folded by
        # the replayer only.


def watch_stream(
    path: PathLike,
    follow: bool = True,
    poll_interval: float = 0.5,
    timeout: Optional[float] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Tail ``path`` and print live progress; the ``repro watch`` body.

    Returns a process exit code: 0 when the ``finish`` event was seen,
    1 when the stream ended (or ``--no-follow`` hit EOF) without one.
    Malformed streams and tail timeouts raise (:class:`ValueError`,
    :class:`json.JSONDecodeError`, :class:`TimeoutError`) for the CLI
    to report.
    """
    watcher = StreamWatcher(out=out)
    for event in follow_events(
        path, follow=follow, poll_interval=poll_interval, timeout=timeout
    ):
        watcher.handle(event)
    if watcher.replayer.trace is None:
        stream = out if out is not None else sys.stdout
        stream.write("stream ended without a finish event\n")
        return 1
    return 0


__all__ = [
    "StreamWatcher",
    "follow_events",
    "watch_stream",
]
