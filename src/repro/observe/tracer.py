"""Hierarchical tracing and metrics for the routing flow.

The paper's evaluation (Tables III–VIII) is entirely per-stage: global
routing overflow per negotiation round, layer-assignment coloring
quality, track-assignment model sizes, detailed-routing rip-up
iterations.  A single end-to-end CPU number cannot show any of that, so
every stage of the framework reports into a :class:`Tracer`:

* **spans** — nested timed sections (wall *and* CPU seconds), one per
  stage / pass / negotiation round;
* **counters** — monotonically accumulated event counts (maze
  expansions, flow augmentations, rip-up victims, ...), attached to
  the innermost open span;
* **gauges** — point-in-time values (overflow after a round, coloring
  cost of a panel), also attached to the innermost open span.

:meth:`Tracer.finish` freezes everything into a :class:`RunTrace`, a
plain-data object with a stable, versioned JSON schema so traces from
different routers (or different commits) are directly diffable.

Live consumers are *listeners*: callables the tracer hands each event
to while the run executes (the NDJSON vocabulary of
:mod:`repro.observe.stream`).  The stream file
(:class:`~repro.observe.StreamWriter`) and the terminal printer
(:meth:`~repro.observe.StreamWatcher.handle`, ``-v`` and ``repro
watch``) are both listeners, so they compose.  Without listeners a
recording call does one extra truthiness test and builds no event.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from contextlib import contextmanager
from collections.abc import Callable, Iterator, Sequence
from typing import Any, Optional, Union

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

Number = Union[int, float]
PathLike = Union[str, pathlib.Path]
#: One live event: a JSON-ready dict whose ``ev`` field names its kind.
Event = dict[str, Any]


# -- shape checks for documents read back in --------------------------
def _number(value: object, field: str) -> Number:
    """``value`` if it is a number, else a ValueError naming ``field``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise ValueError(f"{field} must be a number")


def _string(value: object, field: str) -> str:
    """``value`` if it is a string, else a ValueError naming ``field``."""
    if isinstance(value, str):
        return value
    raise ValueError(f"{field} must be a string")


def _object(value: object, field: str) -> dict[str, Any]:
    """A copy of ``value`` if it is an object, else a ValueError."""
    if isinstance(value, dict):
        return dict(value)
    raise ValueError(f"{field} must be an object")


def _counters(value: object, field: str) -> dict[str, Number]:
    """A copy of ``value`` if it maps names to numbers."""
    out = _object(value, field)
    for name, item in out.items():
        _number(item, f"{field} {name!r}")
    return out


def _gauges(value: object, field: str) -> dict[str, Number]:
    """A copy of ``value`` if it maps names to numbers or strings.

    ``track-assign`` records its ``method`` gauge as a string.
    """
    out = _object(value, field)
    for name, item in out.items():
        if not isinstance(item, str):
            _number(item, f"{field} {name!r}")
    return out


def _objects(value: object, field: str) -> list[dict[str, Any]]:
    """``value`` if it is an array of objects, else a ValueError."""
    if isinstance(value, list) and all(isinstance(v, dict) for v in value):
        return value
    raise ValueError(f"{field} must be an array of objects")


@dataclasses.dataclass
class Span:
    """One timed section of a run, possibly containing child spans.

    Attributes:
        name: section label (e.g. ``"global"``, ``"negotiation-round"``).
        started_at: start offset in seconds since the trace began.
        wall_seconds: elapsed wall-clock time of the section.
        cpu_seconds: process CPU time consumed by the section.
        counters: event counts accumulated while this span was the
            innermost open span.
        gauges: point-in-time values recorded in this span.
        children: nested spans, in start order.
    """

    name: str
    started_at: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    counters: dict[str, Number] = dataclasses.field(default_factory=dict)
    gauges: dict[str, Number] = dataclasses.field(default_factory=dict)
    children: list["Span"] = dataclasses.field(default_factory=list)

    def count(self, name: str, delta: Number = 1) -> None:
        """Add ``delta`` to counter ``name`` of this span."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: Number) -> None:
        """Record the point-in-time value ``name`` on this span."""
        self.gauges[name] = value

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree (depth first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """Plain-dict form (stable JSON schema)."""
        out: dict = {
            "name": self.name,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.gauges:
            out["gauges"] = dict(self.gauges)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        Raises:
            ValueError: a field has the wrong shape; the message names
                the field.
        """
        name = _string(data.get("name"), "span name")
        field = f"span {name!r}"
        return cls(
            name=name,
            started_at=_number(
                data.get("started_at", 0.0), f"{field} started_at"
            ),
            wall_seconds=_number(
                data.get("wall_seconds", 0.0), f"{field} wall_seconds"
            ),
            cpu_seconds=_number(
                data.get("cpu_seconds", 0.0), f"{field} cpu_seconds"
            ),
            counters=_counters(data.get("counters", {}), f"{field} counters"),
            gauges=_gauges(data.get("gauges", {}), f"{field} gauges"),
            children=[
                cls.from_dict(child)
                for child in _objects(
                    data.get("children", []), f"{field} children"
                )
            ],
        )


@dataclasses.dataclass
class RunTrace:
    """Frozen trace of one routing run — the unit of perf comparison.

    Attributes:
        router: label of the flow that produced the trace (e.g.
            ``"StitchAwareRouter"``).
        design: name of the routed design.
        wall_seconds: end-to-end wall time of the traced run.
        cpu_seconds: end-to-end process CPU time of the traced run.
        spans: top-level spans in start order.
        counters: counts recorded outside any span.
        meta: free-form context (scale, config knobs, ...).
    """

    router: str = ""
    design: str = ""
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    spans: list[Span] = dataclasses.field(default_factory=list)
    counters: dict[str, Number] = dataclasses.field(default_factory=dict)
    meta: dict[str, object] = dataclasses.field(default_factory=dict)

    # -- queries -------------------------------------------------------
    def walk(self) -> Iterator[Span]:
        """Every span of the trace, depth first."""
        for span in self.spans:
            yield from span.walk()

    def find(self, name: str) -> Optional[Span]:
        """First span named ``name`` anywhere in the trace."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def aggregate_counters(self) -> dict[str, Number]:
        """All counters summed over the whole trace (spans + orphans)."""
        totals: dict[str, Number] = dict(self.counters)
        for span in self.walk():
            for name, value in span.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def stage_wall_seconds(self) -> dict[str, float]:
        """Wall time per top-level span name (summed over repeats)."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.wall_seconds
        return out

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form with a format/version tag."""
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "router": self.router,
            "design": self.design,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "counters": dict(self.counters),
            "meta": dict(self.meta),
            "spans": [s.to_dict() for s in self.spans],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunTrace":
        """Rebuild a trace from :meth:`to_dict` output.

        Raises:
            ValueError: ``data`` is not a version-1 trace document, or
                a field has the wrong shape; the message names the
                field.
        """
        fmt = data.get("format") if isinstance(data, dict) else None
        if fmt != TRACE_FORMAT:
            raise ValueError(f"not a trace document: {fmt!r}")
        if data.get("version") != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {data.get('version')!r}"
            )
        return cls(
            router=_string(data.get("router", ""), "router"),
            design=_string(data.get("design", ""), "design"),
            wall_seconds=_number(
                data.get("wall_seconds", 0.0), "wall_seconds"
            ),
            cpu_seconds=_number(data.get("cpu_seconds", 0.0), "cpu_seconds"),
            spans=[
                Span.from_dict(span)
                for span in _objects(data.get("spans", []), "spans")
            ],
            counters=_counters(data.get("counters", {}), "counters"),
            meta=_object(data.get("meta", {}), "meta"),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of the trace."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunTrace":
        """Parse a trace from its JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: PathLike) -> None:
        """Write the trace to a JSON file."""
        pathlib.Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: PathLike) -> "RunTrace":
        """Read a trace from a JSON file."""
        return cls.from_json(pathlib.Path(path).read_text())


class Tracer:
    """Collects spans, counters and gauges during one routing run.

    A tracer is always live — recording is a dict update per event, so
    stages never need ``if tracer is not None`` guards; hot loops should
    still count locally and flush once per call.  Use :func:`ensure`
    at API boundaries that accept ``tracer=None``.

    Args:
        listeners: callables handed every live event in order:
            ``span-open`` / ``span-close`` (ids from a per-tracer
            counter), ``count`` for flushes (``delta != 1``),
            ``gauge``, ``progress`` and ``finish``.  Progress events
            exist only for listeners and never enter the frozen trace.
    """

    def __init__(
        self, listeners: Sequence[Callable[[Event], None]] = ()
    ) -> None:
        self._epoch_wall = time.perf_counter()
        self._epoch_cpu = time.process_time()
        self.spans: list[Span] = []
        #: Counters recorded while no span is open.
        self.counters: dict[str, Number] = {}
        self._stack: list[Span] = []
        self._listeners = tuple(listeners)
        #: Event ids of the open spans, alongside ``_stack``.
        self._ids: list[int] = []
        self._next_id = 0

    def _emit(self, event: Event) -> None:
        for listener in self._listeners:
            listener(event)

    # -- recording -----------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **gauges: Number) -> Iterator[Span]:
        """Open a nested timed span; extra kwargs become gauges."""
        span = Span(
            name=name,
            started_at=time.perf_counter() - self._epoch_wall,
        )
        for key, value in gauges.items():
            span.gauge(key, value)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        sid = self._next_id
        self._next_id += 1
        if self._listeners:
            event: Event = {
                "ev": "span-open",
                "id": sid,
                "parent": self._ids[-1] if self._ids else None,
                "name": name,
                "started_at": span.started_at,
            }
            if span.gauges:
                event["gauges"] = dict(span.gauges)
            self._emit(event)
        self._stack.append(span)
        self._ids.append(sid)
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        try:
            yield span
        finally:
            span.wall_seconds = time.perf_counter() - start_wall
            span.cpu_seconds = time.process_time() - start_cpu
            popped = self._stack.pop()
            self._ids.pop()
            assert popped is span
            if self._listeners:
                # After the timing and the pop, so the close carries the
                # exact frozen floats and totals: replay is byte-identical.
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
        """Add ``delta`` to counter ``name`` of the innermost span."""
        if self._stack:
            self._stack[-1].count(name, delta)
        else:
            self.counters[name] = self.counters.get(name, 0) + delta
        # Unit increments are too hot to emit; per-call flushes from
        # stage code (delta != 1) mark real per-stage totals.
        if self._listeners and delta != 1:
            self._emit(
                {
                    "ev": "count",
                    "span": self._ids[-1] if self._ids else None,
                    "name": name,
                    "delta": delta,
                }
            )

    def gauge(self, name: str, value: Number) -> None:
        """Record gauge ``name`` on the innermost span.

        Raises:
            RuntimeError: no span is open — a point-in-time value has
                no place among the run's event counts.
        """
        if not self._stack:
            raise RuntimeError(f"cannot record gauge {name!r} outside a span")
        self._stack[-1].gauge(name, value)
        if self._listeners:
            self._emit(
                {
                    "ev": "gauge",
                    "span": self._ids[-1],
                    "name": name,
                    "value": value,
                }
            )

    def progress(self, kind: str, **fields: object) -> None:
        """Report transient progress (per-net commits) to the listeners.

        Progress never enters the frozen :class:`RunTrace`; without
        listeners the call does nothing.
        """
        if self._listeners:
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
        """Freeze the recorded data into a :class:`RunTrace`.

        Open spans are not closed — finish after all spans exit.  The
        listeners get a ``finish`` event with the trace's root fields.
        """
        if self._stack:
            raise RuntimeError(
                f"cannot finish with open span {self._stack[-1].name!r}"
            )
        trace = RunTrace(
            router=router,
            design=design,
            wall_seconds=time.perf_counter() - self._epoch_wall,
            cpu_seconds=time.process_time() - self._epoch_cpu,
            spans=list(self.spans),
            counters=dict(self.counters),
            meta=dict(meta or {}),
        )
        if self._listeners:
            self._emit(
                {
                    "ev": "finish",
                    "router": trace.router,
                    "design": trace.design,
                    "wall_seconds": trace.wall_seconds,
                    "cpu_seconds": trace.cpu_seconds,
                    "counters": dict(trace.counters),
                    "meta": dict(trace.meta),
                }
            )
        return trace


def ensure(tracer: Optional[Tracer]) -> Tracer:
    """The given tracer, or a fresh one when ``None``.

    Stage entry points accept ``tracer=None`` for callers that do not
    care about observability; the throwaway tracer keeps the stage code
    branch-free.
    """
    return tracer if tracer is not None else Tracer()
