"""Flow observability: staged tracing, metrics, analytics, live events.

Every stage of both routing flows reports timings and event counts
here, so per-stage behavior (Tables III–VIII of the paper) is
measurable instead of being folded into one CPU number.  On top of the
recording layer (:mod:`~repro.observe.tracer`) sit the consumers:
:mod:`~repro.observe.analytics` rolls traces up, diffs their counters
against baselines and extracts hotspots.  Live consumers are
listeners on the one :class:`Tracer`:
:class:`~repro.observe.stream.StreamWriter` writes the events to an
NDJSON sink *while the run executes* (replayed by
:func:`read_stream` into byte-identical :class:`RunTrace` documents),
and :class:`~repro.observe.watch.StreamWatcher` prints them as
progress lines (the CLI's ``-v`` and ``repro watch``).

Counter, gauge, span and progress names are plain strings defined
where they are emitted; ``docs/observability.md`` ("Trace structure")
lists them, and the regression gate pins every routing counter by name
and value.
"""

from .analytics import (
    CounterDelta,
    Hotspot,
    StageStats,
    TraceDiff,
    TraceSummary,
    diff_traces,
    hotspots,
    load_trace_file,
    render_diff,
    render_hotspots,
    render_summary,
)
from .stream import (
    STREAM_FORMAT,
    STREAM_SUFFIXES,
    STREAM_VERSION,
    StreamReplayer,
    StreamWriter,
    iter_stream_events,
    read_stream,
    read_stream_text,
)
from .tracer import (
    TRACE_FORMAT,
    TRACE_VERSION,
    RunTrace,
    Span,
    Tracer,
    ensure,
)
from .watch import (
    StreamWatcher,
    follow_events,
    watch_stream,
)

__all__ = [
    "STREAM_FORMAT",
    "STREAM_SUFFIXES",
    "STREAM_VERSION",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "CounterDelta",
    "Hotspot",
    "RunTrace",
    "Span",
    "StageStats",
    "StreamReplayer",
    "StreamWatcher",
    "StreamWriter",
    "TraceDiff",
    "TraceSummary",
    "Tracer",
    "diff_traces",
    "ensure",
    "follow_events",
    "hotspots",
    "iter_stream_events",
    "load_trace_file",
    "read_stream",
    "read_stream_text",
    "render_diff",
    "render_hotspots",
    "render_summary",
    "watch_stream",
]
