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

Every name a tracer may record is declared in
:mod:`~repro.observe.schema` — the canonical registry of counters,
gauges, spans, and progress kinds with their owner stage and
category.  The regression gate's strip prefix, the ``repro watch``
counter columns, and the lint rule OBS001 all derive from it.
"""

from . import schema
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
from .schema import (
    PROFILING_PREFIX,
    MetricSpec,
    history_counters,
    is_registered,
    lookup,
    metric_names,
    metric_specs,
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
    "MetricSpec",
    "PROFILING_PREFIX",
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
    "history_counters",
    "hotspots",
    "is_registered",
    "iter_stream_events",
    "load_trace_file",
    "lookup",
    "metric_names",
    "metric_specs",
    "read_stream",
    "read_stream_text",
    "render_diff",
    "render_hotspots",
    "render_summary",
    "schema",
    "watch_stream",
]
