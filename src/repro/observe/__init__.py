"""Flow observability: staged tracing, metrics, analytics, logging.

Every stage of both routing flows reports timings and event counts
here, so per-stage behavior (Tables III–VIII of the paper) is
measurable instead of being folded into one CPU number.  On top of the
recording layer (:mod:`~repro.observe.tracer`) sit the consumers:
:mod:`~repro.observe.analytics` rolls traces up, diffs their counters
against baselines and extracts hotspots, :mod:`~repro.observe.log`
mirrors trace events into stdlib logging for live progress, and
:mod:`~repro.observe.stream` streams events to an NDJSON sink *while
the run executes* (tailed by ``repro watch``) and replays finished
streams back into byte-identical :class:`RunTrace` documents.

Flows run with ``RouterConfig(audit=True)`` add an ``audit`` span
whose ``audit_nets_checked`` / ``audit_findings`` / ``audit_drift``
counters summarize the independent solution audit
(:mod:`repro.analysis.audit`); default-config traces are unchanged.

Every name a tracer may record is declared in
:mod:`~repro.observe.schema` — the canonical registry of counters,
gauges, spans, and progress kinds with their owner stage and
category.  The regression gate's strip lists, the ``repro watch``
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
from .log import (
    TRACE_LOGGER_NAME,
    LoggingTracer,
    configure_logging,
)
from .schema import (
    CATEGORY_PREFIXES,
    MetricSpec,
    history_counters,
    is_registered,
    lookup,
    metric_names,
    metric_specs,
    strip_prefixes,
)
from .stream import (
    STREAM_FORMAT,
    STREAM_SUFFIXES,
    STREAM_VERSION,
    StreamingTracer,
    StreamReplayer,
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
    "CATEGORY_PREFIXES",
    "MetricSpec",
    "STREAM_FORMAT",
    "STREAM_SUFFIXES",
    "STREAM_VERSION",
    "TRACE_FORMAT",
    "TRACE_LOGGER_NAME",
    "TRACE_VERSION",
    "CounterDelta",
    "Hotspot",
    "LoggingTracer",
    "RunTrace",
    "Span",
    "StageStats",
    "StreamReplayer",
    "StreamWatcher",
    "StreamingTracer",
    "TraceDiff",
    "TraceSummary",
    "Tracer",
    "configure_logging",
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
    "strip_prefixes",
    "watch_stream",
]
