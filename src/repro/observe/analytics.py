"""Trace analytics: rollups, diffing and hotspot extraction.

The tracer (:mod:`repro.observe.tracer`) records what happened; this
module answers the questions a perf PR has to answer from those
recordings:

* :class:`TraceSummary` — per-stage rollups (wall/CPU seconds, span
  counts, counters, gauges) aggregated over every span with the same
  name anywhere in the tree;
* :func:`diff_traces` — a structured delta between two runs.  Counters
  are deterministic (maze expansions, rip-up rounds, flow
  augmentations do not depend on machine speed), so any drift is a
  behavior change and requires an **exact** match; wall time is noisy,
  so stage timings regress only past a percentage threshold and a
  minimum-seconds floor;
* :func:`hotspots` — the top-N span paths by *self* wall time (time
  not attributed to child spans), i.e. where the run actually went;
* plain-text and markdown table rendering for all of the above, used
  by ``python -m repro trace {show,diff,top}`` and the benchmark
  regression gate.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from collections.abc import Sequence
from typing import Optional, Union

from ..reporting import format_table
from .schema import history_counters
from .tracer import Number, RunTrace, Span

PathLike = Union[str, pathlib.Path]


# ----------------------------------------------------------------------
# Per-stage rollups
# ----------------------------------------------------------------------
@dataclasses.dataclass
class StageStats:
    """Rollup of every span sharing one name across a trace.

    Attributes:
        name: the span name (e.g. ``"negotiation-round"``).
        spans: how many spans carried the name.
        wall_seconds: summed wall time of those spans.
        cpu_seconds: summed CPU time of those spans.
        counters: summed counters of those spans.
        gauges: last recorded value per gauge name.
    """

    name: str
    spans: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    counters: dict[str, Number] = dataclasses.field(default_factory=dict)
    gauges: dict[str, Number] = dataclasses.field(default_factory=dict)

    def absorb(self, span: Span) -> None:
        """Fold one span into the rollup."""
        self.spans += 1
        self.wall_seconds += span.wall_seconds
        self.cpu_seconds += span.cpu_seconds
        for name, value in span.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(span.gauges)


@dataclasses.dataclass
class TraceSummary:
    """Per-stage rollup view of one :class:`RunTrace`.

    Attributes:
        router: router label of the underlying trace.
        design: design name of the underlying trace.
        wall_seconds: end-to-end wall time.
        cpu_seconds: end-to-end CPU time.
        stages: rollups keyed by span name, in first-visit (depth
            first) order.
        counters: whole-run counter totals (spans + orphans).
    """

    router: str
    design: str
    wall_seconds: float
    cpu_seconds: float
    stages: dict[str, StageStats]
    counters: dict[str, Number]

    @classmethod
    def from_trace(cls, trace: RunTrace) -> "TraceSummary":
        """Roll a trace up by span name."""
        stages: dict[str, StageStats] = {}
        for span in trace.walk():
            stages.setdefault(span.name, StageStats(span.name)).absorb(span)
        return cls(
            router=trace.router,
            design=trace.design,
            wall_seconds=trace.wall_seconds,
            cpu_seconds=trace.cpu_seconds,
            stages=stages,
            counters=trace.aggregate_counters(),
        )

    def rows(self) -> list[dict]:
        """Table rows (one per stage) for rendering."""
        out = []
        for stats in self.stages.values():
            out.append(
                {
                    "stage": stats.name,
                    "spans": stats.spans,
                    "wall_s": stats.wall_seconds,
                    "cpu_s": stats.cpu_seconds,
                    "counters": _kv_text(stats.counters),
                }
            )
        return out


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class DiffThresholds:
    """What :func:`diff_traces` treats as a regression.

    Attributes:
        wall_pct: percentage slowdown past which a stage (or the whole
            run) is a wall-time regression.
        min_wall_seconds: stages faster than this in **both** traces
            are skipped for wall comparison — sub-floor timings are
            dominated by measurement noise.
        include_wall: compare wall time at all.  Disable when the two
            traces come from different machines (e.g. a committed
            baseline checked on CI hardware), where only the
            deterministic counters are comparable.
    """

    wall_pct: float = 25.0
    min_wall_seconds: float = 0.1
    include_wall: bool = True


@dataclasses.dataclass(frozen=True)
class CounterDelta:
    """One counter whose whole-run total changed between two traces."""

    name: str
    old: Number
    new: Number

    @property
    def delta(self) -> Number:
        """Signed change (new − old)."""
        return self.new - self.old

    def describe(self) -> str:
        """One-line human description."""
        sign = "+" if self.delta >= 0 else ""
        return f"counter {self.name}: {self.old} -> {self.new} ({sign}{self.delta})"


@dataclasses.dataclass(frozen=True)
class TimingDelta:
    """Wall-time change of one stage (or the whole run)."""

    stage: str
    old: float
    new: float
    regression: bool

    @property
    def pct(self) -> float:
        """Percentage change relative to the old timing."""
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return 100.0 * (self.new - self.old) / self.old

    def describe(self) -> str:
        """One-line human description."""
        return (
            f"wall {self.stage}: {self.old:.3f}s -> {self.new:.3f}s "
            f"({self.pct:+.1f}%)"
        )


@dataclasses.dataclass
class TraceDiff:
    """Structured delta between two runs, as produced by :func:`diff_traces`.

    Attributes:
        old_label: label of the reference trace.
        new_label: label of the candidate trace.
        counter_deltas: every counter whose total changed (any change
            is a regression — counters are deterministic).
        timing_deltas: every compared stage timing, regressions and
            improvements alike.
        thresholds: the thresholds the diff was computed with.
    """

    old_label: str
    new_label: str
    counter_deltas: list[CounterDelta]
    timing_deltas: list[TimingDelta]
    thresholds: DiffThresholds

    @property
    def wall_regressions(self) -> list[TimingDelta]:
        """Stage timings past the regression threshold."""
        return [t for t in self.timing_deltas if t.regression]

    @property
    def ok(self) -> bool:
        """Whether the candidate shows no regression at all."""
        return not self.counter_deltas and not self.wall_regressions

    def regressions(self) -> list[str]:
        """Human-readable description of every regression."""
        out = [d.describe() for d in self.counter_deltas]
        out += [t.describe() for t in self.wall_regressions]
        return out


def diff_traces(
    old: RunTrace,
    new: RunTrace,
    thresholds: Optional[DiffThresholds] = None,
) -> TraceDiff:
    """Structured delta of ``new`` against the reference ``old``.

    Deterministic counters (whole-run totals) must match exactly; any
    drift becomes a :class:`CounterDelta`.  Wall time is compared per
    stage rollup plus the end-to-end total, flagging slowdowns past
    ``thresholds.wall_pct`` when the stage exceeds the noise floor.
    """
    thresholds = thresholds or DiffThresholds()
    old_counters = old.aggregate_counters()
    new_counters = new.aggregate_counters()
    counter_deltas = [
        CounterDelta(name, old_counters.get(name, 0), new_counters.get(name, 0))
        for name in sorted(old_counters.keys() | new_counters.keys())
        if old_counters.get(name, 0) != new_counters.get(name, 0)
    ]

    timing_deltas: list[TimingDelta] = []
    if thresholds.include_wall:
        old_stages = TraceSummary.from_trace(old).stages
        new_stages = TraceSummary.from_trace(new).stages
        pairs: list[tuple[str, float, float]] = [
            (
                name,
                old_stages[name].wall_seconds if name in old_stages else 0.0,
                new_stages[name].wall_seconds if name in new_stages else 0.0,
            )
            for name in {**old_stages, **new_stages}
        ]
        pairs.append(("(total)", old.wall_seconds, new.wall_seconds))
        for name, old_wall, new_wall in pairs:
            if max(old_wall, new_wall) < thresholds.min_wall_seconds:
                continue
            slow = new_wall > old_wall * (1.0 + thresholds.wall_pct / 100.0)
            timing_deltas.append(
                TimingDelta(name, old_wall, new_wall, regression=slow)
            )

    return TraceDiff(
        old_label=_trace_label(old),
        new_label=_trace_label(new),
        counter_deltas=counter_deltas,
        timing_deltas=timing_deltas,
        thresholds=thresholds,
    )


def _trace_label(trace: RunTrace) -> str:
    parts = [p for p in (trace.design, trace.router) if p]
    return "/".join(parts) or "(unlabeled)"


# ----------------------------------------------------------------------
# Hotspots
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Hotspot:
    """Aggregated self time of one span path.

    Attributes:
        path: slash-joined span names from the root (e.g.
            ``"pass2/detailed-route/ripup-round"``); repeats of the
            same path (negotiation rounds, levels) are merged.
        spans: number of spans merged into the entry.
        self_wall_seconds: wall time not attributed to child spans.
        wall_seconds: inclusive wall time.
    """

    path: str
    spans: int
    self_wall_seconds: float
    wall_seconds: float


def hotspots(trace: RunTrace, n: int = 10) -> list[Hotspot]:
    """The ``n`` span paths with the largest *self* wall time.

    Self time is a span's wall time minus its children's — inclusive
    times would rank every ancestor of the real hotspot above it.
    """
    merged: dict[str, Hotspot] = {}

    def visit(span: Span, prefix: str) -> None:
        path = f"{prefix}/{span.name}" if prefix else span.name
        child_wall = sum(c.wall_seconds for c in span.children)
        spot = merged.setdefault(path, Hotspot(path, 0, 0.0, 0.0))
        spot.spans += 1
        spot.self_wall_seconds += max(0.0, span.wall_seconds - child_wall)
        spot.wall_seconds += span.wall_seconds
        for child in span.children:
            visit(child, path)

    for span in trace.spans:
        visit(span, "")
    ranked = sorted(
        merged.values(), key=lambda h: h.self_wall_seconds, reverse=True
    )
    return ranked[: max(0, n)]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_summary(summary: TraceSummary, fmt: str = "plain") -> str:
    """Table view of a rollup (``fmt``: ``plain`` or ``markdown``)."""
    title = (
        f"{summary.design or '(design?)'} / {summary.router or '(router?)'}"
        f" — wall {summary.wall_seconds:.3f}s, cpu {summary.cpu_seconds:.3f}s"
    )
    columns = ["stage", "spans", "wall_s", "cpu_s", "counters"]
    return _render_rows(summary.rows(), columns, title, fmt, decimals=3)


def render_diff(diff: TraceDiff, fmt: str = "plain") -> str:
    """Table view of a diff, regressions first."""
    title = f"trace diff: {diff.old_label} -> {diff.new_label}"
    rows: list[dict] = []
    for delta in diff.counter_deltas:
        rows.append(
            {
                "kind": "counter",
                "name": delta.name,
                "old": delta.old,
                "new": delta.new,
                "change": f"{delta.delta:+}",
                "verdict": "REGRESSION",
            }
        )
    for timing in diff.timing_deltas:
        rows.append(
            {
                "kind": "wall",
                "name": timing.stage,
                "old": round(timing.old, 3),
                "new": round(timing.new, 3),
                "change": f"{timing.pct:+.1f}%",
                "verdict": "REGRESSION" if timing.regression else "ok",
            }
        )
    if not rows:
        return f"{title}\n(no differences)"
    columns = ["kind", "name", "old", "new", "change", "verdict"]
    return _render_rows(rows, columns, title, fmt, decimals=3)


def render_hotspots(spots: Sequence[Hotspot], fmt: str = "plain") -> str:
    """Table view of :func:`hotspots` output."""
    rows = [
        {
            "path": spot.path,
            "spans": spot.spans,
            "self_s": spot.self_wall_seconds,
            "total_s": spot.wall_seconds,
        }
        for spot in spots
    ]
    columns = ["path", "spans", "self_s", "total_s"]
    return _render_rows(rows, columns, "hotspots (self wall time)", fmt,
                        decimals=3)


def _render_rows(
    rows: list[dict],
    columns: list[str],
    title: str,
    fmt: str,
    decimals: int = 2,
) -> str:
    if fmt == "markdown":
        return _markdown_table(rows, columns, title, decimals)
    if fmt != "plain":
        raise ValueError(f"unknown format {fmt!r} (use 'plain' or 'markdown')")
    return format_table(rows, columns=columns, title=title, decimals=decimals)


def _markdown_table(
    rows: list[dict], columns: list[str], title: str, decimals: int
) -> str:
    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{decimals}f}"
        return "" if value is None else str(value)

    lines = [f"**{title}**", ""]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(cell(row.get(c)) for c in columns) + " |"
        )
    return "\n".join(lines)


def _kv_text(mapping: dict[str, Number]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(mapping.items()))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_trace_file(path: PathLike, key: Optional[str] = None) -> RunTrace:
    """Load a trace from any of the documents the repo produces.

    Accepts a bare ``repro-trace`` document (``RunTrace.save``), a
    ``repro-report`` document with an embedded trace
    (``repro.io.save_report``), a ``BENCH_*.json`` mapping of
    ``label -> trace`` (``benchmarks/common.py``) — for the latter pass
    ``key`` to pick the label (optional when there is exactly one) —
    or an NDJSON event stream (``.ndjson``), replayed into the trace
    its run finished with.  Any of these may be gzip-compressed
    (``.gz`` suffix); ``trace show/diff/top`` auto-detect through this
    loader.
    """
    name = pathlib.Path(path).name
    if name.endswith((".ndjson", ".ndjson.gz")):
        # Deferred import: stream.py imports nothing from here, but
        # keeping analytics import-light preserves the layering.
        from .stream import read_stream

        return read_stream(path)
    if name.endswith(".gz"):
        import gzip

        with gzip.open(path, "rt", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.loads(pathlib.Path(path).read_text())
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt == "repro-trace":
        return RunTrace.from_dict(data)
    if fmt == "repro-report":
        if "trace" not in data:
            raise ValueError(f"report {path} has no embedded trace")
        return RunTrace.from_dict(data["trace"])
    if isinstance(data, dict) and data and all(
        isinstance(v, dict) and v.get("format") == "repro-trace"
        for v in data.values()
    ):
        if key is None:
            if len(data) == 1:
                key = next(iter(data))
            else:
                raise ValueError(
                    f"{path} holds {sorted(data)}; pick one with --key "
                    "(key= in Python)"
                )
        if key not in data:
            raise ValueError(f"no trace {key!r} in {path} ({sorted(data)})")
        return RunTrace.from_dict(data[key])
    raise ValueError(f"{path} is not a trace, report, or BENCH document")


# ----------------------------------------------------------------------
# Perf history (committed benchmark artifacts -> trajectory report)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PerfHistory:
    """Perf-trajectory rollup of a directory of benchmark artifacts.

    Built by :func:`collect_perf_history` from the committed
    ``BENCH_<circuit>.json`` snapshots (per-router traces) and
    ``SPEEDUP_ENGINE_<circuit>.json`` (object vs. array engine walls).

    Attributes:
        directory: where the artifacts were collected from.
        bench_rows: one row per circuit x router label with wall/CPU
            seconds, stage walls and the deterministic work counters.
        engine_rows: one row per engine-speedup artifact.
    """

    directory: str
    bench_rows: list[dict]
    engine_rows: list[dict]

    @property
    def empty(self) -> bool:
        """Whether no artifact of either kind was found."""
        return not (self.bench_rows or self.engine_rows)


#: Deterministic whole-run counters worth tracking over time — the
#: schema registry's history ranking, which fixes the column order of
#: the committed trajectory reports.
_HISTORY_COUNTERS = history_counters()


def collect_perf_history(directory: PathLike) -> PerfHistory:
    """Ingest the benchmark artifacts of ``directory`` into a rollup.

    Files that do not parse as their expected schema are skipped (the
    directory may hold unrelated JSON); artifact sets may be partially
    present — an empty rollup is reported, not an error.
    """
    root = pathlib.Path(directory)
    bench_rows: list[dict] = []
    engine_rows: list[dict] = []

    for path in sorted(root.glob("BENCH_*.json")):
        circuit = path.stem[len("BENCH_"):]
        try:
            data = json.loads(path.read_text())
            traces = {
                label: RunTrace.from_dict(doc)
                for label, doc in sorted(data.items())
            }
        except (ValueError, KeyError, AttributeError):
            continue
        for label, trace in traces.items():
            stages = TraceSummary.from_trace(trace).stages
            counters = trace.aggregate_counters()
            row = {
                "circuit": circuit,
                "router": label,
                "wall_s": round(trace.wall_seconds, 3),
                "cpu_s": round(trace.cpu_seconds, 3),
                "global_s": round(
                    stages["global-route"].wall_seconds
                    if "global-route" in stages else 0.0, 3
                ),
                "detail_s": round(
                    stages["detailed-route"].wall_seconds
                    if "detailed-route" in stages else 0.0, 3
                ),
            }
            for name in _HISTORY_COUNTERS:
                row[name] = counters.get(name, 0)
            bench_rows.append(row)

    for path in sorted(root.glob("SPEEDUP_ENGINE_*.json")):
        try:
            data = json.loads(path.read_text())
            engine_rows.append(
                {
                    "circuit": data["circuit"],
                    "scale": data.get("scale", ""),
                    "object_s": data["object_wall_seconds"],
                    "array_s": data["array_wall_seconds"],
                    "speedup": data["speedup"],
                    "repeats": data.get("repeats", ""),
                }
            )
        except (ValueError, KeyError, TypeError):
            continue

    return PerfHistory(
        directory=str(root),
        bench_rows=bench_rows,
        engine_rows=engine_rows,
    )


def render_perf_history(history: PerfHistory, fmt: str = "plain") -> str:
    """Table view of a :class:`PerfHistory` (``plain`` or ``markdown``)."""
    if history.empty:
        return f"no benchmark artifacts under {history.directory}"
    sections: list[str] = []
    if history.bench_rows:
        columns = ["circuit", "router", "wall_s", "cpu_s", "global_s",
                   "detail_s", *_HISTORY_COUNTERS]
        sections.append(
            _render_rows(
                history.bench_rows, columns,
                f"benchmark snapshots ({history.directory})", fmt, decimals=3,
            )
        )
    if history.engine_rows:
        columns = ["circuit", "scale", "object_s", "array_s", "speedup",
                   "repeats"]
        sections.append(
            _render_rows(
                history.engine_rows, columns,
                "engine speedups (object vs array)", fmt, decimals=3,
            )
        )
    return "\n\n".join(sections)
