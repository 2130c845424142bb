"""The canonical metric schema registry, proven complete on live runs.

Two halves:

* registry invariants — the API contracts other tooling builds on
  (history ordering for analytics, strip-prefix queries for the
  regression gate, prefix discipline at import time);
* live completeness — S9234 at the regression-gate scale is routed
  under four configurations (serial, thread pool, sanitizer, counter
  profiling) and **every** counter, gauge, span, and progress kind the
  run emits must be registered with backend coverage that includes the
  run's own engine/executor tags.  A new
  metric emitted anywhere in the engine fails here until it is
  declared in :mod:`repro.observe.schema`.
"""

import io
import json

import pytest

from repro.benchmarks_gen import mcnc_design
from repro.config import RouterConfig, resolve_engine
from repro.api import StitchAwareRouter
from repro.observe import StreamingTracer, schema

CIRCUIT, SCALE = "S9234", 0.02

#: The four live configurations the completeness gate covers.
CONFIGS = {
    "serial": {},
    # profile="full" turns on progress events, so the parallel run
    # also proves the "net"/"task" progress kinds are registered.
    "thread4": {"workers": 4, "profile": "full"},
    "sanitize": {"sanitize": True},
    "profile": {"profile": "counters"},
}


# ----------------------------------------------------------------------
# Registry invariants
# ----------------------------------------------------------------------
class TestRegistryInvariants:
    def test_lookup_roundtrip(self):
        spec = schema.lookup("counter", "maze_expansions")
        assert spec.name == "maze_expansions"
        assert spec.kind == "counter"
        assert "global" in spec.stages

    def test_lookup_unknown_returns_none(self):
        assert schema.lookup("counter", "no_such_counter") is None

    def test_is_registered(self):
        assert schema.is_registered("span", "detailed-route")
        assert not schema.is_registered("gauge", "detailed-route")

    def test_every_spec_is_well_formed(self):
        for spec in schema.metric_specs():
            assert spec.name and spec.description
            assert spec.kind in schema.KINDS
            assert spec.backends and spec.backends <= schema.ALL_BACKENDS
            assert spec.stages

    def test_history_counters_order(self):
        # The analytics history table renders in this exact order.
        assert schema.history_counters() == (
            "maze_expansions",
            "astar_searches",
            "astar_expansions",
            "ripup_rounds",
            "failed_nets",
        )

    def test_strip_prefixes(self):
        assert schema.strip_prefixes("scheduling") == ("parallel_",)
        assert set(schema.strip_prefixes("profiling", "streaming")) == {
            "perf_",
            "stream_",
        }

    def test_strip_prefixes_unknown_category_raises(self):
        with pytest.raises(ValueError, match="no strippable category"):
            schema.strip_prefixes("nonsense")

    def test_prefix_discipline(self):
        # Prefixed names carry the category their prefix promises, so
        # strip_prefixes() queries select exactly the right metrics.
        for spec in schema.metric_specs():
            for category, prefixes in schema.CATEGORY_PREFIXES.items():
                if any(spec.name.startswith(p) for p in prefixes):
                    assert spec.category == category, spec.name

    def test_metric_names_filters(self):
        scheduling = schema.metric_names("counter", category="scheduling")
        assert all(n.startswith("parallel_") for n in scheduling)
        assert "parallel_tasks" in schema.metric_names(
            "counter", backend="thread"
        )
        assert "parallel_tasks" not in schema.metric_names(
            "counter", backend="serial"
        )


# ----------------------------------------------------------------------
# Live completeness across the four configurations
# ----------------------------------------------------------------------
_RUNS: dict = {}


def run(name):
    """Route S9234 once per configuration; cache across tests."""
    if name not in _RUNS:
        sink = io.StringIO()
        tracer = StreamingTracer(sink)
        config = RouterConfig(**CONFIGS[name])
        design = mcnc_design(CIRCUIT, SCALE)
        result = StitchAwareRouter(config=config).route(
            design, tracer=tracer
        )
        progress_kinds = {
            event["kind"]
            for event in map(json.loads, sink.getvalue().splitlines())
            if event.get("ev") == "progress"
        }
        _RUNS[name] = (config, result.trace, progress_kinds)
    return _RUNS[name]


def backend_tags(config):
    """The engine/executor tags this configuration runs under."""
    engine = resolve_engine(config.engine).value
    if config.workers == 1:
        return {engine, "serial"}
    return {engine, "thread"}


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestLiveCompleteness:
    def test_every_span_is_registered(self, name):
        _, trace, _ = run(name)
        for span in trace.walk():
            assert schema.is_registered("span", span.name), span.name

    def test_every_counter_is_registered_with_coverage(self, name):
        config, trace, _ = run(name)
        tags = backend_tags(config)
        emitted = dict(trace.counters)
        for span in trace.walk():
            emitted.update(span.counters)
        assert emitted, "run recorded no counters at all"
        for counter in emitted:
            assert schema.is_registered("counter", counter), counter
            spec = schema.lookup("counter", counter)
            assert tags <= spec.backends, (
                f"{counter}: emitted under {sorted(tags)} but schema "
                f"declares {sorted(spec.backends)}"
            )

    def test_every_gauge_is_registered_with_coverage(self, name):
        config, trace, _ = run(name)
        tags = backend_tags(config)
        for span in trace.walk():
            for gauge in span.gauges:
                assert schema.is_registered("gauge", gauge), gauge
                spec = schema.lookup("gauge", gauge)
                assert tags <= spec.backends, gauge

    def test_every_progress_kind_is_registered(self, name):
        _, _, progress_kinds = run(name)
        for kind in progress_kinds:
            assert schema.is_registered("progress", kind), kind

    def test_expected_coverage_actually_exercised(self, name):
        # Guard against the gate silently passing because a config
        # stopped emitting: each configuration must produce the
        # signals it exists to cover.
        config, trace, progress_kinds = run(name)
        counters = trace.aggregate_counters()
        if name == "profile":
            assert any(c.startswith("perf_") for c in counters)
        if name == "sanitize":
            assert any(c.startswith("sanitize_") for c in counters)
        if name == "thread4":
            assert any(c.startswith("parallel_") for c in counters)
            assert "task" in progress_kinds
