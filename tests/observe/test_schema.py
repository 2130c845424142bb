"""The canonical metric schema registry, proven complete on live runs.

Two halves:

* registry invariants — the API contracts other tooling builds on
  (history ordering for analytics, the strip prefix of the
  regression gate, prefix discipline at import time);
* live completeness — S9234 at the regression-gate scale is routed,
  streamed, under both profile levels, and **every** counter, gauge,
  span, and progress kind the run emits must be registered.  A new
  metric emitted anywhere in the router fails here until it is
  declared in :mod:`repro.observe.schema`.
"""

import io
import json

import pytest

from repro.benchmarks_gen import mcnc_design
from repro.config import RouterConfig
from repro.api import StitchAwareRouter
from repro.observe import StreamWriter, Tracer, schema

CIRCUIT, SCALE = "S9234", 0.02

#: The live configurations the completeness gate covers.  Every run
#: streams, so each also proves the "net" progress kind is registered.
CONFIGS = {
    "serial": {},
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
        # The one strippable namespace: what the regression gate scrubs.
        assert schema.PROFILING_PREFIX == "perf_"
        assert not schema.metric_names(category="streaming")

    def test_prefix_discipline(self):
        # Prefixed names carry the category their prefix promises, so
        # the gate's prefix scrub selects exactly the profiling metrics.
        for spec in schema.metric_specs():
            if spec.name.startswith(schema.PROFILING_PREFIX):
                assert spec.category == "profiling", spec.name

    def test_discipline_check_rejects_stray_perf_name(self, monkeypatch):
        stray = schema.MetricSpec(
            name="perf_stray", kind="counter",
            stages=frozenset({"global"}), category="routing",
        )
        registry = dict(schema._REGISTRY)
        registry[("counter", "perf_stray")] = stray
        monkeypatch.setattr(schema, "_REGISTRY", registry)
        with pytest.raises(ValueError, match="perf_stray"):
            schema._check_prefix_discipline()

    def test_metric_names_filters(self):
        profiling = schema.metric_names("counter", category="profiling")
        assert profiling and all(n.startswith("perf_") for n in profiling)
        assert "perf_cache_refreshes" in profiling


# ----------------------------------------------------------------------
# Live completeness across the configurations
# ----------------------------------------------------------------------
_RUNS: dict = {}


def run(name):
    """Route S9234 once per configuration; cache across tests."""
    if name not in _RUNS:
        sink = io.StringIO()
        tracer = Tracer([StreamWriter(sink)])
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestLiveCompleteness:
    def test_every_span_is_registered(self, name):
        _, trace, _ = run(name)
        for span in trace.walk():
            assert schema.is_registered("span", span.name), span.name

    def test_every_counter_is_registered_with_coverage(self, name):
        _, trace, _ = run(name)
        emitted = dict(trace.counters)
        for span in trace.walk():
            emitted.update(span.counters)
        assert emitted, "run recorded no counters at all"
        for counter in emitted:
            assert schema.is_registered("counter", counter), counter

    def test_every_gauge_is_registered_with_coverage(self, name):
        _, trace, _ = run(name)
        for span in trace.walk():
            for gauge in span.gauges:
                assert schema.is_registered("gauge", gauge), gauge

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
        assert "net" in progress_kinds
