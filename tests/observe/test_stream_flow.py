"""Flow-level streaming contracts: replay identity and profile purity.

Four promises from ``docs/observability.md`` are proven on a real
gate circuit (S9234 at the regression-gate scale):

* a streamed run's NDJSON events replay into a :class:`RunTrace`
  byte-identical to the trace the run itself froze;
* streaming adds nothing to the trace: a streamed run's counters equal
  an unstreamed run's, with no stripping;
* ``profile="off"`` leaves the trace byte-compatible with the
  committed (pre-profiling) baselines — zero-cost means *invisible*;
* ``profile="counters"`` adds only ``perf_*`` counters: stripping them
  recovers the off-mode trace exactly.
"""

import json
import pathlib

import pytest

from repro.benchmarks_gen import mcnc_design
from repro.config import RouterConfig
from repro.api import StitchAwareRouter
from repro.observe import StreamWriter, Tracer, read_stream

CIRCUIT, SCALE = "S9234", 0.02
BASELINE = (
    pathlib.Path(__file__).parents[2]
    / "benchmarks"
    / "baselines"
    / f"BENCH_{CIRCUIT}.json"
)


def route(profile="off", tracer=None):
    design = mcnc_design(CIRCUIT, SCALE)
    config = RouterConfig(profile=profile)
    return StitchAwareRouter(config=config).route(design, tracer=tracer)


def strip_instrumentation(counters):
    return {k: v for k, v in counters.items() if not k.startswith("perf_")}


class TestReplayIdentity:
    def test_streamed_run_replays_byte_identical(self, tmp_path):
        path = tmp_path / "run.ndjson"
        flow = route(tracer=Tracer([StreamWriter(path)]))
        assert flow.trace is not None
        assert read_stream(path).to_json() == flow.trace.to_json()

    def test_streaming_adds_no_counter(self, tmp_path):
        streamed = route(
            tracer=Tracer([StreamWriter(tmp_path / "run.ndjson")])
        )
        plain = route()
        assert streamed.trace is not None and plain.trace is not None
        assert (
            streamed.trace.aggregate_counters()
            == plain.trace.aggregate_counters()
        )
        assert streamed.trace.counters == plain.trace.counters
        assert streamed.trace.meta == plain.trace.meta


class TestProfileOffIsInvisible:
    def test_off_matches_committed_baseline_counters(self):
        flow = route(profile="off")
        assert flow.trace is not None
        baseline = json.loads(BASELINE.read_text())["stitch-aware"]
        fresh = flow.trace.to_dict()
        # Timestamps are machine-bound; the deterministic shape (span
        # tree, counters, gauges, meta) must match byte for byte.
        def deterministic(doc):
            def scrub(span):
                span = dict(span)
                span.pop("wall_seconds", None)
                span.pop("cpu_seconds", None)
                span.pop("started_at", None)
                span["children"] = [
                    scrub(c) for c in span.get("children", ())
                ]
                return span

            return {
                "router": doc["router"],
                "design": doc["design"],
                "counters": doc["counters"],
                "meta": doc.get("meta", {}),
                "spans": [scrub(s) for s in doc["spans"]],
            }

        assert deterministic(fresh) == deterministic(baseline)

    def test_off_records_no_perf_counters(self):
        flow = route(profile="off")
        assert flow.trace is not None
        agg = flow.trace.aggregate_counters()
        assert not [k for k in agg if k.startswith("perf_")]
        assert "profile" not in flow.trace.meta


class TestCountersModeIsPure:
    @pytest.mark.parametrize("profile", ["counters"])
    def test_stripping_recovers_off_mode(self, profile):
        off = route(profile="off")
        profiled = route(profile=profile)
        assert off.trace is not None and profiled.trace is not None
        assert strip_instrumentation(
            profiled.trace.aggregate_counters()
        ) == off.trace.aggregate_counters()

    def test_counters_mode_actually_counts(self):
        flow = route(profile="counters")
        assert flow.trace is not None
        agg = flow.trace.aggregate_counters()
        assert agg.get("perf_heap_pushes", 0) > 0
        assert agg.get("perf_heap_pops", 0) > 0
        assert agg.get("perf_maze_heap_pops", 0) > 0
        assert flow.trace.meta["profile"] == "counters"
