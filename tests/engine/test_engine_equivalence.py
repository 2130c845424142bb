"""Differential harness: the array engine must equal the object engine.

The byte-identity contract of ``RouterConfig(engine=...)`` (see
``docs/performance.md``): for every circuit, the array core produces a
serialized :class:`~repro.eval.RoutingReport` byte-identical to the
object engine's (after stripping wall-time fields) and every
deterministic trace counter matches exactly.  The array solutions must additionally
survive the independent geometry audit — identical counters from two
engines sharing a bug would otherwise go unnoticed.
"""

import json

import pytest

from repro.analysis import audit_solution
from repro.api import RouterConfig, StitchAwareRouter
from repro.benchmarks_gen import mcnc_design
from repro.io import report_to_dict

CIRCUITS = {"S9234": 0.02, "S5378": 0.02, "S13207": 0.02}


def route_flow(circuit, scale, **config_kwargs):
    design = mcnc_design(circuit, scale)
    router = StitchAwareRouter(config=RouterConfig(**config_kwargs))
    return router.route(design)


def canonical_report(flow):
    doc = report_to_dict(flow.report)
    # Wall times are the only sanctioned cross-engine difference.
    doc.pop("cpu_seconds", None)
    doc.pop("trace", None)
    return json.dumps(doc, sort_keys=True).encode()


def assert_counters_match(object_trace, array_trace):
    assert (
        object_trace.aggregate_counters() == array_trace.aggregate_counters()
    )


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
class TestEngineEquivalence:
    def test_serial_reports_byte_identical(self, circuit):
        scale = CIRCUITS[circuit]
        obj = route_flow(circuit, scale, engine="object")
        arr = route_flow(circuit, scale, engine="array")
        assert canonical_report(obj) == canonical_report(arr)
        assert_counters_match(obj.trace, arr.trace)
        assert obj.trace.meta["engine"] == "object"
        assert arr.trace.meta["engine"] == "array"

    def test_array_solution_survives_independent_audit(self, circuit):
        scale = CIRCUITS[circuit]
        arr = route_flow(circuit, scale, engine="array")
        report = audit_solution(
            arr.detailed_result, arr.report, arr.global_result
        )
        assert report.ok, [f.message for f in report.findings]


def test_auto_engine_resolves_to_array_when_numpy_present():
    pytest.importorskip("numpy")
    flow = route_flow("S9234", 0.02, engine="auto")
    assert flow.trace.meta["engine"] == "array"


class TestProfiledEquivalence:
    """The contract survives profiling: perf_* counters are additive.

    ``RouterConfig(profile="counters")`` instruments both engines; the
    differential promise extends to it in two parts — the routing
    counters still match exactly (strip ``perf_*``), and the ``perf_*``
    counters the
    engines share (heap traffic is step-identical by construction)
    must agree with each other too.
    """

    def test_profiled_reports_byte_identical(self):
        obj = route_flow("S9234", 0.02, engine="object", profile="counters")
        arr = route_flow("S9234", 0.02, engine="array", profile="counters")
        assert canonical_report(obj) == canonical_report(arr)
        assert obj.trace.meta["profile"] == "counters"
        for name in (
            "perf_maze_heap_pushes",
            "perf_maze_heap_pops",
            "perf_heap_pushes",
            "perf_heap_pops",
        ):
            assert (
                obj.trace.aggregate_counters()[name]
                == arr.trace.aggregate_counters()[name]
            ), name

    def test_profiled_routing_counters_match_unprofiled(self):
        plain = route_flow("S5378", 0.02, engine="array")
        profiled = route_flow(
            "S5378", 0.02, engine="array", profile="counters"
        )
        routing = {
            k: v
            for k, v in profiled.trace.aggregate_counters().items()
            if not k.startswith("perf_")
        }
        assert routing == plain.trace.aggregate_counters()

    def test_full_profile_keeps_byte_identity(self):
        obj = route_flow("S5378", 0.02, engine="object", profile="full")
        arr = route_flow("S5378", 0.02, engine="array", profile="full")
        assert canonical_report(obj) == canonical_report(arr)
