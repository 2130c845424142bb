"""Differential harness: the production kernels must equal the reference.

``tests/engine/reference.py`` holds a tuple-node detailed A* and a
tuple-state global maze written straight from the paper's cost model.
For every gate circuit, a flow whose two kernels are monkeypatched to
the references must produce a serialized
:class:`~repro.eval.RoutingReport` byte-identical to the production
flow's (after stripping wall times), with the same spans, counters and
gauges.  The production solutions must additionally survive the
independent geometry audit — identical counters from two kernels
sharing a bug would otherwise go unnoticed.
"""

import io
import json

import pytest

import repro.detailed.router as detailed_router
from repro.analysis import audit_solution
from repro.api import RouterConfig, StitchAwareRouter
from repro.benchmarks_gen import mcnc_design
from repro.globalroute import GlobalRouter
from repro.io import report_to_dict
from repro.observe import StreamWriter, Tracer
from tests.engine import reference

CIRCUITS = {"S9234": 0.02, "S5378": 0.02, "S13207": 0.02}

#: The one name per stage (global, detailed) a run's kernel is looked
#: up by, and its reference replacement.
KERNELS = (
    (GlobalRouter, "_astar_in_window", reference.astar_in_window),
    (detailed_router, "astar_connect", reference.astar_connect),
)


def use_reference(monkeypatch):
    """Route both stages on the reference kernels."""
    for owner, name, kernel in KERNELS:
        monkeypatch.setattr(owner, name, kernel)


def route_flow(circuit, scale, tracer=None, **config_kwargs):
    design = mcnc_design(circuit, scale)
    router = StitchAwareRouter(config=RouterConfig(**config_kwargs))
    return router.route(design, tracer=tracer)


def canonical_report(flow):
    doc = report_to_dict(flow.report)
    # Wall times are the only sanctioned difference.
    doc.pop("cpu_seconds", None)
    doc.pop("trace", None)
    return json.dumps(doc, sort_keys=True).encode()


def span_records(trace):
    """Every span's name, counters and gauges (wall times left out)."""
    return [(s.name, s.counters, s.gauges) for s in trace.walk()]


def assert_identical(production, ref):
    assert canonical_report(production) == canonical_report(ref)
    assert production.trace.meta == ref.trace.meta
    assert span_records(production.trace) == span_records(ref.trace)
    assert (
        production.trace.aggregate_counters()
        == ref.trace.aggregate_counters()
    )


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
class TestEngineEquivalence:
    def test_serial_reports_byte_identical(self, circuit, monkeypatch):
        scale = CIRCUITS[circuit]
        production = route_flow(circuit, scale)
        use_reference(monkeypatch)
        assert_identical(production, route_flow(circuit, scale))

    def test_array_solution_survives_independent_audit(self, circuit):
        flow = route_flow(circuit, CIRCUITS[circuit])
        report = audit_solution(
            flow.detailed_result, flow.report, flow.global_result
        )
        assert report.ok, [f.message for f in report.findings]


class TestProfiledEquivalence:
    """The contract survives profiling: perf_* counters are additive.

    Under ``RouterConfig(profile="counters")`` the routing counters
    still match exactly, and so do the heap counters: the production
    searches derive their pushes from the heap invariant, the
    references count every push.
    """

    def test_profiled_reports_byte_identical(self, monkeypatch):
        production = route_flow("S9234", 0.02, profile="counters")
        use_reference(monkeypatch)
        ref = route_flow("S9234", 0.02, profile="counters")
        # assert_identical covers the perf_* heap counters too; make
        # sure they were recorded at all.
        assert_identical(production, ref)
        assert production.trace.meta["profile"] == "counters"
        counters = production.trace.aggregate_counters()
        for name in (
            "perf_maze_heap_pushes",
            "perf_maze_heap_pops",
            "perf_heap_pushes",
            "perf_heap_pops",
        ):
            assert counters[name] > 0, name

    def test_profiled_routing_counters_match_unprofiled(self):
        plain = route_flow("S5378", 0.02)
        profiled = route_flow("S5378", 0.02, profile="counters")
        routing = {
            k: v
            for k, v in profiled.trace.aggregate_counters().items()
            if not k.startswith("perf_")
        }
        assert routing == plain.trace.aggregate_counters()

    def test_streamed_run_keeps_byte_identity(self, monkeypatch):
        # A listener sees every progress event; emitting them must
        # not perturb routing.
        sink = io.StringIO()
        production = route_flow(
            "S5378", 0.02, tracer=Tracer([StreamWriter(sink)])
        )
        assert '"kind":"net"' in sink.getvalue()
        use_reference(monkeypatch)
        assert_identical(production, route_flow("S5378", 0.02))
