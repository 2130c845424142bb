"""Object vs array global routing through the negotiation rounds.

The gate circuits converge before the first history bump, so the gate
differential never drives the array engine's cost caches and state
mirrors through a rebuild.  These congestion-stressed instances do:
each runs all eight negotiation rounds, and every round bumps history,
rebuilds the caches and rips up and re-routes its victims.  Both
engines must agree on every route, failed net, demand and history
entry, counter and per-round gauge.
"""

import numpy as np
import pytest

from repro.benchmarks_gen import mcnc_stress_design
from repro.globalroute import GlobalGraph, GlobalRouter
from repro.observe import Tracer

CASES = {
    "S15850-stitch-aware": ("S15850", 0.15, True),
    "S13207-baseline": ("S13207", 0.3, False),
}


def route(design, stitch_aware, engine):
    tracer = Tracer()
    router = GlobalRouter(stitch_aware=stitch_aware, engine=engine)
    result = router.route(design, tracer=tracer)
    return result, tracer.finish(router="GlobalRouter", design=design.name)


def span_records(trace):
    """Every span's name, counters and gauges (wall times left out)."""
    return [(s.name, s.counters, s.gauges) for s in trace.walk()]


@pytest.mark.parametrize("case", sorted(CASES))
def test_negotiation_rounds_identical_across_engines(case):
    circuit, scale, stitch_aware = CASES[case]
    design = mcnc_stress_design(circuit, scale=scale)
    obj, obj_trace = route(design, stitch_aware, "object")
    arr, arr_trace = route(design, stitch_aware, "array")

    rounds = [s for s in arr_trace.walk() if s.name == "negotiation-round"]
    assert len(rounds) == GlobalRouter().ripup_rounds
    assert all(s.counters["ripup_victims"] > 0 for s in rounds)

    assert {n: r.paths for n, r in obj.routes.items()} == {
        n: r.paths for n, r in arr.routes.items()
    }
    assert list(obj.routes) == list(arr.routes)
    assert obj.failed == arr.failed
    for key in GlobalGraph._SHARED_STATE_KEYS:
        assert np.array_equal(getattr(obj.graph, key), getattr(arr.graph, key)), key
    assert span_records(obj_trace) == span_records(arr_trace)
