"""Production vs reference global routing through the negotiation rounds.

The gate circuits converge before the first history bump, so the gate
differential never drives the global graph's cost caches through a
wholesale re-pricing.  These congestion-stressed instances do: each
runs all eight negotiation rounds, and every round bumps history,
re-prices the caches and rips up and re-routes its victims.  A run
whose maze is monkeypatched to the reference
(``tests/engine/reference.py``) must agree with the production run on
every route, failed net, demand and history entry, counter and
per-round gauge.
"""

import numpy as np
import pytest

from repro.benchmarks_gen import mcnc_stress_design
from repro.globalroute import GlobalRouter
from repro.globalroute.router import RIPUP_ROUNDS
from repro.observe import Tracer
from tests.engine import reference

CASES = {
    "S15850-stitch-aware": ("S15850", 0.15, True),
    "S13207-baseline": ("S13207", 0.3, False),
}


def route(design, stitch_aware):
    tracer = Tracer()
    router = GlobalRouter(stitch_aware=stitch_aware)
    result = router.route(design, tracer=tracer)
    return result, tracer.finish(router="GlobalRouter", design=design.name)


def span_records(trace):
    """Every span's name, counters and gauges (wall times left out)."""
    return [(s.name, s.counters, s.gauges) for s in trace.walk()]


@pytest.mark.parametrize("case", sorted(CASES))
def test_negotiation_rounds_identical_across_engines(case, monkeypatch):
    circuit, scale, stitch_aware = CASES[case]
    design = mcnc_stress_design(circuit, scale=scale)
    prod, prod_trace = route(design, stitch_aware)
    monkeypatch.setattr(
        GlobalRouter, "_astar_in_window", reference.astar_in_window
    )
    ref, ref_trace = route(design, stitch_aware)

    rounds = [s for s in prod_trace.walk() if s.name == "negotiation-round"]
    assert len(rounds) == RIPUP_ROUNDS
    assert all(s.counters["ripup_victims"] > 0 for s in rounds)

    assert {n: r.paths for n, r in prod.routes.items()} == {
        n: r.paths for n, r in ref.routes.items()
    }
    assert list(prod.routes) == list(ref.routes)
    assert prod.failed == ref.failed
    for key in ("h_demand", "v_demand", "vertex_demand"):
        assert np.array_equal(getattr(prod.graph, key), getattr(ref.graph, key)), key
    for key in ("_h_hist", "_v_hist", "_t_hist"):
        assert getattr(prod.graph, key) == getattr(ref.graph, key), key
    assert span_records(prod_trace) == span_records(ref_trace)
