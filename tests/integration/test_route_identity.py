"""The route-identity fingerprint of ``benchmarks/route_identity.py``.

Two routes of one instance must give the same digests, and a single
moved edge (of a flow) or tile (of a global route) must change the
route digest and no other.
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.api import RouterConfig, StitchAwareRouter
from repro.benchmarks_gen import mcnc_design, mcnc_stress_design
from repro.globalroute import GlobalRouter
from repro.observe import Tracer

REPO = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO / "benchmarks" / "route_identity.py"


@pytest.fixture(scope="module")
def route_identity():
    spec = importlib.util.spec_from_file_location("route_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["route_identity"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("route_identity", None)


def route():
    config = RouterConfig(profile="counters")
    return StitchAwareRouter(config=config).route(mcnc_design("S9234", 0.02))


def test_two_routes_give_the_same_digests(route_identity):
    first = route_identity.flow_digests(route())
    assert first == route_identity.flow_digests(route())
    assert all(len(digest) == 64 for digest in first)


def test_moving_one_edge_changes_the_routing_digest(route_identity):
    flow = route()
    routes, counters, perf = route_identity.flow_digests(flow)
    net = next(n for _, n in sorted(flow.detailed_result.nets.items()) if n.edges)
    edge = min(net.edges)
    (ax, ay, al), (bx, by, bl) = edge
    # The same edge one row up: same length, same axis, other place.
    net.edges = (net.edges - {edge}) | {((ax, ay + 1, al), (bx, by + 1, bl))}
    moved = route_identity.flow_digests(flow)
    assert moved[0] != routes
    assert moved[1:] == (counters, perf)


def global_route():
    """A stressed global route that runs all its negotiation rounds."""
    tracer = Tracer()
    router = GlobalRouter(profile="counters")
    result = router.route(mcnc_stress_design("S15850", 0.15), tracer=tracer)
    return result, tracer.finish(router="GlobalRouter")


def test_two_global_routes_give_the_same_digests(route_identity):
    first = route_identity.global_digests(*global_route())
    assert first == route_identity.global_digests(*global_route())
    assert all(len(digest) == 64 for digest in first)


def test_moving_one_tile_changes_the_global_routes_digest(route_identity):
    result, trace = global_route()
    routes, counters, perf = route_identity.global_digests(result, trace)
    path = next(
        p for _, r in sorted(result.routes.items()) for p in r.paths if len(p) > 2
    )
    i, j = path[1]
    path[1] = (i + 1, j)
    moved = route_identity.global_digests(result, trace)
    assert moved[0] != routes
    assert moved[1:] == (counters, perf)
