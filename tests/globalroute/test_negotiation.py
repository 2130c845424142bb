"""Tests for negotiated rip-up behaviour in global routing."""

import pytest

from repro.benchmarks_gen import mcnc_stress_design
from repro.globalroute import GlobalGraph, GlobalRouter, edge_cost_if_used
from repro.globalroute.cost import vertex_price
from repro.observe import Tracer
from tests.globalroute.test_router import design_with_nets, two_pin

#: The two congestion-stressed instances of
#: ``tests/engine/test_global_negotiation.py``, pinned pass by pass.
#: Per pass (the initial pass, then the eight negotiation rounds):
#: ``(edge_overflow, vertex_overflow, ripup_victims, maze_expansions)``;
#: then the final ``(TVOF, MVOF, edge overflow)``.
PINNED_ROUNDS = {
    "S15850-stitch-aware": (
        ("S15850", 0.15, True),
        [
            (0, 4, 0, 7557),
            (0, 4, 35, 765),
            (0, 4, 34, 763),
            (0, 4, 44, 1133),
            (0, 4, 41, 1033),
            (0, 4, 35, 843),
            (0, 4, 32, 1149),
            (0, 4, 24, 728),
            (0, 4, 31, 1051),
        ],
        (4, 1, 0),
    ),
    "S13207-baseline": (
        ("S13207", 0.3, False),
        [
            (11, 314, 0, 15703),
            (10, 316, 83, 1807),
            (11, 317, 76, 1718),
            (12, 334, 96, 2421),
            (12, 330, 109, 2753),
            (5, 324, 95, 2601),
            (5, 324, 52, 1305),
            (6, 327, 58, 1573),
            (8, 328, 68, 2136),
        ],
        (328, 9, 8),
    ),
}


class TestNegotiation:
    def test_history_grows_only_on_overflow(self):
        design = design_with_nets([two_pin("a", (1, 1), (55, 40))])
        graph = GlobalGraph(design)
        graph.add_edge_demand(("v", 1, 0), graph.edge_capacity(("v", 1, 0)) + 1)
        graph.add_vertex_demand((1, 0), int(graph.vertex_capacity[1, 0]) + 1)
        edge = edge_cost_if_used(graph, ("v", 1, 0))
        vertex = vertex_price(graph, (1, 0))
        idle = edge_cost_if_used(graph, ("h", 0, 0))
        graph.bump_history(line_ends=True)
        # A bump adds 0.5 to the price of each overflowed resource.
        assert edge_cost_if_used(graph, ("v", 1, 0)) == pytest.approx(edge + 0.5)
        assert vertex_price(graph, (1, 0)) == pytest.approx(vertex + 0.5)
        assert edge_cost_if_used(graph, ("h", 0, 0)) == idle

    def test_baseline_ignores_vertex_history(self):
        design = design_with_nets([two_pin("a", (1, 1), (55, 40))])
        graph = GlobalGraph(design)
        graph.add_vertex_demand((1, 0), int(graph.vertex_capacity[1, 0]) + 1)
        vertex = vertex_price(graph, (1, 0))
        graph.bump_history(line_ends=False)
        assert vertex_price(graph, (1, 0)) == vertex

    def test_overflow_victims_detection(self):
        design = design_with_nets(
            [two_pin("a", (1, 1), (55, 1)), two_pin("b", (1, 20), (55, 20))]
        )
        router = GlobalRouter(stitch_aware=True)
        result = router.route(design)
        graph = result.graph
        # Force an artificial overflow on an edge net "a" uses.
        path = result.routes["a"].paths[0]
        key = graph.edge_between(path[0], path[1])
        graph.add_edge_demand(key, graph.edge_capacity(key))
        victims = router._overflow_victims(graph, result.routes)
        assert "a" in victims

    def test_zero_capacity_edges_avoided(self):
        """A fully blocked column boundary forces a detour."""
        design = design_with_nets([two_pin("a", (1, 1), (55, 1))])
        router = GlobalRouter(stitch_aware=True)
        graph = GlobalGraph(design)
        # Saturate the boundary between columns 1 and 2 at row 0
        # (through the mutator, which keeps the search's cost cache
        # in step with the demand array).
        graph.add_edge_demand(("h", 1, 0), int(graph.h_capacity[1, 0]) * 3)
        window = (0, 0, graph.nx - 1, graph.ny - 1)
        path = router._astar_in_window(graph, (0, 0), (3, 0), window, {})
        assert path is not None
        assert not any(
            graph.edge_between(a, b) == ("h", 1, 0)
            for a, b in zip(path, path[1:])
        )

    @pytest.mark.parametrize("case", sorted(PINNED_ROUNDS))
    def test_rounds_pinned(self, case):
        """The history bump and the victim scan, round by round.

        The gate circuits converge before the first history bump, and
        the differential of ``tests/engine/test_global_negotiation.py``
        shares both with the production run, so only these literals
        catch a change to either.
        """
        (circuit, scale, stitch_aware), passes, final = PINNED_ROUNDS[case]
        design = mcnc_stress_design(circuit, scale=scale)
        tracer = Tracer()
        result = GlobalRouter(stitch_aware=stitch_aware).route(
            design, tracer=tracer
        )
        trace = tracer.finish(router="GlobalRouter", design=design.name)
        assert [
            (
                span.gauges["edge_overflow"],
                span.gauges["vertex_overflow"],
                span.counters.get("ripup_victims", 0),
                span.counters["maze_expansions"],
            )
            for span in trace.walk()
            if span.name in ("initial-pass", "negotiation-round")
        ] == passes
        assert (
            result.total_vertex_overflow,
            result.max_vertex_overflow,
            result.graph.edge_overflow(),
        ) == final
