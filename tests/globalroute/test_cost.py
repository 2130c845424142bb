"""Tests for the congestion cost functions of Eqs. (1)-(3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.globalroute import GlobalGraph, congestion_cost, edge_cost_if_used
from repro.globalroute.cost import (
    VERTEX_OVERFLOW_PENALTY,
    VERTEX_WEIGHT,
    vertex_price,
)
from tests.globalroute.test_graph import make_design


class TestCongestionCost:
    def test_zero_demand_free(self):
        assert congestion_cost(0, 10) == 0.0

    def test_full_capacity_costs_one(self):
        assert congestion_cost(10, 10) == pytest.approx(1.0)

    def test_half_capacity(self):
        assert congestion_cost(5, 10) == pytest.approx(2**0.5 - 1)

    def test_overflow_grows_fast(self):
        assert congestion_cost(20, 10) == pytest.approx(3.0)

    def test_zero_capacity_penalized(self):
        assert congestion_cost(1, 0) > congestion_cost(10, 10)

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=50),
    )
    def test_monotone_in_demand(self, d, c):
        assert congestion_cost(d + 1, c) > congestion_cost(d, c) - 1e-12


class TestGraphCosts:
    def test_edge_cost_if_used_prices_next_unit(self):
        g = GlobalGraph(make_design())
        key = ("h", 0, 0)
        capacity = g.edge_capacity(key)
        assert edge_cost_if_used(g, key) == pytest.approx(congestion_cost(1, capacity))
        g.add_edge_demand(key, capacity)
        assert edge_cost_if_used(g, key) == pytest.approx(
            congestion_cost(capacity + 1, capacity)
        )

    def test_history_raises_price(self):
        g = GlobalGraph(make_design())
        key = ("h", 0, 0)
        g.add_edge_demand(key, g.edge_capacity(key) + 1)
        base = edge_cost_if_used(g, key)
        for _ in range(4):
            g.bump_history(line_ends=False)
        assert edge_cost_if_used(g, key) == pytest.approx(base + 2.0)

    def test_vertex_price_prices_next_line_end(self):
        g = GlobalGraph(make_design())
        tile = (1, 0)
        capacity = int(g.vertex_capacity[tile])
        assert vertex_price(g, tile) == pytest.approx(
            VERTEX_WEIGHT * congestion_cost(1, capacity)
        )
        # The next line end would overflow the tile: the hard step applies.
        g.add_vertex_demand(tile, capacity)
        assert vertex_price(g, tile) == pytest.approx(
            VERTEX_WEIGHT * congestion_cost(capacity + 1, capacity)
            + VERTEX_OVERFLOW_PENALTY
        )
