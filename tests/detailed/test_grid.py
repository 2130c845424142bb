"""Tests for the detailed routing grid: legality, occupancy, Eq. (10).

The move and cost tests drive the reference neighbour function of
``tests/engine/reference.py``, which prices Eq. (10) from the config
and the stitching lines; the production A* must match it step for step
(``tests/engine``).
"""

import pytest

from repro.config import RouterConfig
from repro.geometry import Point
from repro.layout import Design, Net, Netlist, Pin, Technology
from repro.detailed import DetailedGrid
from tests.engine.reference import neighbors


def make_design(layers=3, width=60, height=45):
    config = RouterConfig(stitch_spacing=15, tile_size=15)
    nets = [
        Net("n0", (Pin("a", Point(1, 1), 1), Pin("b", Point(50, 40), 1)))
    ]
    return Design(
        name="toy",
        width=width,
        height=height,
        technology=Technology(layers),
        netlist=Netlist(nets),
        config=config,
    )


class TestLegality:
    def test_bounds(self):
        g = DetailedGrid(make_design())
        assert g.in_bounds((0, 0, 1))
        assert g.in_bounds((59, 44, 3))
        assert not g.in_bounds((60, 0, 1))
        assert not g.in_bounds((0, 0, 0))
        assert not g.in_bounds((0, 0, 4))

    def test_vertical_layer_blocked_on_line(self):
        g = DetailedGrid(make_design())
        assert g.is_blocked((15, 5, 2))  # vertical layer on the line
        assert not g.is_blocked((15, 5, 1))  # horizontal layer crosses
        assert not g.is_blocked((16, 5, 2))

    def test_region_flags(self):
        g = DetailedGrid(make_design())
        assert g.on_stitch_line(15) and not g.on_stitch_line(16)
        assert g.in_unfriendly(14) and g.in_unfriendly(16)
        assert not g.in_unfriendly(13)
        assert g.in_escape(11) and g.in_escape(19)
        assert not g.in_escape(15)


class TestOccupancy:
    def test_occupy_release_roundtrip(self):
        g = DetailedGrid(make_design())
        g.occupy((3, 3, 1), "a")
        assert g.owner((3, 3, 1)) == "a"
        assert not g.is_free_for((3, 3, 1), "b")
        assert g.is_free_for((3, 3, 1), "a")
        g.release((3, 3, 1), "a")
        assert g.owner((3, 3, 1)) is None

    def test_conflicting_occupy_raises(self):
        g = DetailedGrid(make_design())
        g.occupy((3, 3, 1), "a")
        with pytest.raises(ValueError):
            g.occupy((3, 3, 1), "b")

    def test_release_checks_owner(self):
        g = DetailedGrid(make_design())
        g.occupy((3, 3, 1), "a")
        g.release((3, 3, 1), "b")  # no-op
        assert g.owner((3, 3, 1)) == "a"

    def test_off_grid_reads_never_alias(self):
        design = make_design()
        g = DetailedGrid(design)
        g.occupy((4, 0, 1), "a")
        g.mark_pin((4, 0, 1))
        # (3, height, 1) would encode to the flat id of (4, 0, 1).
        for off_grid in ((3, design.height, 1), (-1, 0, 1), (4, 0, 0)):
            assert g.owner(off_grid) is None
            assert not g.is_pin(off_grid)
        assert g.occupied_by("a") == {(4, 0, 1)}

    def test_force_occupy_reports_eviction(self):
        g = DetailedGrid(make_design())
        g.occupy((3, 3, 1), "a")
        assert g.claim([(3, 3, 1)], "b") == {"a"}
        assert g.owner((3, 3, 1)) == "b"
        assert g.claim([(4, 3, 1)], "b") == set()

    def test_claim_takes_a_whole_path(self):
        g = DetailedGrid(make_design())
        path = [(2, 3, 1), (3, 3, 1), (4, 3, 1), (5, 3, 1), (6, 3, 1)]
        g.occupy(path[1], "a")
        g.occupy(path[2], "c")
        g.occupy(path[3], "b")
        g.occupy(path[4], "a")
        assert g.claim(path, "b") == {"a", "c"}
        assert all(g.owner(node) == "b" for node in path)
        assert g.occupied_by("a") == set() and g.occupied_by("c") == set()
        # Claimed nodes are owned in the folded step list too.
        assert all(g._free_step[g._encode(node)] < 0.0 for node in path)

    def test_claim_stops_at_a_foreign_pin(self):
        g = DetailedGrid(make_design())
        g.occupy((4, 3, 1), "a")
        g.mark_pin((4, 3, 1))
        with pytest.raises(ValueError, match="pin node"):
            g.claim([(3, 3, 1), (4, 3, 1), (5, 3, 1)], "b")
        assert g.owner((3, 3, 1)) == "b"
        assert g.owner((4, 3, 1)) == "a"
        assert g.owner((5, 3, 1)) is None

    def test_owned_by_filters_to_one_net(self):
        g = DetailedGrid(make_design())
        g.occupy((3, 3, 1), "a")
        g.occupy((4, 3, 1), "b")
        g.occupy((5, 3, 1), "a")
        nodes = [(3, 3, 1), (4, 3, 1), (5, 3, 1), (6, 3, 1), (3, 3, 1)]
        assert g.owned_by(nodes, "a") == {(3, 3, 1), (5, 3, 1)}
        assert g.owned_by(nodes, "b") == {(4, 3, 1)}
        assert g.owned_by(nodes, "unknown") == set()
        assert g.owned_by([], "a") == set()


class TestNeighbors:
    def test_preferred_directions(self):
        g = DetailedGrid(make_design())
        h_moves = {n for n, _ in neighbors(g, (5, 5, 1), "a")}
        assert (4, 5, 1) in h_moves and (6, 5, 1) in h_moves
        assert (5, 4, 1) not in h_moves and (5, 6, 1) not in h_moves
        v_moves = {n for n, _ in neighbors(g, (5, 5, 2), "a")}
        assert (5, 4, 2) in v_moves and (5, 6, 2) in v_moves
        assert (4, 5, 2) not in v_moves

    def test_z_moves_exist(self):
        g = DetailedGrid(make_design())
        moves = {n for n, _ in neighbors(g, (5, 5, 2), "a")}
        assert (5, 5, 1) in moves and (5, 5, 3) in moves

    def test_via_forbidden_on_line(self):
        g = DetailedGrid(make_design())
        moves = {n for n, _ in neighbors(g, (15, 5, 1), "a")}
        assert (15, 5, 2) not in moves
        # Horizontal pass-through across the line stays legal.
        assert (14, 5, 1) in moves and (16, 5, 1) in moves

    def test_foreign_nodes_blocked(self):
        g = DetailedGrid(make_design())
        g.occupy((6, 5, 1), "other")
        moves = {n for n, _ in neighbors(g, (5, 5, 1), "a")}
        assert (6, 5, 1) not in moves

    def test_foreign_penalty_mode(self):
        g = DetailedGrid(make_design())
        g.occupy((6, 5, 1), "other")
        moves = dict(neighbors(g, (5, 5, 1), "a", foreign_penalty=30.0))
        assert (6, 5, 1) in moves
        assert moves[(6, 5, 1)] >= 30.0

    def test_foreign_pins_never_passable(self):
        g = DetailedGrid(make_design())
        g.occupy((6, 5, 1), "other")
        g.mark_pin((6, 5, 1))
        moves = {n for n, _ in neighbors(g, (5, 5, 1), "a", 30.0)}
        assert (6, 5, 1) not in moves


class TestCosts:
    def test_via_in_sur_costs_beta(self):
        design = make_design()
        g = DetailedGrid(design)
        moves = dict(neighbors(g, (16, 5, 1), "a"))  # x=16 in SUR
        base = dict(neighbors(g, (5, 5, 1), "a"))
        assert moves[(16, 5, 2)] >= base[(5, 5, 2)] + design.config.beta - 1e-9

    def test_escape_region_costs_gamma_on_vertical(self):
        design = make_design()
        g = DetailedGrid(design)
        moves = dict(neighbors(g, (18, 5, 2), "a"))  # escape region
        away = dict(neighbors(g, (5, 5, 2), "a"))
        assert (
            moves[(18, 6, 2)]
            == pytest.approx(away[(5, 6, 2)] + design.config.gamma)
        )

    def test_baseline_mode_drops_soft_costs(self):
        design = make_design()
        g = DetailedGrid(design, stitch_aware=False)
        moves = dict(neighbors(g, (16, 5, 1), "a"))
        assert moves[(16, 5, 2)] == pytest.approx(design.config.alpha)
        v_moves = dict(neighbors(g, (18, 5, 2), "a"))
        assert v_moves[(18, 6, 2)] == pytest.approx(design.config.alpha)

    def test_hard_constraints_kept_in_baseline_mode(self):
        g = DetailedGrid(make_design(), stitch_aware=False)
        assert g.is_blocked((15, 5, 2))
        moves = {n for n, _ in neighbors(g, (15, 5, 1), "a")}
        assert (15, 5, 2) not in moves
