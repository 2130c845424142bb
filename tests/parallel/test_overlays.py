"""Tests for the speculative-routing overlays.

These verify the mechanics the merge loops rely on: reads see
base-plus-own-writes, writes never leak to the base until ``apply_to``,
and the recorded read/write footprints are exact.
"""

import pytest

from repro.config import RouterConfig
from repro.detailed import DetailedGrid
from repro.detailed.overlay import GridOverlay, _OwnerOverlay
from repro.geometry import Point
from repro.globalroute import GlobalGraph
from repro.globalroute.overlay import GraphSnapshot, windows_hit
from repro.layout import Design, Net, Netlist, Pin, Technology


def make_design(width=60, height=45, layers=3):
    config = RouterConfig(stitch_spacing=15, tile_size=15)
    nets = [
        Net("n0", (Pin("a", Point(1, 1), 1), Pin("b", Point(50, 40), 1))),
        Net("n1", (Pin("c", Point(5, 5), 1), Pin("d", Point(30, 20), 1))),
    ]
    return Design(
        name="toy",
        width=width,
        height=height,
        technology=Technology(layers),
        netlist=Netlist(nets),
        config=config,
    )


class TestOwnerOverlay:
    def test_reads_fall_through_and_are_logged(self):
        base = {("n",): "owner"}
        ov = _OwnerOverlay(base)
        assert ov.get(("n",)) == "owner"
        assert ov.get(("m",)) is None
        assert ov.get(("k",), "dflt") == "dflt"
        assert ov.reads == {("n",), ("m",), ("k",)}
        assert ov.writes == set()

    def test_writes_shadow_base(self):
        base = {("n",): "owner"}
        ov = _OwnerOverlay(base)
        ov[("n",)] = "thief"
        ov[("m",)] = "thief"
        assert ov.get(("n",)) == "thief"
        assert ov.get(("m",)) == "thief"
        assert base[("n",)] == "owner"  # base untouched
        assert ("m",) not in base
        assert ov.writes == {("n",), ("m",)}

    def test_tombstone_hides_base_entry(self):
        base = {("n",): "owner"}
        ov = _OwnerOverlay(base)
        del ov[("n",)]
        assert ov.get(("n",)) is None
        assert ov.get(("n",), "dflt") == "dflt"
        assert base[("n",)] == "owner"
        assert ("n",) in ov.writes


class TestGridOverlay:
    def test_speculative_claim_invisible_to_base(self):
        grid = DetailedGrid(make_design())
        ov = GridOverlay(grid)
        node = (3, 3, 1)
        ov.occupy(node, "n0")
        assert ov.owner(node) == "n0"
        assert grid.owner(node) is None
        assert node in ov.write_nodes

    def test_reads_see_base_state(self):
        grid = DetailedGrid(make_design())
        node = (4, 4, 1)
        grid.occupy(node, "n1")
        ov = GridOverlay(grid)
        assert ov.owner(node) == "n1"
        assert node in ov.read_nodes

    def test_release_tombstones_base_ownership(self):
        grid = DetailedGrid(make_design())
        node = (5, 5, 1)
        grid.occupy(node, "n0")
        ov = GridOverlay(grid)
        ov.release(node, "n0")
        assert ov.owner(node) is None
        assert grid.owner(node) == "n0"  # still owned underneath
        assert node in ov.write_nodes

    def test_apply_to_replays_delta(self):
        grid = DetailedGrid(make_design())
        kept = (2, 2, 1)
        released = (6, 6, 1)
        grid.occupy(released, "n0")
        ov = GridOverlay(grid)
        ov.occupy(kept, "n0")
        ov.release(released, "n0")
        ov.cost_evaluations += 7
        before = grid.cost_evaluations
        ov.apply_to(grid, "n0")
        assert grid.owner(kept) == "n0"
        assert grid.owner(released) is None
        assert grid.cost_evaluations == before + 7

    def test_claim_then_release_leaves_base_free(self):
        # trim_dangling's pattern: a search claims a node, the trim
        # releases it again; the replayed delta must be a no-op.
        grid = DetailedGrid(make_design())
        node = (7, 7, 1)
        ov = GridOverlay(grid)
        ov.occupy(node, "n0")
        ov.release(node, "n0")
        ov.apply_to(grid, "n0")
        assert grid.owner(node) is None

    def test_evict_then_release_frees_foreign_node(self):
        # Negotiated-attachment-then-trim: the search force-claims a
        # foreign node and the trim releases it.  Serially the evicted
        # owner already lost the node, so it ends up FREE — the replay
        # must free it even though base still shows the victim.
        grid = DetailedGrid(make_design())
        node = (7, 7, 1)
        grid.occupy(node, "victim")
        ov = GridOverlay(grid)
        assert ov.force_occupy(node, "n0") == "victim"
        ov.release(node, "n0")
        ov.apply_to(grid, "n0")
        assert grid.owner(node) is None

    def test_force_occupy_reports_base_owner(self):
        grid = DetailedGrid(make_design())
        node = (8, 8, 1)
        grid.occupy(node, "n1")
        ov = GridOverlay(grid)
        assert ov.force_occupy(node, "n0") == "n1"
        assert grid.owner(node) == "n1"
        ov.apply_to(grid, "n0")
        assert grid.owner(node) == "n0"

    def test_pin_nodes_stay_protected(self):
        grid = DetailedGrid(make_design())
        pin = (1, 1, 1)
        grid.occupy(pin, "n0")
        grid.mark_pin(pin)
        ov = GridOverlay(grid)
        with pytest.raises(ValueError):
            ov.force_occupy(pin, "n1")

    def test_cost_evaluations_start_at_zero(self):
        grid = DetailedGrid(make_design())
        grid.cost_evaluations = 42
        ov = GridOverlay(grid)
        assert ov.cost_evaluations == 0


class TestGraphSnapshot:
    def test_demand_writes_stay_private(self):
        graph = GlobalGraph(make_design())
        snap = GraphSnapshot(graph)
        snap.h_demand[0, 0] += 5
        snap.v_demand[0, 0] += 3
        snap.vertex_demand[0, 0] += 2
        assert graph.h_demand[0, 0] == 0
        assert graph.v_demand[0, 0] == 0
        assert graph.vertex_demand[0, 0] == 0

    def test_capacity_and_history_shared(self):
        graph = GlobalGraph(make_design())
        snap = GraphSnapshot(graph)
        assert snap.h_capacity is graph.h_capacity
        assert snap.vertex_history is graph.vertex_history
        assert snap.nx == graph.nx and snap.ny == graph.ny


class TestWindowsHit:
    def test_inclusive_membership(self):
        assert windows_hit([(0, 0, 2, 2)], {(2, 2)})
        assert windows_hit([(0, 0, 2, 2)], {(0, 0)})
        assert not windows_hit([(0, 0, 2, 2)], {(3, 2)})

    def test_any_window_any_tile(self):
        windows = [(0, 0, 1, 1), (10, 10, 12, 12)]
        assert windows_hit(windows, {(5, 5), (11, 11)})
        assert not windows_hit(windows, {(5, 5), (9, 9)})

    def test_empty(self):
        assert not windows_hit([], {(0, 0)})
        assert not windows_hit([(0, 0, 5, 5)], set())
