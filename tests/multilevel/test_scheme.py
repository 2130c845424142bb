"""Tests for the coarsening scheme and two-pass driver."""

import pytest

from repro.config import RouterConfig
from repro.geometry import Point
from repro.layout import Design, Net, Netlist, Pin, Technology
from repro.multilevel import MultilevelScheme, TwoPassFramework


def two_pin(name, a, b):
    return Net(name, (Pin(f"{name}.0", Point(*a), 1), Pin(f"{name}.1", Point(*b), 1)))


def make_design(nets=None, width=120, height=120):
    nets = nets or [two_pin("n0", (1, 1), (100, 100))]
    return Design(
        name="toy",
        width=width,
        height=height,
        technology=Technology(3),
        netlist=Netlist(nets),
        config=RouterConfig(stitch_spacing=15, tile_size=15),
    )


class TestMultilevelScheme:
    def test_num_levels(self):
        scheme = MultilevelScheme(make_design(), nx=8, ny=8)
        assert scheme.num_levels == 4  # 8 -> 4 -> 2 -> 1

    def test_num_levels_non_power_of_two(self):
        scheme = MultilevelScheme(make_design(), nx=5, ny=3)
        # ceil covering: 5 tiles need 3 halvings to reach one tile.
        assert scheme.num_levels == 4

    def test_single_tile_grid(self):
        scheme = MultilevelScheme(make_design(), nx=1, ny=1)
        assert scheme.num_levels == 1

    def test_tile_at_level(self):
        scheme = MultilevelScheme(make_design(), nx=8, ny=8)
        assert scheme.tile_at_level((5, 3), 0) == (5, 3)
        assert scheme.tile_at_level((5, 3), 1) == (2, 1)
        assert scheme.tile_at_level((5, 3), 2) == (1, 0)
        assert scheme.tile_at_level((5, 3), 3) == (0, 0)

    def test_grid_at_level(self):
        scheme = MultilevelScheme(make_design(), nx=8, ny=8)
        assert scheme.grid_at_level(0) == (8, 8)
        assert scheme.grid_at_level(1) == (4, 4)
        assert scheme.grid_at_level(3) == (1, 1)

    def test_invalid_level(self):
        scheme = MultilevelScheme(make_design(), nx=8, ny=8)
        with pytest.raises(ValueError):
            scheme.tile_at_level((0, 0), 4)

    def test_net_level_local(self):
        nets = [two_pin("local", (1, 1), (5, 5))]
        scheme = MultilevelScheme(make_design(nets), nx=8, ny=8)
        assert scheme.net_level(nets[0]) == 0

    def test_net_level_global(self):
        nets = [two_pin("global", (1, 1), (118, 118))]
        scheme = MultilevelScheme(make_design(nets), nx=8, ny=8)
        assert scheme.net_level(nets[0]) == 3

    def test_net_level_intermediate(self):
        # Pins in tiles (0,0) and (1,1): merged at level 1.
        nets = [two_pin("mid", (1, 1), (20, 20))]
        scheme = MultilevelScheme(make_design(nets), nx=8, ny=8)
        assert scheme.net_level(nets[0]) == 1

    def test_nets_by_level_partition(self):
        nets = [
            two_pin("a", (1, 1), (5, 5)),
            two_pin("b", (1, 1), (20, 20)),
            two_pin("c", (1, 1), (118, 118)),
        ]
        scheme = MultilevelScheme(make_design(nets), nx=8, ny=8)
        groups = scheme.nets_by_level()
        assert sum(len(v) for v in groups.values()) == 3
        assert [n.name for n in groups[0]] == ["a"]

    def test_bottom_up_order(self):
        nets = [
            two_pin("long", (1, 1), (118, 118)),
            two_pin("short", (1, 1), (5, 5)),
        ]
        scheme = MultilevelScheme(make_design(nets), nx=8, ny=8)
        assert [n.name for n in scheme.bottom_up_order()] == ["short", "long"]


class TestTwoPassFramework:
    def test_stage_sequencing_and_data_flow(self):
        calls = []
        nets = [
            two_pin("a", (1, 1), (5, 5)),
            two_pin("b", (1, 1), (100, 100)),
        ]
        design = make_design(nets)
        scheme = MultilevelScheme(design, nx=8, ny=8)

        def global_stage(d):
            calls.append("global")
            return "G"

        def assign_stage(d, g):
            calls.append("assign")
            assert g == "G"
            return "A"

        def detail_stage(d, g, a, ordered):
            calls.append("detail")
            assert (g, a) == ("G", "A")
            assert [n.name for n in ordered] == ["a", "b"]
            return "D"

        framework = TwoPassFramework(global_stage, assign_stage, detail_stage)
        outcome = framework.run(design, scheme)
        assert calls == ["global", "assign", "detail"]
        assert outcome.detail_result == "D"
        assert outcome.cpu_seconds >= 0
        assert sum(len(level) for level in outcome.level_order) == 2
