"""Tests for the coarsening scheme and the two-pass flow it orders."""

import pytest

from repro.api import BaselineRouter
from repro.config import RouterConfig
from repro.geometry import Point
from repro.globalroute import GlobalGraph
from repro.layout import Design, Net, Netlist, Pin, Technology
from repro.multilevel import MultilevelScheme
from repro.observe import Tracer


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


class TestTwoPassFlow:
    """The flow's Fig. 6 sequence, seen through its trace and events."""

    NETS = [
        two_pin("a", (1, 1), (5, 5)),
        two_pin("b", (1, 1), (20, 20)),
        two_pin("c", (57, 50), (62, 52)),
        two_pin("d", (1, 1), (100, 100)),
        two_pin("e", (70, 70), (80, 75)),
        two_pin("f", (100, 10), (104, 12)),
    ]

    @pytest.fixture(scope="class")
    def run(self):
        design = make_design(self.NETS)
        events = []
        flow = BaselineRouter().route(design, tracer=Tracer([events.append]))
        scheme = MultilevelScheme(design, *GlobalGraph.grid_shape(design))
        return flow, scheme, events

    def test_top_level_spans_in_order(self, run):
        flow, _, _ = run
        assert [s.name for s in flow.trace.spans] == [
            "levelize", "pass1", "assign", "pass2",
        ]

    def test_levelize_holds_one_span_per_level(self, run):
        flow, scheme, _ = run
        levelize = flow.trace.spans[0]
        assert levelize.gauges == {"levels": scheme.num_levels}
        by_level = scheme.nets_by_level()
        assert [(s.name, s.gauges) for s in levelize.children] == [
            ("level", {"level": level, "nets": len(by_level.get(level, []))})
            for level in range(scheme.num_levels)
        ]
        # Levels 0, 1 and 3 hold two nets each; level 2 none.
        assert [s.gauges["nets"] for s in levelize.children] == [2, 2, 0, 2]

    def test_detailed_pass_follows_bottom_up_order(self, run):
        """The baseline's detailed order keeps the order it is given."""
        _, scheme, events = run
        detailed = [
            event["net"]
            for event in events
            if event["ev"] == "progress"
            and event["kind"] == "net"
            and event["stage"] == "detailed"
        ]
        expected = [net.name for net in scheme.bottom_up_order()]
        assert detailed == expected == ["f", "a", "e", "b", "c", "d"]
