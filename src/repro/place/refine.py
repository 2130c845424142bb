"""Stitch-aware placement refinement (the paper's future work).

Section V: via violations in Tables III/VII/VIII all come from *fixed*
pin positions on stitching lines; removing them needs stitch awareness
in the placement stage.  This module implements that extension as a
legalization-style refinement pass: pins sitting on a stitching line
(and optionally anywhere in a stitch unfriendly region) are nudged to
the nearest free column within a bounded displacement.

It deliberately mimics what a detailed placer could do late in the
flow — tiny, bounded moves that preserve the placement — so the
resulting #VV reduction (see ``benchmarks/ablations/
bench_ablation_placement.py``) estimates the paper's proposed gain.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..geometry import Point
from ..layout import Design, Net, Netlist, Pin


@dataclasses.dataclass
class RefinementResult:
    """Outcome of one placement refinement pass."""

    design: Design
    moved_pins: int
    unmovable_pins: int
    total_displacement: int


def refine_pin_placement(
    design: Design,
    max_shift: int = 2,
    avoid_unfriendly: bool = False,
) -> RefinementResult:
    """Nudge offending pins off stitching lines.

    Args:
        design: the placed design.
        max_shift: maximum x displacement per pin, in pitches.  Small
            bounds model a legalization pass that cannot disturb the
            placement.
        avoid_unfriendly: also move pins out of stitch unfriendly
            regions (eliminates pin-end short-polygon seeds as well,
            at the cost of more displacement).

    Returns:
        A :class:`RefinementResult` whose ``design`` is a new
        :class:`Design` with updated pin positions.
    """
    stitches = design.stitches
    assert stitches is not None

    def offending(x: int) -> bool:
        if avoid_unfriendly:
            return stitches.in_unfriendly_region(x)
        return stitches.is_on_line(x)

    taken: set[tuple[int, int]] = {
        (p.location.x, p.location.y) for p in design.netlist.pins
    }
    moved = 0
    unmovable = 0
    displacement = 0
    new_nets: list[Net] = []
    for net in design.netlist:
        new_pins: list[Pin] = []
        for pin in net.pins:
            x, y = pin.location.x, pin.location.y
            if not offending(x):
                new_pins.append(pin)
                continue
            target = _nearest_legal_x(
                x, y, max_shift, design.width, offending, taken
            )
            if target is None:
                unmovable += 1
                new_pins.append(pin)
                continue
            taken.discard((x, y))
            taken.add((target, y))
            moved += 1
            displacement += abs(target - x)
            new_pins.append(Pin(pin.name, Point(target, y), pin.layer))
        new_nets.append(Net(net.name, tuple(new_pins)))

    refined = Design(
        name=design.name,
        width=design.width,
        height=design.height,
        technology=design.technology,
        netlist=Netlist(new_nets),
        config=design.config,
        stitches=design.stitches,
    )
    return RefinementResult(
        design=refined,
        moved_pins=moved,
        unmovable_pins=unmovable,
        total_displacement=displacement,
    )


def _nearest_legal_x(
    x: int,
    y: int,
    max_shift: int,
    width: int,
    offending,
    taken: set[tuple[int, int]],
) -> Optional[int]:
    for distance in range(1, max_shift + 1):
        for candidate in (x - distance, x + distance):
            if not 0 <= candidate < width:
                continue
            if offending(candidate):
                continue
            if (candidate, y) in taken:
                continue
            return candidate
    return None
