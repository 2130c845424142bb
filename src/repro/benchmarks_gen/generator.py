"""Seeded synthetic routing-benchmark generator.

The paper evaluates on the MCNC and Faraday suites (Tables I and II),
whose original files are legacy/proprietary distributions we cannot
ship.  This generator reproduces each circuit's *published statistics*
— die aspect ratio, layer count, net count, pin count, average pins per
net — with standard-cell-like pin placement and net locality, so the
routing experiments exercise the same code paths at the same pin
densities.

Two knobs shape the reproduction:

* ``scale`` shrinks net count and die area together (area is
  proportional to pin count), keeping pure-Python routing tractable.
  Pin density is preserved, but congestion is not: each net spans
  ``locality * min(width, height)``, which grows with √scale, so
  wire demand per unit area grows with the scale.  On S13207 the
  mean global edge utilization is 0.07, 0.16, 0.24 and 0.35 at
  scales 0.02, 0.05, 0.1 and 0.2 (ROADMAP item "Make the scale knob
  change size, not difficulty").
* ``stitch_pin_fraction`` controls how many pins sit exactly on
  stitching lines.  Via violations are only allowed on fixed pins
  (Problem 1), so this fraction calibrates the #VV columns of Tables
  III/VII/VIII, which differ per circuit in the paper because of each
  benchmark's own pin alignment.
"""

from __future__ import annotations

import dataclasses
import math
import random

from ..config import RouterConfig
from ..geometry import Point
from ..layout import Design, Net, Netlist, Pin, Technology


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    """Published statistics of one benchmark circuit.

    Attributes:
        name: circuit name as in Table I/II.
        nets: full-size net count.
        pins: full-size pin count.
        layers: routing layer count.
        aspect: die width / height ratio.
        stitch_pin_fraction: fraction of pins placed exactly on
            stitching lines (drives the #VV columns).
        cells_per_pin: die area in grid cells per pin; controls
            congestion.  Calibrated so routability lands in the paper's
            96–100% band.
        locality: typical net span as a fraction of the die edge.
        cluster_fraction: fraction of nets whose centers concentrate in
            a few hotspot regions.  Real placements are not uniform;
            hotspots are what make some tiles overflow while spare
            capacity remains nearby — the situation the stitch-aware
            global router exploits (Table IV).
        num_clusters: number of hotspot regions.
        cluster_sigma_frac: hotspot radius as a fraction of the die
            edge; broader hotspots spread the same demand over more
            tiles (milder, routable-around pressure).
    """

    name: str
    nets: int
    pins: int
    layers: int
    aspect: float = 1.0
    stitch_pin_fraction: float = 0.067
    cells_per_pin: float = 26.0
    locality: float = 0.12
    cluster_fraction: float = 0.3
    num_clusters: int = 6
    cluster_sigma_frac: float = 0.12


def _net_pin_count(rng: random.Random, mean: float) -> int:
    """Draw a pin count with the given mean, minimum two.

    Shifted geometric distribution: realistic netlists are dominated by
    2-pin and 3-pin nets with a thin tail of high-fanout nets.
    """
    if mean <= 2.0:
        return 2
    p = 1.0 / (mean - 1.0)
    count = 2
    while rng.random() > p and count < 40:
        count += 1
    return count


def generate_design(
    spec: SyntheticSpec,
    scale: float = 1.0,
    config: RouterConfig | None = None,
    seed: int | None = None,
) -> Design:
    """Instantiate a synthetic :class:`Design` for ``spec``.

    Args:
        spec: published circuit statistics.
        scale: fraction of the full-size net count to generate; die
            area shrinks proportionally so pin density is preserved,
            while net spans grow with √scale and make larger
            instances more congested.  Factors above 1 (up to 100)
            *grow* the instance past the published statistics, and
            congest it further (used by timing benchmarks; see
            ``docs/performance.md``).
        config: framework parameters (stitch spacing etc.).
        seed: RNG seed; defaults to a hash of the circuit name so each
            circuit is deterministic yet distinct.
    """
    if not 0.0 < scale <= 100.0:
        raise ValueError(f"scale must be in (0, 100], got {scale}")
    config = config or RouterConfig()
    rng = random.Random(seed if seed is not None else _name_seed(spec.name))

    num_nets = max(4, int(round(spec.nets * scale)))
    target_pins = max(2 * num_nets, int(round(spec.pins * scale)))
    area = target_pins * spec.cells_per_pin
    width = max(3 * config.stitch_spacing + 1, int(round(math.sqrt(area * spec.aspect))))
    height = max(2 * config.tile_size, int(round(math.sqrt(area / spec.aspect))))

    mean_pins = target_pins / num_nets
    stitch_xs = list(range(config.stitch_spacing, width, config.stitch_spacing))

    clusters = [
        Point(rng.randrange(width), rng.randrange(height))
        for _ in range(max(1, spec.num_clusters))
    ]
    cluster_sigma = max(3, int(spec.cluster_sigma_frac * min(width, height)))

    nets: list[Net] = []
    taken: set = set()
    for i in range(num_nets):
        pin_count = _net_pin_count(rng, mean_pins)
        if rng.random() < spec.cluster_fraction:
            hub = rng.choice(clusters)
            center = Point(
                _clamp(hub.x + rng.randint(-cluster_sigma, cluster_sigma), 0, width - 1),
                _clamp(hub.y + rng.randint(-cluster_sigma, cluster_sigma), 0, height - 1),
            )
        else:
            center = Point(rng.randrange(width), rng.randrange(height))
        window = max(2, int(spec.locality * min(width, height)))
        # A small share of nets are global (clock/reset-like).
        if rng.random() < 0.04:
            window = max(window, min(width, height) // 2)
        pins = []
        for j in range(pin_count):
            placed = None
            for _ in range(80):
                x = _clamp(center.x + rng.randint(-window, window), 0, width - 1)
                y = _clamp(center.y + rng.randint(-window, window), 0, height - 1)
                x = _adjust_stitch_alignment(
                    rng, x, stitch_xs, spec.stitch_pin_fraction, width, config
                )
                if (x, y) not in taken:
                    placed = (x, y)
                    break
            if placed is None:
                continue  # hopelessly crowded neighbourhood; smaller net
            taken.add(placed)
            pins.append(Pin(f"n{i}.{j}", Point(*placed), layer=1))
        if len(pins) < 2:
            continue
        nets.append(Net(f"n{i}", tuple(pins)))

    return Design(
        name=spec.name,
        width=width,
        height=height,
        technology=Technology(spec.layers),
        netlist=Netlist(nets),
        config=config,
    )


def _adjust_stitch_alignment(
    rng: random.Random,
    x: int,
    stitch_xs: list[int],
    target_fraction: float,
    width: int,
    config: RouterConfig,
) -> int:
    """Re-sample ``x`` so the on-stitch-line pin rate hits the target.

    Uniform placement puts ``1/stitch_spacing`` of pins on lines; we
    nudge on-line pins off (or off-line pins on) with the probability
    that makes the expected on-line fraction equal ``target_fraction``.
    """
    natural = 1.0 / config.stitch_spacing
    on_line = x in stitch_xs
    if not stitch_xs:
        return x
    if target_fraction >= natural:
        # Need extra on-line pins: promote off-line pins with prob q.
        if not on_line:
            q = (target_fraction - natural) / max(1e-9, 1.0 - natural)
            if rng.random() < q:
                return min(stitch_xs, key=lambda s: abs(s - x))
        return x
    # Need fewer on-line pins: demote with prob q.
    if on_line and rng.random() < 1.0 - target_fraction / natural:
        shifted = x + rng.choice((-1, 1, -2, 2))
        return _clamp(shifted, 0, width - 1)
    return x


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def _name_seed(name: str) -> int:
    """Stable per-name seed (hash() is salted per process; avoid it)."""
    seed = 0
    for ch in name:
        seed = (seed * 131 + ord(ch)) % (2**31 - 1)
    return seed
