"""The Faraday industry benchmark suite (Table II), synthesized to spec.

Six routing layers, near-square dice, and high-fanout nets (about 5.5
pins per net on average).  ``stitch_pin_fraction`` values derive from
the #VV / #pins ratios of Table III.
"""

from __future__ import annotations

from ..config import RouterConfig
from ..layout import Design
from .generator import SyntheticSpec, generate_design

FARADAY_SPECS = {
    "DMA": SyntheticSpec(
        name="DMA", nets=13256, pins=73982, layers=6,
        aspect=1.0, stitch_pin_fraction=0.0165,
        cells_per_pin=18.0, locality=0.10,
    ),
    "DSP1": SyntheticSpec(
        name="DSP1", nets=28447, pins=144872, layers=6,
        aspect=1.0, stitch_pin_fraction=0.0122,
        cells_per_pin=18.0, locality=0.10,
    ),
    "DSP2": SyntheticSpec(
        name="DSP2", nets=28431, pins=144703, layers=6,
        aspect=1.0, stitch_pin_fraction=0.0141,
        cells_per_pin=18.0, locality=0.10,
    ),
    "RISC1": SyntheticSpec(
        name="RISC1", nets=34034, pins=196677, layers=6,
        aspect=1.0, stitch_pin_fraction=0.0117,
        cells_per_pin=18.0, locality=0.10,
    ),
    "RISC2": SyntheticSpec(
        name="RISC2", nets=34034, pins=196670, layers=6,
        aspect=1.0, stitch_pin_fraction=0.0114,
        cells_per_pin=18.0, locality=0.10,
    ),
}

FARADAY_NAMES: list[str] = list(FARADAY_SPECS)


def faraday_design(
    name: str, scale: float = 1.0, config: RouterConfig | None = None
) -> Design:
    """One Faraday circuit at the given size scale."""
    try:
        spec = FARADAY_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown Faraday circuit {name!r}; choose from {FARADAY_NAMES}"
        ) from None
    return generate_design(spec, scale=scale, config=config)
