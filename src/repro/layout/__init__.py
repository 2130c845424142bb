"""Layout model: technology, stitching lines, netlist, design instance."""

from .design import Design
from .netlist import Net, Netlist, Pin
from .stitch import StitchingLines
from .technology import Direction, Technology

__all__ = [
    "Design",
    "Direction",
    "Net",
    "Netlist",
    "Pin",
    "StitchingLines",
    "Technology",
]
