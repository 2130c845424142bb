"""Stitch-aware global routing (Section III-A)."""

from .cost import congestion_cost, edge_cost_if_used
from .graph import GlobalGraph, Tile, TileSpan
from .router import GlobalRoute, GlobalRouter, GlobalRoutingResult

__all__ = [
    "GlobalGraph",
    "GlobalRoute",
    "GlobalRouter",
    "GlobalRoutingResult",
    "Tile",
    "TileSpan",
    "congestion_cost",
    "edge_cost_if_used",
]
