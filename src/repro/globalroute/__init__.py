"""Stitch-aware global routing (Section III-A)."""

from .cost import (
    congestion_cost,
    edge_cost,
    edge_cost_if_used,
    path_cost,
    vertex_cost,
    vertex_cost_if_used,
)
from .graph import GlobalGraph, Tile, TileSpan, vertical_run_line_ends
from .router import GlobalRoute, GlobalRouter, GlobalRoutingResult

__all__ = [
    "GlobalGraph",
    "GlobalRoute",
    "GlobalRouter",
    "GlobalRoutingResult",
    "Tile",
    "TileSpan",
    "congestion_cost",
    "edge_cost",
    "edge_cost_if_used",
    "path_cost",
    "vertex_cost",
    "vertex_cost_if_used",
    "vertical_run_line_ends",
]
