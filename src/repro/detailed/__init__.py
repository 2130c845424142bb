"""Stitch-aware detailed routing (Section III-D)."""

from .grid import DetailedGrid, Node
from .router import DetailedResult, DetailedRouter, RoutedNet
from .search import Ends, astar_connect, connection_window, search_ends, separated
from .trunks import TrunkPiece, materialize_trunks

__all__ = [
    "DetailedGrid",
    "DetailedResult",
    "DetailedRouter",
    "Ends",
    "Node",
    "RoutedNet",
    "TrunkPiece",
    "astar_connect",
    "connection_window",
    "materialize_trunks",
    "search_ends",
    "separated",
]
