"""From-scratch combinatorial algorithm substrates.

Replaces the LEDA / CPLEX dependencies of the original implementation:
union-find, maximum spanning forests, DAG longest paths, min-cost
max-flow, Hungarian matching, and Carlisle–Lloyd interval k-coloring.
"""

from .dag import CycleError, longest_path_lengths, topological_order
from .interval_kcolor import (
    greedy_interval_coloring,
    is_k_colorable,
    max_weight_k_colorable,
)
from .matching import hungarian, matching_cost
from .mincostflow import MinCostFlow
from .spanning_tree import (
    color_forest_by_depth,
    coloring_cost,
    maximum_spanning_forest,
)
from .unionfind import DisjointSet

__all__ = [
    "CycleError",
    "DisjointSet",
    "MinCostFlow",
    "color_forest_by_depth",
    "coloring_cost",
    "greedy_interval_coloring",
    "hungarian",
    "is_k_colorable",
    "longest_path_lengths",
    "matching_cost",
    "max_weight_k_colorable",
    "maximum_spanning_forest",
    "topological_order",
]
