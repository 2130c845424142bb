"""Array-core routing engine (``RouterConfig(engine="array")``).

A numpy-backed implementation of the two routing hot paths behind the
``engine=`` seam of :class:`~repro.config.RouterConfig`:

* :class:`ArrayDetailedGrid` / :class:`ArrayGridOverlay` — the detailed
  routing grid with flat node-indexed base-cost, ownership, and pin
  arrays plus an indexed A* (:meth:`~ArrayDetailedGrid.indexed_search`)
  that replaces tuple nodes with integer node ids;
* :class:`ArrayGlobalGraph` / :class:`ArrayGraphSnapshot` — the global
  routing graph with incrementally maintained next-use cost caches and
  an indexed tile A* (:meth:`~ArrayGlobalGraph.astar_in_window`).

Both classes are drop-in subclasses of the object-graph reference
implementations; the routers select them through duck-typed dispatch
hooks (``indexed_search`` / ``astar_in_window`` / the overlay and
snapshot factories), so the engines share every line of algorithmic
control flow outside the inner loops.  The array engine is required to
produce **byte-identical** :class:`~repro.eval.RoutingReport` documents
— counters, histograms, and traces modulo wall times — which the
object-vs-array differential suite (``tests/engine``) and the solution
auditor enforce.  ``docs/performance.md`` documents the design and the
bit-identity obligations.
"""

from .detailed import ArrayDetailedGrid, ArrayGridOverlay
from .globalroute import ArrayGlobalGraph, ArrayGraphSnapshot

__all__ = [
    "ArrayDetailedGrid",
    "ArrayGlobalGraph",
    "ArrayGraphSnapshot",
    "ArrayGridOverlay",
]
