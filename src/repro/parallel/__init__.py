"""Parallel net-batch routing: conflict-aware planner and worker pool.

The scheduling half of ``RouterConfig(workers=N)``: nets are grouped
into conflict-free batches (:mod:`~repro.parallel.batching`) and run by
an order-preserving thread pool (:mod:`~repro.parallel.executor`).
The routing passes speculate each batched net against copy-on-write
state (:class:`repro.globalroute.overlay.GraphSnapshot`,
:class:`repro.detailed.overlay.GridOverlay`) and merge results back in
canonical serial order with read/write-footprint validation — so the
final routing result is byte-identical to the serial router's,
independent of thread scheduling.  ``docs/parallelism.md`` walks
through the model.
"""

from .batching import (
    BatchPlan,
    Rect,
    expand_rect,
    net_rect,
    plan_batches,
    rects_overlap,
)
from .executor import BatchExecutor, validate_workers

__all__ = [
    "BatchExecutor",
    "BatchPlan",
    "Rect",
    "expand_rect",
    "net_rect",
    "plan_batches",
    "rects_overlap",
    "validate_workers",
]
