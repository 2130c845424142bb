"""The two-pass bottom-up routing framework driver (Fig. 6).

Pass 1 walks the coarsening hierarchy bottom-up and finds the global
route of each net at the level where it becomes local.  An intermediate
stage then performs layer/track assignment on the completed global
routing solution, and pass 2 walks bottom-up again performing detailed
routing (pin-to-segment and segment-to-segment) with rip-up and
re-route for failed nets.

The driver is deliberately generic: the three stages are injected as
callables, so the stitch-aware flow and the baseline flow of Table III
share the exact same orchestration and differ only in stage policies.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable
from typing import Generic, Optional, TypeVar

from ..layout import Design, Net
from ..observe import Tracer, ensure
from .scheme import MultilevelScheme

GlobalResultT = TypeVar("GlobalResultT")
AssignResultT = TypeVar("AssignResultT")
DetailResultT = TypeVar("DetailResultT")


@dataclasses.dataclass
class TwoPassOutcome(Generic[GlobalResultT, AssignResultT, DetailResultT]):
    """Everything produced by one two-pass run."""

    global_result: GlobalResultT
    assign_result: AssignResultT
    detail_result: DetailResultT
    level_order: list[list[Net]]
    cpu_seconds: float


class TwoPassFramework(Generic[GlobalResultT, AssignResultT, DetailResultT]):
    """Orchestrates pass 1 -> assignment -> pass 2 (Fig. 6).

    Args:
        global_stage: callable ``(design) -> G`` that globally routes
            the nets in an order of its own (the flows' global router
            sorts by tile extent).
        assign_stage: callable ``(design, G) -> A`` performing
            layer/track assignment on the global routing solution.
        detail_stage: callable ``(design, G, A, ordered_nets) -> D``
            performing detailed routing in bottom-up order.
    """

    def __init__(
        self,
        global_stage: Callable[[Design], GlobalResultT],
        assign_stage: Callable[[Design, GlobalResultT], AssignResultT],
        detail_stage: Callable[
            [Design, GlobalResultT, AssignResultT, list[Net]], DetailResultT
        ],
    ) -> None:
        self._global_stage = global_stage
        self._assign_stage = assign_stage
        self._detail_stage = detail_stage

    def run(
        self,
        design: Design,
        scheme: MultilevelScheme,
        tracer: Optional[Tracer] = None,
    ) -> TwoPassOutcome[GlobalResultT, AssignResultT, DetailResultT]:
        """Execute the two bottom-up passes on ``design``.

        Args:
            design: the routing instance.
            scheme: the coarsening hierarchy assigning nets to levels.
            tracer: observability sink; each pass gets its own span, and
                the injected stage callables run inside it (stages that
                accept a tracer nest their own spans underneath).
        """
        tracer = ensure(tracer)
        start = time.perf_counter()
        with tracer.span("levelize", levels=scheme.num_levels):
            by_level = scheme.nets_by_level()
            level_order = [
                sorted(
                    by_level.get(level, []), key=lambda n: (n.hpwl, n.name)
                )
                for level in range(scheme.num_levels)
            ]
            ordered = [net for level in level_order for net in level]
            for level, nets in enumerate(level_order):
                # One marker span per level records its net count.
                with tracer.span("level", level=level, nets=len(nets)):
                    pass

        with tracer.span("pass1"):
            global_result = self._global_stage(design)
        with tracer.span("assign"):
            assign_result = self._assign_stage(design, global_result)
        with tracer.span("pass2"):
            detail_result = self._detail_stage(
                design, global_result, assign_result, ordered
            )
        return TwoPassOutcome(
            global_result=global_result,
            assign_result=assign_result,
            detail_result=detail_result,
            level_order=level_order,
            cpu_seconds=time.perf_counter() - start,
        )
