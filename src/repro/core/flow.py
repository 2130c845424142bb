"""The full stitch-aware routing flow and its baseline (Table III).

``StitchAwareRouter`` runs the two-pass bottom-up multilevel framework
of Fig. 6: levelize the nets through the coarsening hierarchy, route
them globally (pass 1, with the stitch-aware line-end term), assign
layers (flow-based coloring) and tracks (graph heuristic or ILP, both
short-polygon-avoiding), then route them in detail bottom-up (pass 2,
stitch-aware costs and net ordering).

``BaselineRouter`` is the comparison router of Section IV-A: global
routing without the line-end term (NTUgr-style), conventional layer
assignment (maximum-spanning-tree coloring, segment density only),
conventional track assignment (segments landing on stitching-line
tracks are ripped up and routed directly in detailed routing), and
detailed routing without the stitch costs — but with the same hard
legality (wires only cross stitching lines in the x direction), so it
also produces zero vertical routing violations.  Both routers run the
same sequence and differ only in these stage policies.

Both routers take a single :class:`~repro.config.RouterConfig` and an
optional :class:`~repro.observe.Tracer`; every run produces a
:class:`~repro.observe.RunTrace` with per-stage spans and counters,
attached to both the :class:`FlowResult` and its report.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from ..assign import (
    DesignTrackAssignment,
    LayerAssignment,
    assign_layers,
    assign_tracks,
    extract_panels,
)
from ..config import ColoringMethod, RouterConfig, TrackMethod
from ..detailed import DetailedResult, DetailedRouter
from ..eval import RoutingReport, evaluate
from ..globalroute import GlobalGraph, GlobalRouter, GlobalRoutingResult
from ..layout import Design
from ..multilevel import MultilevelScheme
from ..observe import RunTrace, Tracer, ensure


@dataclasses.dataclass
class FlowResult:
    """Everything produced by one full routing flow."""

    design: Design
    global_result: GlobalRoutingResult
    layer_assignment: LayerAssignment
    track_assignment: DesignTrackAssignment
    detailed_result: DetailedResult
    report: RoutingReport
    cpu_seconds: float
    #: Per-stage observability trace of this run.
    trace: Optional[RunTrace] = None


class StitchAwareRouter:
    """The proposed stitch-aware routing framework.

    Args:
        config: the flow's knob set.  The routing-policy fields are
            ``track_method`` (GRAPH by default; ILP reproduces the
            Table VII column at the documented runtime cost),
            ``coloring`` (FLOW = ours), and the ablation switches
            ``stitch_aware_global`` / ``stitch_aware_detail`` for
            Tables IV and VIII.
    """

    def __init__(self, *, config: Optional[RouterConfig] = None) -> None:
        self.config = config if config is not None else RouterConfig()

    def route(
        self, design: Design, *, tracer: Optional[Tracer] = None
    ) -> FlowResult:
        """Run the full two-pass flow (Fig. 6) on ``design``.

        Each step is one top-level span of the trace: ``levelize``
        (one ``level`` span per coarsening level, with its net count),
        ``pass1`` (global routing), ``assign`` (layer and track
        assignment) and ``pass2`` (detailed routing in the scheme's
        bottom-up order); the stages nest their own spans underneath.

        Args:
            design: the routing instance.
            tracer: observability sink; a fresh one is created when
                omitted.  The finished :class:`RunTrace` is attached to
                the result and its report either way.
        """
        tracer = ensure(tracer)
        start = time.perf_counter()
        config = self.config
        # The multilevel scheme needs the tile grid dimensions, which
        # the global graph defines.
        scheme = MultilevelScheme(design, *GlobalGraph.grid_shape(design))
        with tracer.span("levelize", levels=scheme.num_levels):
            by_level = scheme.nets_by_level()
            for level in range(scheme.num_levels):
                # One marker span per level records its net count.
                nets = len(by_level.get(level, []))
                with tracer.span("level", level=level, nets=nets):
                    pass
            ordered = scheme.bottom_up_order()

        with tracer.span("pass1"):
            # Pass 1 routes in the global router's own (tile extent,
            # hpwl, name) order, not the scheme's.
            global_result = GlobalRouter(
                stitch_aware=config.stitch_aware_global,
                profile=config.profile,
            ).route(design, tracer=tracer)
        with tracer.span("assign"):
            columns, rows = extract_panels(global_result)
            layers = assign_layers(
                columns,
                rows,
                design.technology,
                method=config.coloring,
                tracer=tracer,
            )
            tracks = assign_tracks(
                design,
                global_result.graph,
                layers,
                method=config.track_method,
                tracer=tracer,
            )
        with tracer.span("pass2"):
            detailed_result = DetailedRouter(
                stitch_aware=config.stitch_aware_detail,
                profile=config.profile,
            ).route(
                design,
                global_result.graph,
                tracks,
                order=ordered,
                tracer=tracer,
            )

        report = evaluate(detailed_result)
        # The report's columns join the run's counters at the trace
        # root, so the gate baselines pin them beside the work counts.
        tracer.count("routed_nets", report.routed_nets)
        tracer.count("wirelength", report.wirelength)
        tracer.count("vias", report.vias)
        tracer.count("via_violations", report.via_violations)
        tracer.count("vertical_violations", report.vertical_violations)
        tracer.count("short_polygons", report.short_polygons)
        elapsed = time.perf_counter() - start
        report.cpu_seconds = elapsed
        meta = {
            "track_method": config.track_method.value,
            "coloring": config.coloring.value,
            "stitch_aware_global": config.stitch_aware_global,
            "stitch_aware_detail": config.stitch_aware_detail,
        }
        if config.profile != "off":
            # Only stamped when enabled so default-config traces stay
            # byte-compatible with the committed baselines.
            meta["profile"] = config.profile
        trace = tracer.finish(
            router=type(self).__name__,
            design=design.name,
            meta=meta,
        )
        report.trace = trace
        return FlowResult(
            design=design,
            global_result=global_result,
            layer_assignment=layers,
            track_assignment=tracks,
            detailed_result=detailed_result,
            report=report,
            cpu_seconds=elapsed,
            trace=trace,
        )


class BaselineRouter(StitchAwareRouter):
    """The conventional router compared against in Table III.

    Accepts a ``config`` like :class:`StitchAwareRouter` but pins the
    four policy flags to the baseline settings of Section IV-A.
    """

    def __init__(self, *, config: Optional[RouterConfig] = None) -> None:
        base = config if config is not None else RouterConfig()
        super().__init__(
            config=dataclasses.replace(
                base,
                track_method=TrackMethod.BASELINE,
                coloring=ColoringMethod.MST,
                stitch_aware_global=False,
                stitch_aware_detail=False,
            )
        )
