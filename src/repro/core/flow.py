"""The full stitch-aware routing flow and its baseline (Table III).

``StitchAwareRouter`` wires the stage implementations into the two-pass
bottom-up multilevel framework of Fig. 6: stitch-aware global routing,
stitch-aware layer assignment (flow-based coloring), short-polygon-
avoiding track assignment (graph heuristic or ILP), and stitch-aware
detailed routing.

``BaselineRouter`` is the comparison router of Section IV-A: global
routing without the line-end term (NTUgr-style), conventional layer
assignment (maximum-spanning-tree coloring, segment density only),
conventional track assignment (segments landing on stitching-line
tracks are ripped up and routed directly in detailed routing), and
detailed routing without the stitch costs — but with the same hard
legality (wires only cross stitching lines in the x direction), so it
also produces zero vertical routing violations.

Both routers take a single :class:`~repro.config.RouterConfig` and an
optional :class:`~repro.observe.Tracer`; every run produces a
:class:`~repro.observe.RunTrace` with per-stage spans and counters,
attached to both the :class:`FlowResult` and its report.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Optional

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
from ..multilevel import MultilevelScheme, TwoPassFramework
from ..observe import RunTrace, Tracer, ensure

if TYPE_CHECKING:  # runtime import stays lazy (analysis is optional here)
    from ..analysis import AuditReport


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
    #: Independent solution audit (:mod:`repro.analysis.audit`);
    #: attached only when the flow ran with ``config.audit=True``.
    audit: Optional["AuditReport"] = None


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

    # -- config aliases (read-only views used throughout tests/docs) ---
    @property
    def track_method(self) -> TrackMethod:
        """Track-assignment policy (from :attr:`config`)."""
        return self.config.track_method

    @property
    def coloring(self) -> ColoringMethod:
        """Layer-assignment coloring policy (from :attr:`config`)."""
        return self.config.coloring

    @property
    def stitch_aware_global(self) -> bool:
        """Global-routing ablation switch (from :attr:`config`)."""
        return self.config.stitch_aware_global

    @property
    def stitch_aware_detail(self) -> bool:
        """Detailed-routing ablation switch (from :attr:`config`)."""
        return self.config.stitch_aware_detail

    def route(
        self, design: Design, *, tracer: Optional[Tracer] = None
    ) -> FlowResult:
        """Run the full two-pass flow (Fig. 6) on ``design``.

        Args:
            design: the routing instance.
            tracer: observability sink; a fresh one is created when
                omitted.  The finished :class:`RunTrace` is attached to
                the result and its report either way.
        """
        tracer = ensure(tracer)
        start = time.perf_counter()
        config = self.config

        def global_stage(d: Design) -> GlobalRoutingResult:
            # Pass 1: bottom-up global routing of local nets first, in
            # the router's own (tile extent, hpwl, name) order.
            return GlobalRouter(
                stitch_aware=config.stitch_aware_global,
                profile=config.profile,
            ).route(d, tracer=tracer)

        def assign_stage(d: Design, global_result: GlobalRoutingResult):
            columns, rows = extract_panels(global_result)
            layers = assign_layers(
                columns,
                rows,
                d.technology,
                method=config.coloring,
                tracer=tracer,
            )
            tracks = assign_tracks(
                d,
                global_result.graph,
                layers,
                method=config.track_method,
                tracer=tracer,
            )
            return layers, tracks

        def detail_stage(d: Design, global_result, assigned, ordered):
            _layers, tracks = assigned
            return DetailedRouter(
                stitch_aware=config.stitch_aware_detail,
                profile=config.profile,
            ).route(
                d,
                global_result.graph,
                tracks,
                order_hint=ordered,
                tracer=tracer,
            )

        # The multilevel scheme needs the tile grid dimensions, which
        # the global graph defines.
        nx, ny = GlobalGraph.grid_shape(design)
        scheme = MultilevelScheme(design, nx, ny)
        framework = TwoPassFramework(global_stage, assign_stage, detail_stage)
        outcome = framework.run(design, scheme, tracer=tracer)

        layers, tracks = outcome.assign_result
        report = evaluate(outcome.detail_result)
        # The report's columns join the run's counters at the trace
        # root, so the gate baselines pin them beside the work counts.
        tracer.count("routed_nets", report.routed_nets)
        tracer.count("wirelength", report.wirelength)
        tracer.count("vias", report.vias)
        tracer.count("via_violations", report.via_violations)
        tracer.count("vertical_violations", report.vertical_violations)
        tracer.count("short_polygons", report.short_polygons)
        audit_report: Optional[AuditReport] = None
        if config.audit:
            # Lazy import: the analysis package is a consumer of the
            # routing packages, so core must not import it eagerly.
            from ..analysis import audit_solution

            with tracer.span("audit") as span:
                audit_report = audit_solution(
                    outcome.detail_result, report, outcome.global_result
                )
                span.count("audit_nets_checked", audit_report.nets_checked)
                span.count("audit_findings", len(audit_report.findings))
                span.count("audit_drift", len(audit_report.drift))
        elapsed = time.perf_counter() - start
        report.cpu_seconds = elapsed
        meta = {
            "track_method": config.track_method.value,
            "coloring": config.coloring.value,
            "stitch_aware_global": config.stitch_aware_global,
            "stitch_aware_detail": config.stitch_aware_detail,
        }
        if config.audit:
            # Only stamped when enabled so default-config traces stay
            # byte-compatible with the committed baselines.
            meta["audit"] = True
        if config.profile != "off":
            # Same compatibility rule as the audit stamp.
            meta["profile"] = config.profile
        trace = tracer.finish(
            router=type(self).__name__,
            design=design.name,
            meta=meta,
        )
        report.trace = trace
        return FlowResult(
            design=design,
            global_result=outcome.global_result,
            layer_assignment=layers,
            track_assignment=tracks,
            detailed_result=outcome.detail_result,
            report=report,
            cpu_seconds=elapsed,
            trace=trace,
            audit=audit_report,
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
