"""Canonical schema registry for every observability name.

Every counter, gauge, span, and progress kind the router can emit is
declared here, once, with its owner stage and category.  The registry
is the single source of truth that used to be scattered across ad-hoc
lists: the regression gate's ``perf_*`` strip prefix and the ``repro
watch`` monitor's notable-counter picks both derive from it now, and
the lint rule OBS001 fails any emission whose name is missing here.

Identity is ``(kind, name)`` — names may repeat across kinds (the
multilevel scheme emits a ``level`` *span* carrying a ``level``
*gauge*) but never within one.  The live-run completeness test
(``tests/observe/test_schema.py``) routes a real circuit under both
profile levels and requires every emitted name to be registered.

Categories partition the vocabulary by contract: ``routing`` metrics
are the deterministic ones the committed baselines pin exactly,
while ``profiling`` counters exist only under
``RouterConfig(profile="counters")`` and are strippable.  They own
the name prefix :data:`PROFILING_PREFIX`, and the module refuses to
import if a name carrying it is registered under another category —
the prefix-based scrub in ``benchmarks/regression.py`` and the
category-based view here can never disagree.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

#: The four observability primitives a tracer records.
KINDS = ("counter", "gauge", "span", "progress")

#: Name prefix owned by the strippable ``profiling`` category.  The
#: regression gate scrubs by prefix; the registry enforces at import
#: time that every name carrying it is registered as ``profiling``.
PROFILING_PREFIX = "perf_"


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """One registered observability name.

    Attributes:
        name: the emitted name, exactly as it appears in a trace.
        kind: one of :data:`KINDS`.
        stages: owner stages (``global`` / ``detailed`` / ``assign`` /
            ``multilevel`` / ``flow``).
        category: contract family — ``routing`` names are part of the
            deterministic surface the baselines pin; ``profiling``
            names (:data:`PROFILING_PREFIX`) are strippable.
        history: 0 for untracked, else the 1-based position among
            the counters ``repro watch`` echoes when a top-level span
            closes (:func:`history_counters`).
        description: one-line meaning, for docs and ``trace show``.
    """

    name: str
    kind: str
    stages: frozenset[str]
    category: str
    history: int = 0
    description: str = ""


_REGISTRY: dict[tuple[str, str], MetricSpec] = {}


def _register(
    name: str,
    kind: str,
    stages: frozenset[str],
    category: str,
    description: str,
    history: int = 0,
) -> None:
    key = (kind, name)
    if kind not in KINDS:
        raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
    if key in _REGISTRY:
        raise ValueError(f"duplicate registration: {kind} {name!r}")
    _REGISTRY[key] = MetricSpec(
        name=name,
        kind=kind,
        stages=frozenset(stages),
        category=category,
        history=history,
        description=description,
    )


_GLOBAL = frozenset({"global"})
_DETAILED = frozenset({"detailed"})
_BOTH_ROUTE = frozenset({"global", "detailed"})
_ASSIGN = frozenset({"assign"})
_MULTILEVEL = frozenset({"multilevel"})
_FLOW = frozenset({"flow"})

# -- routing counters: the deterministic surface ----------------------
_register(
    "maze_expansions", "counter", _GLOBAL, "routing",
    "Tiles popped by the negotiated-congestion maze search.",
    history=1,
)
_register(
    "nets_routed", "counter", _GLOBAL, "routing",
    "Nets the global stage connected.",
)
_register(
    "ripup_victims", "counter", _GLOBAL, "routing",
    "Nets torn up by global negotiation rounds.",
)
_register(
    "failed_nets", "counter", _BOTH_ROUTE, "routing",
    "Nets left unrouted when a stage gave up.",
    history=5,
)
_register(
    "nets_attempted", "counter", _DETAILED, "routing",
    "Nets the detailed stage tried to realize.",
)
_register(
    "first_pass_failed", "counter", _DETAILED, "routing",
    "Nets whose first detailed pass missed and queued for rip-up.",
)
_register(
    "stitch_cost_evaluations", "counter", _DETAILED,
    "routing",
    "Stitch-aware cost terms evaluated during detailed search.",
)
_register(
    "ripup_rounds", "counter", _DETAILED, "routing",
    "Detailed rip-up-and-reroute rounds executed.",
    history=4,
)
_register(
    "reroutes", "counter", _DETAILED, "routing",
    "Nets rerouted inside detailed rip-up rounds.",
)
_register(
    "astar_searches", "counter", _DETAILED, "routing",
    "Windowed A* searches launched by the detailed stage.",
    history=2,
)
_register(
    "astar_expansions", "counter", _DETAILED, "routing",
    "Grid nodes expanded across all detailed A* searches.",
    history=3,
)
_register(
    "astar_failed_expansions", "counter", _DETAILED, "routing",
    "Grid nodes expanded by detailed A* searches that found no path.",
)
_register(
    "separations_proved", "counter", _DETAILED, "routing",
    "Detailed connections proved impossible in the widest window, "
    "whose wider retries were skipped.",
)
_register(
    "panels", "counter", _ASSIGN, "routing",
    "Track-assignment panels processed.",
)
_register(
    "conflict_vertices", "counter", _ASSIGN, "routing",
    "Vertices of the layer-assignment conflict graph.",
)
_register(
    "conflict_edges", "counter", _ASSIGN, "routing",
    "Edges of the layer-assignment conflict graph.",
)
_register(
    "flow_augmentations", "counter", _ASSIGN, "routing",
    "Augmenting paths pushed by the flow-based coloring.",
)
_register(
    "flow_rounds", "counter", _ASSIGN, "routing",
    "Rounds of the flow-based coloring loop.",
)
_register(
    "failed_segments", "counter", _ASSIGN, "routing",
    "Trunk segments track assignment could not place.",
)
_register(
    "bad_ends", "counter", _ASSIGN, "routing",
    "Segment endpoints left off-track after assignment.",
)
_register(
    "track_graph_nodes", "counter", _ASSIGN, "routing",
    "Nodes of the track-assignment interval graph.",
)
_register(
    "track_baseline_segments", "counter", _ASSIGN,
    "routing",
    "Segments placed by the greedy track-assignment baseline.",
)
_register(
    "track_ilp_variables", "counter", _ASSIGN, "routing",
    "Decision variables of the track-assignment ILP.",
)

# -- report columns, counted at the trace root after evaluation -------
for _name, _desc in (
    ("routed_nets", "Nets the final solution routes (Rout. column)."),
    ("wirelength", "Wirelength of the final solution (WL column)."),
    ("vias", "Vias of the final solution (#Via column)."),
    ("via_violations", "Vias cut by a stitching line (#VV column)."),
    ("vertical_violations", "Vertical wire on a stitching line."),
    ("short_polygons", "Short polygons of routed nets (#SP column)."),
):
    _register(_name, "counter", _FLOW, "routing", _desc)

# -- profiling counters (RouterConfig.profile) ------------------------
_register(
    "perf_maze_heap_pushes", "counter", _GLOBAL,
    "profiling",
    "Heap pushes by the global maze search (profile mode).",
)
_register(
    "perf_maze_heap_pops", "counter", _GLOBAL,
    "profiling",
    "Heap pops by the global maze search (profile mode).",
)
_register(
    "perf_cache_refreshes", "counter", _GLOBAL, "profiling",
    "Full cost-cache rebuilds by the global graph.",
)
_register(
    "perf_cache_updates", "counter", _GLOBAL, "profiling",
    "Incremental cost-cache updates by the global graph.",
)
_register(
    "perf_heap_pushes", "counter", _DETAILED,
    "profiling",
    "Heap pushes by detailed A* (profile mode).",
)
_register(
    "perf_heap_pops", "counter", _DETAILED, "profiling",
    "Heap pops by detailed A* (profile mode).",
)
_register(
    "perf_ripup_net_visits", "counter", _DETAILED,
    "profiling",
    "Net visits across detailed rip-up rounds (profile mode).",
)

# -- routing gauges ---------------------------------------------------
_register(
    "edge_overflow", "gauge", _GLOBAL, "routing",
    "Total edge-capacity overflow after a negotiation round.",
)
_register(
    "vertex_overflow", "gauge", _GLOBAL, "routing",
    "Total vertex-capacity overflow after a negotiation round.",
)
_register(
    "conflict_weight", "gauge", _ASSIGN, "routing",
    "Total weight of the layer-assignment conflict graph.",
)
_register(
    "coloring_cost", "gauge", _ASSIGN, "routing",
    "Objective value of the chosen layer coloring.",
)
_register(
    "max_cut_weight", "gauge", _ASSIGN, "routing",
    "Best cut weight seen by the coloring search.",
)
_register(
    "column_problems", "gauge", _ASSIGN, "routing",
    "Column panel problems solved by track assignment.",
)
_register(
    "row_problems", "gauge", _ASSIGN, "routing",
    "Row panel problems solved by track assignment.",
)
_register(
    "method", "gauge", _ASSIGN, "routing",
    "Track-assignment method actually used (string-valued; recorded "
    "as a span attribute on track-assign).",
)

# -- span-attribute gauges (keyword arguments to tracer.span) ---------
_register(
    "nets", "gauge", _DETAILED | _MULTILEVEL, "routing",
    "Net count attribute on detailed-route and level spans.",
)
_register(
    "levels", "gauge", _MULTILEVEL, "routing",
    "Level count attribute on the levelize span.",
)
_register(
    "level", "gauge", _MULTILEVEL, "routing",
    "Level index attribute on level spans.",
)
_register(
    "round", "gauge", _BOTH_ROUTE, "routing",
    "Round index attribute on negotiation-round / ripup-round spans.",
)
_register(
    "queued", "gauge", _DETAILED, "routing",
    "Rip-up queue depth attribute on ripup-round spans.",
)

# -- spans ------------------------------------------------------------
for _name, _stages, _desc in (
    ("global-route", _GLOBAL, "Whole global-routing stage."),
    ("graph-build", _GLOBAL, "Tile-graph construction."),
    ("initial-pass", _GLOBAL, "First uncongested global pass."),
    ("negotiation-round", _GLOBAL, "One negotiated-congestion round."),
    ("detailed-route", _DETAILED, "Whole detailed-routing stage."),
    ("grid-build", _DETAILED, "Detailed grid construction."),
    ("trunks", _DETAILED, "Trunk realization from track assignment."),
    ("first-pass", _DETAILED, "First detailed pass over all nets."),
    ("ripup-round", _DETAILED, "One detailed rip-up round."),
    (
        "short-polygon-repair", _DETAILED,
        "Post-pass short-polygon stitch repair.",
    ),
    ("layer-assign", _ASSIGN, "Layer-assignment stage."),
    ("track-assign", _ASSIGN, "Track-assignment stage."),
    ("levelize", _MULTILEVEL, "Net-to-level scheduling."),
    ("level", _MULTILEVEL, "One multilevel scheduling level."),
    ("pass1", _MULTILEVEL, "Multilevel pass 1 (global)."),
    ("assign", _MULTILEVEL, "Multilevel assignment pass."),
    ("pass2", _MULTILEVEL, "Multilevel pass 2 (detailed)."),
):
    _register(_name, "span", _stages, "routing", _desc)

# -- progress kinds ---------------------------------------------------
_register(
    "net", "progress", _BOTH_ROUTE, "routing",
    "Per-net completion event (fields: stage, net, routed).",
)


def _check_prefix_discipline() -> None:
    """A metric carrying the profiling prefix must be ``profiling``."""
    for spec in _REGISTRY.values():
        if (
            spec.kind in ("counter", "gauge")
            and spec.name.startswith(PROFILING_PREFIX)
            and spec.category != "profiling"
        ):
            raise ValueError(
                f"{spec.kind} {spec.name!r} carries the profiling "
                f"prefix but is registered as {spec.category!r}"
            )


_check_prefix_discipline()


def lookup(kind: str, name: str) -> Optional[MetricSpec]:
    """The spec registered for ``(kind, name)``, or ``None``."""
    return _REGISTRY.get((kind, name))


def is_registered(kind: str, name: str) -> bool:
    """Whether ``(kind, name)`` is a declared observability name."""
    return (kind, name) in _REGISTRY


def metric_specs(
    kind: Optional[str] = None,
    *,
    stage: Optional[str] = None,
    category: Optional[str] = None,
) -> tuple[MetricSpec, ...]:
    """Registered specs, filtered; registration order preserved."""
    out = []
    for spec in _REGISTRY.values():
        if kind is not None and spec.kind != kind:
            continue
        if stage is not None and stage not in spec.stages:
            continue
        if category is not None and spec.category != category:
            continue
        out.append(spec)
    return tuple(out)


def metric_names(
    kind: Optional[str] = None,
    *,
    stage: Optional[str] = None,
    category: Optional[str] = None,
) -> tuple[str, ...]:
    """Registered names, filtered like :func:`metric_specs`."""
    return tuple(
        spec.name
        for spec in metric_specs(kind, stage=stage, category=category)
    )


def history_counters() -> tuple[str, ...]:
    """Counters ``repro watch`` echoes when a top-level span closes.

    Ordered by their declared ``history`` rank, which fixes the order
    the monitor prints them in.
    """
    ranked = [
        spec
        for spec in _REGISTRY.values()
        if spec.kind == "counter" and spec.history
    ]
    ranked.sort(key=lambda spec: spec.history)
    return tuple(spec.name for spec in ranked)


__all__ = [
    "KINDS",
    "MetricSpec",
    "PROFILING_PREFIX",
    "history_counters",
    "is_registered",
    "lookup",
    "metric_names",
    "metric_specs",
]
