"""Global configuration for the stitch-aware routing framework.

The defaults follow the experimental setup of the paper (Section IV):

* the distance between two stitching lines is 15 routing pitches and the
  stitching lines are uniformly distributed over the layout;
* the tracks adjacent to a stitching line fall into the stitch unfriendly
  region (``epsilon = 1`` track on each side);
* the *escape region* used by the stitch-aware detailed router is the four
  tracks nearest to a stitching line (Section III-D1);
* the detailed-routing cost weights of Eq. (10) are ``alpha = 1``,
  ``beta = 10`` and ``gamma = 5``.

All distances are expressed in routing pitches (one grid unit equals one
routing pitch).
"""

from __future__ import annotations

import dataclasses
import enum
import importlib.util
import os
from typing import Union


class Engine(enum.Enum):
    """Which routing-engine implementation the flow runs on.

    Both engines execute the *same algorithms* and produce byte-identical
    :class:`~repro.eval.RoutingReport` documents (counters, histograms,
    traces modulo wall times); they differ only in their data layout:

    * ``OBJECT`` — the reference implementation: dict/tuple object
      graphs, one Python object per grid node.
    * ``ARRAY`` — the :mod:`repro.engine` array core: flat node-indexed
      base-cost/ownership arrays built once per stage and an indexed A*
      that works on integer node ids (see ``docs/performance.md``).
    * ``AUTO`` — ``ARRAY`` when numpy is importable, else ``OBJECT``.
    """

    OBJECT = "object"
    ARRAY = "array"
    AUTO = "auto"


def resolve_engine(engine: Union[Engine, str] = Engine.AUTO) -> Engine:
    """Concrete engine for a requested value.

    ``AUTO`` resolves to :attr:`Engine.ARRAY` when numpy is importable
    (it is a project dependency, so effectively always) and falls back
    to :attr:`Engine.OBJECT` on minimal installs.
    """
    if isinstance(engine, str):
        engine = Engine(engine)
    if engine is not Engine.AUTO:
        return engine
    if importlib.util.find_spec("numpy") is not None:
        return Engine.ARRAY
    return Engine.OBJECT


class ColoringMethod(enum.Enum):
    """Which max-cut k-coloring heuristic layer assignment uses."""

    MST = "mst"
    FLOW = "flow"


class TrackMethod(enum.Enum):
    """Which column-panel track assignment algorithm to run."""

    BASELINE = "baseline"
    ILP = "ilp"
    GRAPH = "graph"


@dataclasses.dataclass(frozen=True)
class RouterConfig:
    """Parameters shared by every stage of the routing framework.

    Geometry/cost attributes (used by the stages through
    ``design.config``):

    Attributes:
        stitch_spacing: distance between two stitching lines, in pitches.
        epsilon: half-width of the stitch unfriendly region, in tracks.
        escape_width: width of the escape region on each side of a
            stitching line, in tracks (Section III-D1 uses four).
        tile_size: edge length of a level-0 global routing tile, in
            pitches.  Aligned to ``stitch_spacing`` by default so each
            tile boundary layout is identical.
        alpha: wirelength weight in the detailed routing cost, Eq. (10).
        beta: via-in-stitch-unfriendly-region weight in Eq. (10).
        gamma: escape-region weight in Eq. (10).  The paper requires
            ``beta`` to be much larger than ``gamma``.
        max_ripup_iterations: rip-up and re-route rounds for failed nets.
        detail_expansion_limit: A* node-expansion budget per net and
            attempt; keeps worst-case detailed routing bounded.
        engine: routing-engine implementation (:class:`Engine` or its
            string form).  ``"object"`` is the reference object-graph
            implementation, ``"array"`` the :mod:`repro.engine` array
            core, and ``"auto"`` (the default) picks the array core
            whenever numpy is importable.  Both engines produce
            byte-identical reports — the engine is a pure performance
            knob (see ``docs/performance.md``).
        workers: routing worker threads.  ``1`` (the default) runs the
            unchanged serial code path; ``N > 1`` routes conflict-free
            net batches concurrently and merges them deterministically,
            so the report is byte-identical to the serial one (see
            ``docs/parallelism.md``).
        sanitize: enable the speculation-footprint sanitizer: workers
            route against instrumented overlays that record every
            shared-state access and raise
            :class:`~repro.analysis.SanitizerViolation` on any access
            outside the declared read/write footprints (see
            ``docs/static_analysis.md``).  Adds overhead; only
            meaningful with ``workers > 1`` (serial routing does not
            speculate).
        audit: run the independent solution auditor
            (:func:`repro.analysis.audit_solution`) on the final
            result and attach its :class:`~repro.analysis.AuditReport`
            to the flow result (``FlowResult.audit``), with
            ``audit_*`` counters in the trace.  The audit re-derives
            every stitching constraint with its own geometry code and
            cross-checks the report's counters; it observes and
            reports but never alters the routing (see
            ``docs/static_analysis.md``).
        profile: engine profiling level.  ``"off"`` (the default) keeps
            the hot loops byte-identical to the committed baselines;
            ``"counters"`` flushes low-overhead engine counters (heap
            pushes/pops, overlay reads/writes, rip-up net visits,
            cost-cache refreshes) into ``perf_*`` trace counters at
            stage boundaries; ``"full"`` additionally emits per-net
            ``progress`` events through the tracer (visible when the
            tracer is a :class:`~repro.observe.StreamingTracer`).
            ``perf_*`` counters are namespaced so identity gates strip
            them (see ``docs/observability.md``).

    Stage-policy attributes (consumed by the router constructors; the
    ablation switches of Tables IV and VIII):

    Attributes:
        track_method: which short-polygon-avoiding track assignment to
            run (GRAPH by default; ILP reproduces the Table VII column
            at the documented runtime cost).
        coloring: layer-assignment coloring heuristic (FLOW = ours,
            MST = the conventional baseline).
        stitch_aware_global: include the vertex (line-end) congestion
            term of Eqs. (2)–(3) in global routing.
        stitch_aware_detail: include the beta/gamma costs and the
            stitch-aware net ordering in detailed routing.
    """

    stitch_spacing: int = 15
    epsilon: int = 1
    escape_width: int = 4
    tile_size: int = 15
    alpha: float = 1.0
    beta: float = 10.0
    gamma: float = 5.0
    max_ripup_iterations: int = 5
    detail_expansion_limit: int = 200_000
    engine: Engine = Engine.AUTO
    workers: int = 1
    sanitize: bool = False
    audit: bool = False
    profile: str = "off"
    track_method: TrackMethod = TrackMethod.GRAPH
    coloring: ColoringMethod = ColoringMethod.FLOW
    stitch_aware_global: bool = True
    stitch_aware_detail: bool = True

    def __post_init__(self) -> None:
        # Accept the string forms of the policy enums (JSON round trips,
        # CLI flags) and normalize to the enum members.
        if isinstance(self.track_method, str):
            object.__setattr__(
                self, "track_method", TrackMethod(self.track_method)
            )
        if isinstance(self.coloring, str):
            object.__setattr__(
                self, "coloring", ColoringMethod(self.coloring)
            )
        if isinstance(self.engine, str):
            object.__setattr__(self, "engine", Engine(self.engine))
        if not isinstance(self.engine, Engine):
            raise ValueError(
                f"engine must be an Engine or one of "
                f"{[e.value for e in Engine]}, got {self.engine!r}"
            )
        if self.stitch_spacing < 3:
            raise ValueError("stitch_spacing must be at least 3 pitches")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.epsilon * 2 + 1 >= self.stitch_spacing:
            raise ValueError(
                "stitch unfriendly regions of adjacent stitching lines overlap: "
                f"epsilon={self.epsilon}, stitch_spacing={self.stitch_spacing}"
            )
        if self.tile_size < 2:
            raise ValueError("tile_size must be at least 2 pitches")
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("cost weights must be non-negative")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ValueError(f"workers must be an int, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if not isinstance(self.sanitize, bool):
            raise ValueError(f"sanitize must be a bool, got {self.sanitize!r}")
        if not isinstance(self.audit, bool):
            raise ValueError(f"audit must be a bool, got {self.audit!r}")
        if self.profile not in ("off", "counters", "full"):
            raise ValueError(
                "profile must be one of 'off', 'counters', 'full', "
                f"got {self.profile!r}"
            )


DEFAULT_CONFIG = RouterConfig()


def benchmark_scale(default: float = 0.1) -> float:
    """Return the benchmark size scale factor.

    The paper's largest circuits have tens of thousands of nets, which a
    C++ router handles in seconds but is slow in pure Python.  Benchmarks
    therefore run on size-scaled instances by default (area shrinks with
    the net count, so congestion ratios are preserved).  Set the
    environment variable ``REPRO_FULL=1`` for full-size instances, or
    ``REPRO_SCALE=<float>`` for an explicit factor.  Factors above 1
    (up to 100) grow the instance beyond the paper's statistics —
    engine-speedup measurements use them to build workloads large
    enough that wall-clock ratios are meaningful.
    """
    if os.environ.get("REPRO_FULL") == "1":
        return 1.0
    value = os.environ.get("REPRO_SCALE")
    if value is not None:
        scale = float(value)
        if not 0.0 < scale <= 100.0:
            raise ValueError(f"REPRO_SCALE must be in (0, 100], got {scale}")
        return scale
    return default
