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
import math
import operator
import os


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
    ``design.config``).  The four counts are integers (anything
    :func:`operator.index` accepts, stored as ``int``; ``epsilon`` and
    ``escape_width`` non-negative) and the three weights finite and
    non-negative; a malformed value raises ``ValueError`` naming its
    field:

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
        profile: profiling level.  ``"off"`` (the default) keeps
            the hot loops byte-identical to the committed baselines;
            ``"counters"`` flushes low-overhead search counters (heap
            pushes/pops, rip-up net visits, cost-cache refreshes) into
            ``perf_*`` trace counters at stage boundaries.
            ``perf_*`` counters are namespaced so identity gates strip
            them (see ``docs/observability.md``).  Per-net progress
            needs no profile: the routers always hand it to the
            tracer's listeners.

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
        for name in ("stitch_spacing", "epsilon", "escape_width", "tile_size"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {value!r}"
                ) from None
        if self.stitch_spacing < 3:
            raise ValueError("stitch_spacing must be at least 3 pitches")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.escape_width < 0:
            raise ValueError("escape_width must be non-negative")
        if self.epsilon * 2 + 1 >= self.stitch_spacing:
            raise ValueError(
                "stitch unfriendly regions of adjacent stitching lines overlap: "
                f"epsilon={self.epsilon}, stitch_spacing={self.stitch_spacing}"
            )
        if self.tile_size < 2:
            raise ValueError("tile_size must be at least 2 pitches")
        for name in ("alpha", "beta", "gamma"):
            # The A* searches need step costs that are non-negative
            # and comparable: a NaN weight fails every relaxation test.
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"cost weight {name} must be finite and non-negative, "
                    f"got {value!r}"
                )
        if self.profile not in ("off", "counters"):
            raise ValueError(
                f"profile must be 'off' or 'counters', got {self.profile!r}"
            )


DEFAULT_CONFIG = RouterConfig()


def benchmark_scale(default: float = 0.1) -> float:
    """Return the benchmark size scale factor.

    The paper's largest circuits have tens of thousands of nets, which a
    C++ router handles in seconds but is slow in pure Python.  Benchmarks
    therefore run on size-scaled instances by default.  Area shrinks with
    the net count, so pin density is preserved, but congestion is not:
    each net spans ``locality * min(width, height)``, which grows with
    √scale, so larger scales make more congested instances (ROADMAP
    item "Make the scale knob change size, not difficulty").
    Set the environment variable ``REPRO_FULL=1`` for full-size
    instances, or ``REPRO_SCALE=<float>`` for an explicit factor.
    Factors above 1 (up to 100) grow the instance beyond the paper's
    statistics, for workloads large enough that wall-clock
    measurements are meaningful.

    Raises:
        ValueError: ``REPRO_SCALE`` is not a number in (0, 100].
    """
    if os.environ.get("REPRO_FULL") == "1":
        return 1.0
    value = os.environ.get("REPRO_SCALE")
    if value is not None:
        message = f"REPRO_SCALE must be in (0, 100], got {value!r}"
        try:
            scale = float(value)
        except ValueError:
            raise ValueError(message) from None
        if not 0.0 < scale <= 100.0:
            raise ValueError(message)
        return scale
    return default
