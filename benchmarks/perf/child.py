"""One pass of one workload, in a fresh interpreter.

``run.py`` starts one child per pass, so every pass pays interpreter
start-up, the import of ``repro`` and design generation the way a
user's fresh process does.  The request is one JSON argument::

    {"workload": "ripup_s13207_10x", "scale": 0.2, "seed": 3,
     "mode": "untraced"}

``mode`` is ``untraced`` (routing with ``profile="off"``), ``traced``
(``profile="counters"``, a benchmark-owned ``Tracer`` per route call,
and timing wrappers around the flow's stage entry points) or ``setup``
(set-up alone, no routing).  Set-up and
each ``route()`` call are timed under a ``SpeedProbe``, in CPU time,
with samples of how fast the CPU runs meanwhile.  The child prints one
JSON line.

The child calls only ``repro.api``, ``repro.benchmarks_gen`` and
``repro.globalroute.GlobalRouter``.  The timing wrappers are the one
exception: they patch names in the module that defines the flow, and a
name that has gone is reported as absent instead of failing the pass.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import inspect
import json
import pathlib
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from collections.abc import Iterable
from typing import Any, Callable

from workloads import WORKLOADS, Workload

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Counter prefixes of bookkeeping rather than routing behaviour
#: (profiling, scheduling, streaming, sanitizer).  The determinism
#: signature leaves them out, so a traced pass compares equal to an
#: untraced one.
BOOKKEEPING_PREFIXES = ("perf_", "parallel_", "stream_", "sanitize_")

#: Wrapped entry points: (layer metric, where the target lives, name).
#: ``flow`` is the module defining ``StitchAwareRouter``.
WRAPPED = (
    ("globalroute.route_s", "GlobalRouter", "route"),
    ("assign.layer_s", "flow", "assign_layers"),
    ("assign.track_s", "flow", "assign_tracks"),
    ("detailed.route_s", "DetailedRouter", "route"),
    ("eval.evaluate_s", "flow", "evaluate"),
)

#: Trace spans the wrapped totals are checked against.
WRAPPED_SPANS = {
    "globalroute.route_s": "global-route",
    "assign.layer_s": "layer-assign",
    "assign.track_s": "track-assign",
    "detailed.route_s": "detailed-route",
}

#: Rip-up rounds timed one by one: the default ``max_ripup_iterations``.
RIPUP_ROUNDS = 5

#: Loop steps of one speed sample.
SPIN_STEPS = 3000
#: The time of one speed sample at the reference speed, which every
#: reported timing is rescaled to: the fastest samples on a core of an
#: Intel Xeon host under CPython 3.11 take 1.2 to 1.3 ms.
REFERENCE_PROBE_S = 1.25e-3
#: Seconds of CPU time between speed samples while a timed call runs.
SAMPLE_INTERVAL_S = 0.2


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    workload = WORKLOADS[request["workload"]]
    probe = SpeedProbe()
    (api, global_router, designs, generate_s), setup = probe.timed(
        lambda: set_up(workload, request)
    )
    out: dict[str, Any] = {"setup": setup, "generate_s": generate_s}
    if request["mode"] == "setup":
        print(json.dumps(out, sort_keys=True))
        return 0
    traced = request["mode"] == "traced"
    timer = LayerTimer(api, global_router) if traced else None
    if workload.global_only:
        calls, quality, traces = route_global(
            api, global_router, designs, traced, probe
        )
    else:
        calls, quality, traces, flows = route_flows(
            api, workload, designs, traced, probe
        )
    # ru_maxrss before the audit: the peak belongs to routing.
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0
    out["route_calls"] = calls
    if not workload.global_only:
        auditing = time.perf_counter()
        audit(api, flows, quality)
        out["audit_s"] = time.perf_counter() - auditing
    out["quality"] = quality
    out["signature"] = signature(quality, traces)
    if timer is not None:
        # The stage wrappers time the speed samples taken inside them
        # too, so the partition is of the calls' whole wall time.
        route_s = sum(c["wall_s"] + c["probe_busy_s"] for c in calls)
        layers, out["layer_check"] = layer_metrics(traces, timer, route_s)
        layers["analysis.audit_s"] = out.get("audit_s", 0.0)
        layers["benchmarks_gen.generate_s"] = out["generate_s"]
        out["layers"] = layers
        out["absent"] = timer.absent
    print(json.dumps(out, sort_keys=True))
    return 0


def set_up(workload: Workload, request: dict) -> tuple[Any, type, list, float]:
    """Import ``repro`` from this checkout and make the pass's designs;
    ``repro.api``, ``GlobalRouter``, the designs and the generation
    time."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    from repro import api, benchmarks_gen
    from repro.globalroute import GlobalRouter

    source = pathlib.Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"imported repro from {source}, not this checkout")
    generating = time.perf_counter()
    designs = make_designs(workload, request, benchmarks_gen)
    return api, GlobalRouter, designs, time.perf_counter() - generating


def spin() -> float:
    """CPU time of a fixed loop of heap pushes, pops and dict stores,
    the operations the router's searches are made of."""
    heap: list[int] = []
    seen: dict[int, int] = {}
    start = time.thread_time()
    for i in range(SPIN_STEPS):
        heapq.heappush(heap, (i * 7919) % 10007)
        seen[i % 500] = i
    while heap:
        heapq.heappop(heap)
    return time.thread_time() - start


class SpeedProbe:
    """Times a call in CPU time and samples how fast the CPU ran.

    Two things slow a call down besides the call itself.  Other
    processes of the same machine take turns on its CPU: that adds wall
    time but no CPU time, so the call is timed in CPU time of this
    process.  And the shared host runs the CPU itself up to 2x slower,
    over seconds to minutes, which adds CPU time too.  For that, a
    ``SIGPROF`` every ``SAMPLE_INTERVAL_S`` of CPU time runs ``spin()``
    between the call's own bytecodes; one more sample is taken just
    before and one just after the call.  ``speed`` is the mean, over
    the samples, of ``REFERENCE_PROBE_S`` divided by the sample: the
    share of the reference speed the CPU ran at, averaged over equal
    slices of the call's CPU time.  A sample that a stall stretched
    adds almost nothing to it.
    The samples' own time, about 1% of the call, is taken out of the
    call's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0
        self.busy_cpu = 0.0

    def _sample(self, signum: int, frame: Any) -> None:
        start, start_cpu = time.perf_counter(), time.process_time()
        self.samples.append(spin())
        self.busy += time.perf_counter() - start
        self.busy_cpu += time.process_time() - start_cpu

    def timed(self, call: Callable[[], Any]) -> tuple[Any, dict]:
        """``call()`` and its timing: ``cpu_s`` and ``wall_s``, both
        without the samples' own time (``probe_busy_s`` of wall time);
        ``speed``; and ``fastest_probe_s``, the fastest sample."""
        self.samples = [spin()]
        self.busy = self.busy_cpu = 0.0
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            wall = time.perf_counter() - start
            cpu = time.process_time() - start_cpu
            signal.signal(signal.SIGPROF, previous)
        self.samples.append(spin())
        return result, {
            "cpu_s": cpu - self.busy_cpu,
            "wall_s": wall - self.busy,
            "probe_busy_s": self.busy,
            "speed": statistics.fmean(REFERENCE_PROBE_S / s for s in self.samples),
            "fastest_probe_s": min(self.samples),
        }


def make_designs(workload: Workload, request: dict, gen: Any) -> list:
    """The pass's designs, made with ``gen`` (``repro.benchmarks_gen``);
    ``seed`` shuffles each netlist's order.

    The instances are those of the per-circuit name seeds.  ``seed``
    only permutes the order in which a design lists its nets: the router
    orders nets itself, so every seed poses the same routing problem in
    a different input order.
    """
    designs = []
    for index, name in enumerate(workload.circuits):
        if workload.stress:
            design = gen.mcnc_stress_design(name, scale=request["scale"])
        else:
            design = gen.generate_design(
                gen.MCNC_SPECS[name], scale=request["scale"]
            )
        if request["seed"] is not None:
            nets = list(design.netlist)
            random.Random(request["seed"] * 1_000_003 + index).shuffle(nets)
            design = dataclasses.replace(
                design,
                netlist=dataclasses.replace(design.netlist, nets=nets),
            )
        designs.append(design)
    return designs


def route_flows(
    api: Any, workload: Workload, designs: list, traced: bool,
    probe: SpeedProbe,
) -> tuple[list[dict], dict, list, list]:
    """Route every design with the workload's flow router; the timing
    of each ``route()`` call, the quality counts, traces and flows."""
    config = api.RouterConfig(profile="counters" if traced else "off")
    router = getattr(api, workload.router)(config=config)
    calls = []
    flows = []
    for design in designs:
        tracer = api.Tracer() if traced else None
        flow, timing = probe.timed(lambda: router.route(design, tracer=tracer))
        flows.append(flow)
        calls.append(timing)
    reports = [flow.report for flow in flows]
    quality = {
        "nets": sum(r.total_nets for r in reports),
        "routed": sum(r.routed_nets for r in reports),
        "via_violations": sum(r.via_violations for r in reports),
        "vertical_violations": sum(r.vertical_violations for r in reports),
        "short_polygons": sum(r.short_polygons for r in reports),
        "wirelength": sum(r.wirelength for r in reports),
        "vias": sum(r.vias for r in reports),
        "vertex_overflow": sum(
            f.global_result.total_vertex_overflow for f in flows
        ),
    }
    return calls, quality, [flow.trace for flow in flows], flows


def route_global(
    api: Any, global_router: type, designs: list, traced: bool,
    probe: SpeedProbe,
) -> tuple[list[dict], dict, list]:
    """Global-route every design with, then without, the line-end term;
    the timing of each ``route()`` call, quality counts and traces."""
    kwargs: dict[str, Any] = {"profile": "counters" if traced else "off"}
    if "engine" in inspect.signature(global_router).parameters:
        # The constructor's own default is the slow object engine; the
        # flow resolves the same default this way.
        kwargs["engine"] = api.resolve_engine(api.RouterConfig().engine).value
    calls = []
    quality = {"nets": 0, "routed": 0, "wirelength": 0, "vertex_overflow": 0}
    traces = []
    for design in designs:
        for stitch_aware in (True, False):
            router = global_router(stitch_aware=stitch_aware, **kwargs)
            tracer = api.Tracer()
            result, timing = probe.timed(
                lambda: router.route(design, tracer=tracer)
            )
            calls.append(timing)
            traces.append(tracer.finish(router="GlobalRouter", design=design.name))
            quality["nets"] += len(design.netlist)
            quality["routed"] += len(result.routes)
            quality["wirelength"] += result.wirelength
            quality["vertex_overflow"] += result.total_vertex_overflow
    return calls, quality, traces


def audit(api: Any, flows: list, quality: dict) -> None:
    """Audit every flow; add finding and drift counts to ``quality``."""
    findings = []
    drift = 0
    for flow in flows:
        report = api.audit_solution(
            flow.detailed_result, flow.report, flow.global_result
        )
        findings.extend(report.findings)
        drift += len(report.drift)
    quality["audit_findings"] = len(findings)
    quality["audit_drift"] = drift
    quality["audit_rules"] = dict(sorted(Counter(f.rule for f in findings).items()))
    quality["audit_nets"] = len({f.net for f in findings if f.net})


def signature(quality: dict, traces: list) -> dict:
    """Quality counts plus routing counters: equal for equal routing."""
    counters: dict[str, float] = {}
    for trace in traces:
        for name, value in trace.aggregate_counters().items():
            if not name.startswith(BOOKKEEPING_PREFIXES):
                counters[name] = counters.get(name, 0) + value
    return {"quality": quality, "counters": dict(sorted(counters.items()))}


class LayerTimer:
    """Wall-time wrappers around the flow's stage entry points."""

    def __init__(self, api: Any, global_router: type) -> None:
        flow = sys.modules[api.StitchAwareRouter.__module__]
        owners = {
            "flow": flow,
            "GlobalRouter": global_router,
            "DetailedRouter": getattr(flow, "DetailedRouter", None),
        }
        self.totals: dict[str, float] = {}
        self.absent: list[str] = []
        for layer, owner_name, attr in WRAPPED:
            owner = owners[owner_name]
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                self.absent.append(layer)
                continue
            self.totals[layer] = 0.0
            setattr(owner, attr, self._timed(layer, target))

    def _timed(self, layer: str, target: Callable[..., Any]) -> Callable[..., Any]:
        totals = self.totals

        @functools.wraps(target)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                totals[layer] += time.perf_counter() - start

        return timed


def layer_metrics(
    traces: list, timer: LayerTimer, route_s: float
) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass, and the wrapper/span check."""
    spans = [span for trace in traces for span in trace.walk()]

    def wall(name: str, **gauges: Any) -> float:
        return sum(
            (s.wall_seconds
             for s in spans
             if s.name == name
             and all(s.gauges.get(k) == v for k, v in gauges.items())),
            0.0,
        )

    def counters(roots: Iterable[Any], name: str) -> float:
        return sum(
            node.counters.get(name, 0)
            for root in roots
            for node in root.walk()
        )

    detailed = [s for s in spans if s.name == "detailed-route"]
    global_ = [s for s in spans if s.name == "global-route"]
    everything = [s for trace in traces for s in trace.spans]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    layers: dict[str, float] = dict(timer.totals)
    detailed_s = layers.get("detailed.route_s", 0.0)
    global_s = layers.get("globalroute.route_s", 0.0)
    attempted = counters(detailed, "nets_attempted")
    first_failed = counters(detailed, "first_pass_failed")
    reroutes = counters(detailed, "reroutes")
    searches = counters(detailed, "astar_searches")
    expansions = counters(detailed, "astar_expansions")
    evals = counters(detailed, "stitch_cost_evaluations")
    maze = counters(global_, "maze_expansions")
    layers.update({
        "detailed.grid_build_s": wall("grid-build"),
        "detailed.trunks_s": wall("trunks"),
        "detailed.first_pass_s": wall("first-pass"),
        "detailed.first_pass_success": (
            1.0 - first_failed / attempted if attempted else 0.0
        ),
        "detailed.ripup_s": wall("ripup-round"),
        "detailed.ripup_rounds": counters(detailed, "ripup_rounds"),
        "detailed.reroutes": reroutes,
        "detailed.ripup_yield": rate(
            first_failed - counters(detailed, "failed_nets"), reroutes
        ),
        "detailed.repair_s": wall("short-polygon-repair"),
        "detailed.astar_searches": searches,
        "detailed.astar_expansions": expansions,
        "detailed.expansions_per_search": rate(expansions, searches),
        "detailed.expansions_per_s": rate(expansions, detailed_s),
        "detailed.stitch_cost_evals": evals,
        "detailed.stitch_cost_evals_per_s": rate(evals, detailed_s),
        "assign.conflict_edges": counters(everything, "conflict_edges"),
        "assign.flow_augmentations": counters(everything, "flow_augmentations"),
        "assign.failed_segments": counters(everything, "failed_segments"),
        "assign.bad_ends": counters(everything, "bad_ends"),
        "multilevel.levelize_s": wall("levelize"),
        "globalroute.graph_build_s": wall("graph-build"),
        "globalroute.negotiation_s": wall("negotiation-round"),
        "globalroute.negotiation_rounds": sum(
            1 for s in spans if s.name == "negotiation-round"
        ),
        "globalroute.maze_expansions": maze,
        "globalroute.maze_expansions_per_s": rate(maze, global_s),
        "globalroute.ripup_victims": counters(global_, "ripup_victims"),
        "engine.heap_pushes": counters(everything, "perf_heap_pushes"),
        "engine.heap_pops": counters(everything, "perf_heap_pops"),
        "engine.maze_heap_pops": counters(everything, "perf_maze_heap_pops"),
        "engine.cache_refreshes": counters(everything, "perf_cache_refreshes"),
        "engine.cache_updates": counters(everything, "perf_cache_updates"),
    })
    for k in range(1, RIPUP_ROUNDS + 1):
        layers[f"detailed.ripup_round_{k}_s"] = wall("ripup-round", round=k - 1)
    # The self-time partition of the traced route_s: the wrapped stage
    # calls do not nest, and levelize runs outside all of them.
    attributed = sum(timer.totals.values()) + layers["multilevel.levelize_s"]
    layers["core.unattributed_s"] = route_s - attributed
    check = {
        layer: {"wrapper_s": timer.totals[layer], "span_s": wall(span)}
        for layer, span in WRAPPED_SPANS.items()
        if layer in timer.totals
    }
    return layers, check


if __name__ == "__main__":
    sys.exit(main(sys.argv))
