"""Route identity: one digest line per reference instance.

A change that claims to keep every route (a kernel, a cache or a
bookkeeping speed-up) must print the same route digests before and
after it::

    PYTHONPATH=src python benchmarks/route_identity.py > after.txt
    PYTHONPATH=../before/src python benchmarks/route_identity.py > before.txt
    diff before.txt after.txt

The instances are the 19 flows of ``docs/performance.md`` and the four
global routes of the ``global_stress_table4`` benchmark workload:

* the six regression-gate runs (S9234, S5378 and S13207 at scale 0.02,
  each under ``BaselineRouter`` and ``StitchAwareRouter``);
* the seven ``firstpass_mcnc_5pct`` designs at scale 0.05,
  stitch-aware;
* S13207 at scales 0.1 and 0.2 under both routers;
* S5378 and S9234 at scale 0.2, stitch-aware;
* the stressed S13207 and S15850 at scale 0.5, global routing with and
  without the line-end term.

Every run uses ``profile="counters"``.  A line carries three SHA-256
digests:

* ``routes``: every net's sorted nodes, sorted edges and routed flag,
  and every ``NetReport.violations`` list (global runs: every net's
  tile paths and the failed nets);
* ``counters``: every counter of the trace whose name does not start
  with ``perf_``;
* ``perf``: the ``perf_`` counters.

A change that only saves work may move the work counters (expansions,
heap traffic) of the last two digests; the ``routes`` digest shows
whether any route moved.  Set iteration order follows the string hash
seed, so the script re-runs itself with ``PYTHONHASHSEED=0`` unless it
is set.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections.abc import Iterator
from typing import Any, Callable

from repro.api import BaselineRouter, FlowResult, RouterConfig, StitchAwareRouter
from repro.benchmarks_gen import mcnc_design, mcnc_stress_design
from repro.globalroute import GlobalRouter, GlobalRoutingResult
from repro.observe import RunTrace, Tracer

#: The ``firstpass_mcnc_5pct`` designs.
FIRSTPASS = ("Struct", "Primary1", "Primary2", "S5378", "S9234", "S13207", "S15850")

ROUTERS = {"baseline": BaselineRouter, "stitch-aware": StitchAwareRouter}


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _split_counters(trace: RunTrace) -> tuple[dict, dict]:
    """The trace's counters without and with the ``perf_`` prefix."""
    counters = trace.aggregate_counters()
    perf = {k: v for k, v in counters.items() if k.startswith("perf_")}
    rest = {k: v for k, v in counters.items() if not k.startswith("perf_")}
    return rest, perf


Digests = tuple[str, str, str]


def flow_digests(flow: FlowResult) -> Digests:
    """The route, counter and ``perf_`` counter digests of a flow."""
    assert flow.trace is not None
    counters, perf = _split_counters(flow.trace)
    nets = [
        [name, sorted(net.nodes), sorted(net.edges), net.routed]
        for name, net in sorted(flow.detailed_result.nets.items())
    ]
    violations = [
        [name, [v.to_dict() for v in report.violations]]
        for name, report in sorted(flow.report.nets.items())
    ]
    return _digest([nets, violations]), _digest(counters), _digest(perf)


def global_digests(result: GlobalRoutingResult, trace: RunTrace) -> Digests:
    """The route, counter and ``perf_`` counter digests of a global run."""
    counters, perf = _split_counters(trace)
    routes = [[name, route.paths] for name, route in sorted(result.routes.items())]
    return _digest([routes, result.failed]), _digest(counters), _digest(perf)


def instances() -> Iterator[tuple[str, Callable[[], Digests]]]:
    """``(label, run)`` for every reference instance, in print order."""
    config = RouterConfig(profile="counters")

    def flow(router: str, circuit: str, scale: float) -> Callable[[], Digests]:
        return lambda: flow_digests(
            ROUTERS[router](config=config).route(mcnc_design(circuit, scale))
        )

    def stressed(circuit: str, line_ends: bool) -> Callable[[], Digests]:
        def run() -> Digests:
            tracer = Tracer()
            router = GlobalRouter(stitch_aware=line_ends, profile="counters")
            result = router.route(mcnc_stress_design(circuit, 0.5), tracer=tracer)
            return global_digests(result, tracer.finish(router="GlobalRouter"))

        return run

    for circuit in ("S9234", "S5378", "S13207"):
        for router in ROUTERS:
            yield f"gate {circuit}@0.02 {router}", flow(router, circuit, 0.02)
    for circuit in FIRSTPASS:
        yield f"firstpass {circuit}@0.05 stitch-aware", flow("stitch-aware", circuit, 0.05)
    for scale in (0.1, 0.2):
        for router in ROUTERS:
            yield f"S13207@{scale} {router}", flow(router, "S13207", scale)
    for circuit in ("S5378", "S9234"):
        yield f"{circuit}@0.2 stitch-aware", flow("stitch-aware", circuit, 0.2)
    for circuit in ("S13207", "S15850"):
        for line_ends in (True, False):
            mode = "line-end" if line_ends else "no-line-end"
            yield f"global {circuit}@0.5 stress {mode}", stressed(circuit, line_ends)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    for label, run in instances():
        routes, counters, perf = run()
        print(f"{label}: routes {routes} counters {counters} perf {perf}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
