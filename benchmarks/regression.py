"""Benchmark regression gate: diff fresh traces against baselines.

Routes a few small Table III circuits with both routers, freezes their
:class:`~repro.observe.RunTrace` documents, and diffs each against the
committed baseline in ``benchmarks/baselines/BENCH_<circuit>.json``
via :func:`repro.observe.diff_traces`.  Deterministic counters (maze
expansions, A* expansions, rip-up rounds, flow augmentations, ...,
and the report's #VV, vertical-violation, #SP, wirelength, via and
routed-net columns) must match the baseline **exactly** — any drift
is a behavior change somebody has to sign off on.  The gate checks
behavior only: its circuits finish in milliseconds, so wall time is
not compared, and speed verdicts come from the ``benchmarks/perf``
harness.

Every fresh solution is also run through the independent solution
auditor (:func:`repro.analysis.audit_solution`) on every run: the AUD
rules re-derive all stitching constraints from the raw geometry and
cross-check the report's counters, so the gate does not trust the
evaluator it is diffing.  The audit reads the finished flow and
records nothing in its trace.

Exit status is non-zero on any regression, so CI can gate on it::

    PYTHONPATH=src python benchmarks/regression.py                 # full gate
    PYTHONPATH=src python benchmarks/regression.py --only S9234    # one circuit
    PYTHONPATH=src python benchmarks/regression.py --update        # refresh baselines
    PYTHONPATH=src python benchmarks/regression.py --out-dir DIR   # keep the traces
    PYTHONPATH=src python benchmarks/regression.py --profile counters  # profiled gate
    PYTHONPATH=src python benchmarks/regression.py --overhead-budget 2 --repeat 5  # profiling cost

``--profile counters`` routes the gate with the profiling counters
enabled and strips the ``perf_*`` counters before diffing — the
profiled runs must still match the profile-off baselines exactly
(profiling never perturbs routing).
``--overhead-budget PCT`` is the cost side of that contract: it
interleaves profile-off and profile-counters runs and fails when the
counters-mode wall exceeds off-mode by more than ``PCT`` percent
(plus a 20 ms jitter floor — the gate circuits finish in tens of
milliseconds).

Baseline refresh procedure (after an *intentional* behavior change):
run with ``--update``, eyeball ``git diff benchmarks/baselines/`` to
confirm only the counters you expected moved, and commit the new
baselines together with the change that moved them.  The baselines
still record wall times, but nothing reads them as a verdict, so
``--update`` keeps the committed ``wall_seconds``, ``cpu_seconds``
and ``started_at`` of every span the committed document already has:
a refresh rewrites only what the gate compares, and a refresh with no
behavior change leaves the files byte for byte as they were.

``--out-dir DIR`` also writes the fresh ``BENCH_<circuit>.json``
documents to ``DIR`` (same label→trace schema as the baselines); CI
uploads them as artifacts.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

from repro.analysis import audit_solution, render_audit
from repro.benchmarks_gen import mcnc_design
from repro.config import RouterConfig
from repro.api import BaselineRouter, FlowResult, StitchAwareRouter
from repro.observe import RunTrace, diff_traces, render_diff

BASELINE_DIR = pathlib.Path(__file__).parent / "baselines"

#: The gate's circuits: small enough that the whole gate runs in
#: seconds, spread over the easy/hard MCNC split (S13207 has almost no
#: stitch pins; S9234/S5378 are "hard" circuits with many).
CIRCUITS: Dict[str, float] = {
    "S9234": 0.02,
    "S5378": 0.02,
    "S13207": 0.02,
}

ROUTERS = {
    "baseline": BaselineRouter,
    "stitch-aware": StitchAwareRouter,
}


def baseline_path(circuit: str) -> pathlib.Path:
    """Committed baseline document for one circuit."""
    return BASELINE_DIR / f"BENCH_{circuit}.json"


def run_circuit(circuit: str, profile: str = "off") -> Dict[str, FlowResult]:
    """Route one gate circuit with every router; flows keyed by label.

    Returns the full :class:`~repro.api.FlowResult` (not just the
    trace) so the caller can both diff the traces and independently
    audit the solutions.
    """
    scale = CIRCUITS[circuit]
    config = RouterConfig(profile=profile)
    flows: Dict[str, FlowResult] = {}
    for label, router_cls in ROUTERS.items():
        design = mcnc_design(circuit, scale)
        flows[label] = router_cls(config=config).route(design)
    return flows


#: Absolute slack added to the overhead budget: the gate circuits
#: finish in tens of milliseconds, where OS timer jitter alone dwarfs
#: any percentage budget.  20 ms keeps the check meaningful for the
#: relative budget while refusing to flake on scheduler noise.
OVERHEAD_NOISE_FLOOR_SECONDS = 0.02


def overhead_budget(
    circuit: str, budget_pct: float, repeat: int = 3
) -> List[str]:
    """Profiling overhead gate: ``profile="counters"`` must be ~free.

    Routes the circuit (stitch-aware flow, serial) with
    ``profile="off"`` and ``profile="counters"`` interleaved ``repeat``
    times each and compares the per-mode minimum walls: counters mode
    must finish within ``budget_pct`` percent of off mode (plus the
    absolute :data:`OVERHEAD_NOISE_FLOOR_SECONDS` slack).  Also proves
    the instrumentation contract on the way: stripping the ``perf_*``
    counters from the counters-mode trace must recover the off-mode
    counters exactly.
    """
    scale = CIRCUITS[circuit]
    failures: List[str] = []
    walls: Dict[str, List[float]] = {"off": [], "counters": []}
    traces: Dict[str, RunTrace] = {}
    for run in range(max(1, repeat)):
        for mode in ("off", "counters"):
            design = mcnc_design(circuit, scale)
            config = RouterConfig(profile=mode)
            flow = StitchAwareRouter(config=config).route(design)
            assert flow.trace is not None
            walls[mode].append(flow.trace.wall_seconds)
            if run == 0:
                traces[mode] = flow.trace

    diff = diff_traces(
        traces["off"], strip_profile_counters(traces["counters"])
    )
    if diff.ok:
        print(f"{circuit}: counters-mode trace strips back to off-mode")
    else:
        print(render_diff(diff))
        failures.extend(
            f"{circuit}: profiling perturbed a counter: {line}"
            for line in diff.regressions()
        )

    off_wall = min(walls["off"])
    counters_wall = min(walls["counters"])
    limit = off_wall * (1.0 + budget_pct / 100.0) + OVERHEAD_NOISE_FLOOR_SECONDS
    overhead_pct = (
        100.0 * (counters_wall - off_wall) / off_wall if off_wall > 0 else 0.0
    )
    print(
        f"{circuit}: off {off_wall:.4f}s, counters {counters_wall:.4f}s "
        f"({overhead_pct:+.1f}%, budget {budget_pct:g}% "
        f"+ {OVERHEAD_NOISE_FLOOR_SECONDS:g}s noise floor, "
        f"min of {len(walls['off'])} run(s))"
    )
    if counters_wall > limit:
        failures.append(
            f"{circuit}: profile='counters' wall {counters_wall:.4f}s "
            f"exceeds budget {limit:.4f}s "
            f"(off {off_wall:.4f}s + {budget_pct:g}%)"
        )
    return failures


def traces_of(flows: Dict[str, FlowResult]) -> Dict[str, RunTrace]:
    """The ``label -> trace`` view of one circuit's flows."""
    traces: Dict[str, RunTrace] = {}
    for label, flow in flows.items():
        assert flow.trace is not None
        traces[label] = flow.trace
    return traces


def audit_flows(circuit: str, flows: Dict[str, FlowResult]) -> List[str]:
    """Independently audit every fresh solution; failure lines out.

    Calls :func:`repro.analysis.audit_solution` on the finished flows,
    as ``repro audit`` does.
    """
    failures: List[str] = []
    for label, flow in flows.items():
        report = audit_solution(
            flow.detailed_result, flow.report, flow.global_result
        )
        if report.ok:
            print(
                f"{circuit}/{label}: audit clean "
                f"({report.nets_checked} nets)"
            )
        else:
            print(render_audit(report))
            failures.extend(
                f"{circuit}/{label}: audit {f.rule} {f.message}"
                for f in report.findings
            )
            failures.extend(
                f"{circuit}/{label}: audit drift {d.counter}: "
                f"reported {d.reported} != recomputed {d.recomputed}"
                for d in report.drift
            )
    return failures


def strip_profile_counters(trace: RunTrace) -> RunTrace:
    """A copy of ``trace`` without ``perf_*`` counters.

    Profiling counters (``RouterConfig(profile="counters")``) are
    observability instrumentation by contract: stripping them must
    recover the exact counters of an unprofiled run — which is what
    lets a profiled gate run diff against the committed (profile-off)
    baselines.  The scrub runs over the serialized document (every
    span plus the orphan counters), so the returned trace is exactly
    what a run that never recorded them would have frozen.
    """
    prefix = "perf_"
    doc = trace.to_dict()

    def scrub(span: dict) -> None:
        counters = span.get("counters")
        if counters:
            for key in [k for k in counters if k.startswith(prefix)]:
                del counters[key]
            if not counters:
                del span["counters"]
        for child in span.get("children", ()):
            scrub(child)

    for span in doc["spans"]:
        scrub(span)
    doc["counters"] = {
        k: v for k, v in doc["counters"].items() if not k.startswith(prefix)
    }
    return RunTrace.from_dict(doc)


#: The per-span (and trace root) fields that vary from run to run.
TIMING_FIELDS = ("wall_seconds", "cpu_seconds", "started_at")


def keep_timings(fresh: dict, committed: dict, children: str = "children") -> None:
    """Copy ``committed``'s timing fields onto ``fresh``, span by span.

    The k-th child span of a name takes the timings of the k-th child
    of that name in ``committed``; a span ``committed`` lacks keeps its
    fresh timings.  ``children`` names the child list (``"spans"`` at a
    trace's root).
    """
    for field in TIMING_FIELDS:
        if field in fresh and field in committed:
            fresh[field] = committed[field]
    old: Dict[str, List[dict]] = {}
    for span in committed.get(children, ()):
        old.setdefault(span["name"], []).append(span)
    seen: Dict[str, int] = {}
    for span in fresh.get(children, ()):
        k = seen.get(span["name"], 0)
        seen[span["name"]] = k + 1
        if k < len(old.get(span["name"], ())):
            keep_timings(span, old[span["name"]][k])


def save_traces(
    path: pathlib.Path,
    traces: Dict[str, RunTrace],
    keep_committed_timings: bool = False,
) -> None:
    """Write a ``label -> trace`` document (BENCH_*.json schema).

    With ``keep_committed_timings``, every span that the document at
    ``path`` already has keeps its committed timings, so a refresh
    rewrites only what the gate compares.
    """
    payload = {label: trace.to_dict() for label, trace in traces.items()}
    if keep_committed_timings and path.exists():
        committed = json.loads(path.read_text())
        for label, doc in payload.items():
            if label in committed:
                keep_timings(doc, committed[label], children="spans")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_traces(path: pathlib.Path) -> Dict[str, RunTrace]:
    """Read a ``label -> trace`` document back."""
    data = json.loads(path.read_text())
    return {label: RunTrace.from_dict(doc) for label, doc in data.items()}


def check_circuit(circuit: str, traces: Dict[str, RunTrace]) -> List[str]:
    """Diff fresh traces against the committed baseline; failures out."""
    path = baseline_path(circuit)
    if not path.exists():
        return [f"{circuit}: missing baseline {path} (run with --update)"]
    baselines = load_traces(path)
    failures: List[str] = []
    for label, fresh in traces.items():
        if label not in baselines:
            failures.append(f"{circuit}/{label}: not in baseline document")
            continue
        diff = diff_traces(baselines[label], fresh)
        if diff.ok:
            print(f"{circuit}/{label}: OK")
        else:
            print(render_diff(diff))
            failures.extend(
                f"{circuit}/{label}: {line}" for line in diff.regressions()
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark trace regression gate"
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="CIRCUIT",
        help="restrict to one circuit (repeatable)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baselines instead of checking; "
        "spans already in them keep their committed timings",
    )
    parser.add_argument(
        "--out-dir",
        metavar="DIR",
        help="also write the freshly produced traces there (CI artifacts)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="with --overhead-budget: route each mode N times "
        "(interleaved) and record the minimum wall per mode",
    )
    parser.add_argument(
        "--profile",
        choices=("off", "counters"),
        default="off",
        help="route the gate circuits with this RouterConfig profile "
        "level; perf_* counters are stripped before diffing, so the "
        "profiled runs must still match the profile-off baselines "
        "exactly",
    )
    parser.add_argument(
        "--overhead-budget",
        type=float,
        metavar="PCT",
        help="switch to the profiling-overhead mode: route each circuit "
        "with profile off and counters (interleaved, --repeat each), "
        "require the stripped counters-mode trace to equal the "
        "off-mode trace, and fail if the counters-mode wall exceeds "
        "off by more than PCT%% (plus a 20 ms noise floor)",
    )
    args = parser.parse_args(argv)
    if args.update and args.profile != "off":
        parser.error(
            "baselines are profile-off; refusing --update with --profile"
        )
    if args.overhead_budget is not None and args.overhead_budget <= 0:
        parser.error("--overhead-budget must be positive")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    circuits = args.only or list(CIRCUITS)
    unknown = [c for c in circuits if c not in CIRCUITS]
    if unknown:
        parser.error(
            f"unknown gate circuit(s) {unknown}; choose from {list(CIRCUITS)}"
        )

    failures: List[str] = []
    if args.overhead_budget is not None:
        for circuit in circuits:
            failures.extend(
                overhead_budget(circuit, args.overhead_budget, args.repeat)
            )
        if failures:
            print(f"\noverhead budget run FAILED ({len(failures)}):")
            for line in failures:
                print(f"  {line}")
            return 1
        print("\noverhead budget run passed")
        return 0

    for circuit in circuits:
        flows = run_circuit(circuit, args.profile)
        traces = traces_of(flows)
        failures.extend(audit_flows(circuit, flows))
        if args.profile != "off":
            traces = {
                label: strip_profile_counters(trace)
                for label, trace in traces.items()
            }
        if args.out_dir:
            out = pathlib.Path(args.out_dir) / f"BENCH_{circuit}.json"
            save_traces(out, traces)
            print(f"wrote {out}")
        if args.update:
            save_traces(
                baseline_path(circuit), traces, keep_committed_timings=True
            )
            print(f"updated {baseline_path(circuit)}")
        else:
            failures.extend(check_circuit(circuit, traces))

    if failures:
        print(f"\nregression gate FAILED ({len(failures)} finding(s)):")
        for line in failures:
            print(f"  {line}")
        return 1
    if not args.update:
        print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
