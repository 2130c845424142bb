"""Benchmark regression gate: diff fresh traces against baselines.

Routes a few small Table III circuits with both routers, freezes their
:class:`~repro.observe.RunTrace` documents, and diffs each against the
committed baseline in ``benchmarks/baselines/BENCH_<circuit>.json``
via :func:`repro.observe.diff_traces`.  Deterministic counters (maze
expansions, A* expansions, rip-up rounds, flow augmentations, ...)
must match the baseline **exactly** — any drift is a behavior change
somebody has to sign off on; wall time fails only past the tolerance
(default 25%) and above the noise floor.

Every fresh solution is additionally run through the independent
solution auditor (:func:`repro.analysis.audit_solution`): the AUD
rules re-derive all stitching constraints from the raw geometry and
cross-check the report's counters, so the gate no longer trusts the
evaluator it is diffing (``--no-audit`` opts out).  The audit is
invoked directly on the finished flow — not via
``RouterConfig(audit=True)`` — so the produced traces stay
byte-compatible with the committed (audit-free) baselines.

Exit status is non-zero on any regression, so CI can gate on it::

    PYTHONPATH=src python benchmarks/regression.py                 # full gate
    PYTHONPATH=src python benchmarks/regression.py --only S9234    # one circuit
    PYTHONPATH=src python benchmarks/regression.py --no-wall       # counters only
    PYTHONPATH=src python benchmarks/regression.py --update        # refresh baselines
    PYTHONPATH=src python benchmarks/regression.py --engine array  # array-core gate
    PYTHONPATH=src python benchmarks/regression.py --scale 10 --out-dir .  # engine speedup
    PYTHONPATH=src python benchmarks/regression.py --snapshot-dir .  # refresh BENCH_*.json
    PYTHONPATH=src python benchmarks/regression.py --profile counters  # profiled gate
    PYTHONPATH=src python benchmarks/regression.py --overhead-budget 2 --repeat 5  # profiling cost

``--engine array`` runs the whole gate on the numpy array core
(:mod:`repro.engine`) and diffs against the *same committed
baselines* — the engines' byte-identity contract means no counter may
move.  ``--scale MULT`` instead routes every circuit at ``MULT x`` its
gate scale with *both* engines, requires identical counters,
cross-checks both solutions under the independent audit, and records
the object/array wall-clock speedup — the minimum over ``--repeat N``
interleaved runs (``SPEEDUP_ENGINE_<circuit>.json`` with
``--out-dir``; the committed copies back the speedup claims in
``docs/performance.md``).

``--profile counters|full`` routes the gate with the engine profiling
counters enabled and strips the ``perf_*`` / ``stream_*``
instrumentation before diffing — the profiled runs must still match
the profile-off baselines exactly (profiling never perturbs routing).
``--overhead-budget PCT`` is the cost side of that contract: it
interleaves profile-off and profile-counters runs and fails when the
counters-mode wall exceeds off-mode by more than ``PCT`` percent
(plus a 20 ms jitter floor — the gate circuits finish in tens of
milliseconds).

Baseline refresh procedure (after an *intentional* behavior change):
run with ``--update``, eyeball ``git diff benchmarks/baselines/`` to
confirm only the counters you expected moved, and commit the new
baselines together with the change that moved them.  Cross-machine
wall times are not comparable, which is why CI runs ``--no-wall``;
the committed wall numbers only serve local before/after comparisons.

``--snapshot-dir DIR`` also writes the fresh ``BENCH_<circuit>.json``
documents to ``DIR`` (same label→trace schema as the baselines).
Pointed at the repo root, this refreshes the top-level perf-trajectory
snapshots; CI uploads them as artifacts on every gate run.
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
from repro.observe import (
    DiffThresholds,
    RunTrace,
    diff_traces,
    render_diff,
)
from repro.observe import schema

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


def run_circuit(
    circuit: str,
    engine: str = "object",
    profile: str = "off",
) -> Dict[str, FlowResult]:
    """Route one gate circuit with every router; flows keyed by label.

    Returns the full :class:`~repro.core.FlowResult` (not just the
    trace) so the caller can both diff the traces and independently
    audit the solutions.
    """
    scale = CIRCUITS[circuit]
    config = RouterConfig(engine=engine, profile=profile)
    flows: Dict[str, FlowResult] = {}
    for label, router_cls in ROUTERS.items():
        design = mcnc_design(circuit, scale)
        flows[label] = router_cls(config=config).route(design)
    return flows


def engine_speedup(
    circuit: str,
    scale_multiplier: float,
    out_dir: Optional[str],
    repeat: int = 1,
) -> List[str]:
    """Object-vs-array differential + speedup run at a scaled workload.

    Routes the circuit at ``gate scale x multiplier`` with both
    engines (stitch-aware flow, serial), asserts their traces carry
    **identical deterministic counters** (the byte-identity contract),
    cross-checks both solutions under the independent audit (oversized
    instances may carry genuine findings — but only the *same* ones
    from both engines), and reports the wall-clock speedup, the
    minimum over ``repeat`` interleaved runs per engine.  With
    ``out_dir`` set, writes ``SPEEDUP_ENGINE_<circuit>.json``
    recording per-engine walls — the committed artifacts behind
    ``docs/performance.md``.
    """
    scale = CIRCUITS[circuit] * scale_multiplier
    failures: List[str] = []
    flows: Dict[str, FlowResult] = {}
    walls: Dict[str, List[float]] = {"object": [], "array": []}
    # Repeats interleave the engines (fairer under drifting machine
    # load) and the recorded wall is the minimum — the standard
    # benchmarking estimator for "how fast can this code run".
    # Counters must agree across every run, engines and repeats alike.
    for run in range(max(1, repeat)):
        for engine in ("object", "array"):
            design = mcnc_design(circuit, scale)
            config = RouterConfig(engine=engine)
            flow = StitchAwareRouter(config=config).route(design)
            assert flow.trace is not None
            walls[engine].append(flow.trace.wall_seconds)
            if run == 0:
                flows[engine] = flow
            else:
                rediff = diff_traces(
                    flows[engine].trace,
                    flow.trace,
                    DiffThresholds(include_wall=False),
                )
                if not rediff.ok:
                    failures.extend(
                        f"{circuit}@{scale:g}: {engine} repeat {run} "
                        f"nondeterminism {line}"
                        for line in rediff.regressions()
                    )

    obj_trace, arr_trace = flows["object"].trace, flows["array"].trace
    assert obj_trace is not None and arr_trace is not None
    diff = diff_traces(
        obj_trace, arr_trace, DiffThresholds(include_wall=False)
    )
    if diff.ok:
        print(f"{circuit}@{scale:g}: engines agree on every counter")
    else:
        print(render_diff(diff))
        failures.extend(
            f"{circuit}@{scale:g}: engine divergence {line}"
            for line in diff.regressions()
        )
    # The audit serves as an engine cross-check here: oversized
    # instances may carry genuine findings (they are well past the
    # paper's congestion envelope), but both engines must produce the
    # *same* findings — a clean array run over a dirty object run (or
    # vice versa) would mean the engines routed different solutions.
    audits = {}
    for engine, flow in flows.items():
        report = audit_solution(
            flow.detailed_result, flow.report, flow.global_result
        )
        audits[engine] = sorted(
            (f.rule, f.net or "", f.message) for f in report.findings
        ) + sorted((d.counter, d.reported, d.recomputed) for d in report.drift)
        status = (
            "clean" if report.ok else f"{len(report.findings)} finding(s)"
        )
        print(f"{circuit}@{scale:g}: {engine} audit {status}")
    if audits["object"] != audits["array"]:
        failures.append(
            f"{circuit}@{scale:g}: engines disagree under audit "
            f"(object {len(audits['object'])} vs "
            f"array {len(audits['array'])} findings)"
        )

    s, a = min(walls["object"]), min(walls["array"])
    ratio = s / a if a > 0 else 0.0
    print(
        f"{circuit}@{scale:g}: object {s:.3f}s, array {a:.3f}s, "
        f"speedup x{ratio:.2f} (min of {len(walls['object'])} run(s))"
    )
    if out_dir:
        out = pathlib.Path(out_dir) / f"SPEEDUP_ENGINE_{circuit}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(
                {
                    "circuit": circuit,
                    "scale": scale,
                    "scale_multiplier": scale_multiplier,
                    "object_wall_seconds": round(s, 4),
                    "array_wall_seconds": round(a, 4),
                    "repeats": len(walls["object"]),
                    "speedup": round(ratio, 3),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {out}")
    return failures


#: Absolute slack added to the overhead budget: the gate circuits
#: finish in tens of milliseconds, where OS timer jitter alone dwarfs
#: any percentage budget.  20 ms keeps the check meaningful for the
#: relative budget while refusing to flake on scheduler noise.
OVERHEAD_NOISE_FLOOR_SECONDS = 0.02


def overhead_budget(
    circuit: str,
    engine: str,
    budget_pct: float,
    repeat: int = 3,
) -> List[str]:
    """Profiling overhead gate: ``profile="counters"`` must be ~free.

    Routes the circuit (stitch-aware flow, serial) with
    ``profile="off"`` and ``profile="counters"`` interleaved ``repeat``
    times each and compares the per-mode minimum walls: counters mode
    must finish within ``budget_pct`` percent of off mode (plus the
    absolute :data:`OVERHEAD_NOISE_FLOOR_SECONDS` slack).  Also proves
    the instrumentation contract on the way: stripping the ``perf_*``
    / ``stream_*`` counters from the counters-mode trace must recover
    the off-mode counters exactly.
    """
    scale = CIRCUITS[circuit]
    failures: List[str] = []
    walls: Dict[str, List[float]] = {"off": [], "counters": []}
    traces: Dict[str, RunTrace] = {}
    for run in range(max(1, repeat)):
        for mode in ("off", "counters"):
            design = mcnc_design(circuit, scale)
            config = RouterConfig(engine=engine, profile=mode)
            flow = StitchAwareRouter(config=config).route(design)
            assert flow.trace is not None
            walls[mode].append(flow.trace.wall_seconds)
            if run == 0:
                traces[mode] = flow.trace

    diff = diff_traces(
        traces["off"],
        strip_profile_counters(traces["counters"]),
        DiffThresholds(include_wall=False),
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
        f"min of {len(walls['off'])} run(s), engine={engine})"
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

    Calls :func:`repro.analysis.audit_solution` directly on the
    finished flows (rather than routing with ``audit=True``) so the
    traces being diffed stay identical to the committed baselines,
    which predate the audit span.
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


def _strip_prefixed(trace: RunTrace, prefixes: tuple) -> RunTrace:
    """A copy of ``trace`` without counters named under ``prefixes``.

    The scrub runs over the serialized document (every span plus the
    orphan counters) so the returned trace is exactly what a run that
    never recorded those counters would have frozen.
    """
    doc = trace.to_dict()

    def scrub(span: dict) -> None:
        counters = span.get("counters")
        if counters:
            for key in [k for k in counters if k.startswith(prefixes)]:
                del counters[key]
            if not counters:
                del span["counters"]
        for child in span.get("children", ()):
            scrub(child)

    for span in doc["spans"]:
        scrub(span)
    doc["counters"] = {
        k: v
        for k, v in doc["counters"].items()
        if not k.startswith(prefixes)
    }
    return RunTrace.from_dict(doc)


def strip_profile_counters(trace: RunTrace) -> RunTrace:
    """A copy of ``trace`` without ``perf_*`` / ``stream_*`` counters.

    Profiling counters (``RouterConfig(profile=...)``) and the
    streaming tracer's bookkeeping are observability instrumentation
    by contract: stripping them must recover the exact counters of an
    unprofiled run — which is what lets a profiled gate run diff
    against the committed (profile-off) baselines.
    """
    return _strip_prefixed(
        trace, schema.strip_prefixes("profiling", "streaming")
    )


def save_traces(path: pathlib.Path, traces: Dict[str, RunTrace]) -> None:
    """Write a ``label -> trace`` document (BENCH_*.json schema)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {label: trace.to_dict() for label, trace in traces.items()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_traces(path: pathlib.Path) -> Dict[str, RunTrace]:
    """Read a ``label -> trace`` document back."""
    data = json.loads(path.read_text())
    return {label: RunTrace.from_dict(doc) for label, doc in data.items()}


def check_circuit(
    circuit: str,
    traces: Dict[str, RunTrace],
    thresholds: DiffThresholds,
) -> List[str]:
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
        diff = diff_traces(baselines[label], fresh, thresholds)
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
        help="rewrite the committed baselines instead of checking",
    )
    parser.add_argument(
        "--no-wall",
        action="store_true",
        help="compare deterministic counters only (use on CI: committed "
        "wall times come from a different machine)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=25.0,
        metavar="PCT",
        help="wall-time regression threshold (default 25%%)",
    )
    parser.add_argument(
        "--min-wall",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="noise floor below which stage timings are not compared",
    )
    parser.add_argument(
        "--out-dir",
        metavar="DIR",
        help="also write the freshly produced traces there (CI artifacts)",
    )
    parser.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        help="refresh the top-level BENCH_<circuit>.json perf snapshots "
        "there (point at the repo root to update the committed "
        "trajectory; CI uploads them as artifacts)",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the independent solution audit of the fresh runs",
    )
    parser.add_argument(
        "--engine",
        choices=("object", "array"),
        default="object",
        help="routing engine for the gate runs (default: object, the "
        "reference the baselines were recorded with; array must "
        "reproduce the same counters — that equality is the point "
        "of running the gate with both)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        metavar="MULT",
        help="switch to the engine-speedup mode: route each circuit at "
        "MULT x its gate scale with BOTH engines, require identical "
        "deterministic counters, audit the array solutions, and "
        "report object/array wall-clock speedups (baseline diffing "
        "is skipped — the committed baselines are 1x).  With "
        "--out-dir, writes SPEEDUP_ENGINE_<circuit>.json artifacts.",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="with --scale / --overhead-budget: route each mode N times "
        "(interleaved) and record the minimum wall per mode; counters "
        "must agree across every run",
    )
    parser.add_argument(
        "--profile",
        choices=("off", "counters", "full"),
        default="off",
        help="route the gate circuits with this RouterConfig profile "
        "level; perf_* / stream_* counters are stripped before "
        "diffing, so the profiled runs must still match the "
        "profile-off baselines exactly",
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
    if args.scale is not None and args.scale <= 0:
        parser.error("--scale must be positive")
    if args.overhead_budget is not None and args.overhead_budget <= 0:
        parser.error("--overhead-budget must be positive")
    if args.scale is not None and args.overhead_budget is not None:
        parser.error("--scale and --overhead-budget are separate modes")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    circuits = args.only or list(CIRCUITS)
    unknown = [c for c in circuits if c not in CIRCUITS]
    if unknown:
        parser.error(
            f"unknown gate circuit(s) {unknown}; choose from {list(CIRCUITS)}"
        )
    thresholds = DiffThresholds(
        wall_pct=args.wall_tolerance,
        min_wall_seconds=args.min_wall,
        include_wall=not args.no_wall,
    )

    failures: List[str] = []
    if args.scale is not None:
        for circuit in circuits:
            failures.extend(
                engine_speedup(
                    circuit, args.scale, args.out_dir, args.repeat
                )
            )
        if failures:
            print(f"\nengine speedup run FAILED ({len(failures)}):")
            for line in failures:
                print(f"  {line}")
            return 1
        print("\nengine speedup run passed")
        return 0

    if args.overhead_budget is not None:
        for circuit in circuits:
            failures.extend(
                overhead_budget(
                    circuit, args.engine, args.overhead_budget, args.repeat
                )
            )
        if failures:
            print(f"\noverhead budget run FAILED ({len(failures)}):")
            for line in failures:
                print(f"  {line}")
            return 1
        print("\noverhead budget run passed")
        return 0

    for circuit in circuits:
        flows = run_circuit(circuit, args.engine, args.profile)
        traces = traces_of(flows)
        if not args.no_audit:
            failures.extend(audit_flows(circuit, flows))
        if args.profile != "off":
            traces = {
                label: strip_profile_counters(trace)
                for label, trace in traces.items()
            }
        if args.snapshot_dir:
            out = pathlib.Path(args.snapshot_dir) / f"BENCH_{circuit}.json"
            save_traces(out, traces)
            print(f"wrote {out}")
        if args.out_dir:
            out = pathlib.Path(args.out_dir) / f"BENCH_{circuit}.json"
            save_traces(out, traces)
            print(f"wrote {out}")
        if args.update:
            save_traces(baseline_path(circuit), traces)
            print(f"updated {baseline_path(circuit)}")
        else:
            failures.extend(check_circuit(circuit, traces, thresholds))

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
