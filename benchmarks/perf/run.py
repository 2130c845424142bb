"""Performance benchmark of the router: four workloads, end-to-end speed
and quality metrics, and a per-layer traced pass.

Run from the repository root::

    python3 benchmarks/perf/run.py --out benchmarks/perf/results/A.json
    python3 benchmarks/perf/run.py --workload ripup_s13207_10x --repeats 3
    python3 benchmarks/perf/run.py --workload global_stress_table4 \\
        --seed 4 --seconds 30 --trace 0
    python3 benchmarks/perf/run.py --smoke

Load is a closed loop with one client: each pass is one fresh child
interpreter (``child.py``), and children run one at a time, alternating
between workloads.  Routing is serial.  Every flow result is audited; a
pass with a vertical wire on a stitching line, an exception, or a
result that differs from the first pass counts as a failed operation,
and the run exits 1.

``--trace`` picks what the last line reports, which is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` (no ``--trace`` or ``--trace 0``) or its
per-layer metrics (``--trace 1``).  Each round is an untraced pass,
followed by a traced pass in every round with ``--trace 1``, in none
with ``--trace 0``, and in the first three rounds without ``--trace``.
``--seconds`` budgets each workload's child time: after the first
round, no round starts that would end past it.  Set-up-only children
then make sure that ``SETUP_SAMPLES`` children have set up.

Every timing is CPU time rescaled to a reference speed: each child
samples how fast the CPU runs while it sets up and routes
(``child.SpeedProbe``).  See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Optional

from child import REFERENCE_PROBE_S
from workloads import ROOT, WORKLOADS, Workload, load_spec

HERE = pathlib.Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 300
#: Children that set up in every run: when fewer rounds fit the
#: ``--seconds`` budget, set-up-only children make up the number.
SETUP_SAMPLES = 3
#: Rounds with both passes needed before ``observe.trace_overhead_pct``
#: is reported: one pair shows the machine's drift, not the tracer.
MIN_OVERHEAD_PAIRS = 3


class ChildError(RuntimeError):
    """A child pass that crashed, timed out or printed no result."""


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    # Byte-compile up front so no pass pays for it: a user's second run
    # of the router does not either.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    results = measure(names, args, spec)
    for name, result in results.items():
        print_workload(name, result)
    attempted = sum(r["ops_attempted"] for r in results.values())
    failed = sum(r["ops_failed"] for r in results.values())
    if args.out:
        document = {
            "machine": machine_stamp(),
            "run": {
                "seed": args.seed,
                "repeats": args.repeats,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
            },
            "workloads": results,
        }
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"[result written to {out}]")
    section = "per_layer" if args.trace == 1 else "end_to_end"
    metrics = {}
    for name, result in results.items():
        values = result["layers" if args.trace == 1 else "metrics"]
        for metric in spec[section]:
            if metric["name"] in values:
                key = metric["name"] if len(results) == 1 else f"{name}.{metric['name']}"
                metrics[key] = {
                    "value": values[metric["name"]]["value"],
                    "unit": metric["unit"],
                }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Router performance benchmark (see README.md)."
    )
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="shuffle each design's net order with this seed",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="rounds per workload (default: the workload's own)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="child-time budget per workload; after the first round, no "
             "round starts that would end past it",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: untraced passes only, print end-to-end metrics; "
             "1: a traced pass in every round, print per-layer metrics "
             "(default: traced passes in the first three rounds, print "
             "end-to-end metrics)",
    )
    parser.add_argument("--out", help="write the full JSON result here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instances, one pass each: a self-test, not a measurement",
    )
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class WorkloadRun:
    """The children of one workload, their results and their failures."""

    def __init__(self, workload: Workload, args: argparse.Namespace) -> None:
        self.workload = workload
        self.args = args
        self.scale = workload.smoke_scale if args.smoke else workload.scale
        self.limit = args.repeats
        if self.limit is None and args.seconds is None:
            self.limit = 1 if args.smoke else workload.repeats
        self.passes: dict[str, list[dict]] = {
            "untraced": [], "traced": [], "setup": [],
        }
        #: (untraced, traced) results of each round with both passes.
        self.pairs: list[tuple[dict, dict]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds = 0
        #: Wall time spent in this workload's children.
        self.busy = 0.0

    def run(self, mode: str) -> Optional[dict]:
        """One child, ``untraced``, ``traced`` or ``setup``; its result,
        if any."""
        self.attempted += 1
        label = f"{mode} pass {len(self.passes[mode]) + 1}"
        request = {
            "workload": self.workload.name,
            "scale": self.scale,
            "seed": self.args.seed,
            "mode": mode,
        }
        try:
            out = run_child(request)
        except ChildError as exc:
            self.failures.append(f"{label}: {exc}")
            return None
        if mode != "setup":
            self.failures.extend(check_pass(label, out, self.passes))
        self.passes[mode].append(out)
        return out

    def wants_round(self) -> bool:
        """Whether another round fits the repeat limit and time budget."""
        if self.limit is not None and self.rounds >= self.limit:
            return False
        if self.args.seconds is None or self.rounds == 0:
            return True
        next_end = self.busy * (self.rounds + 1) / self.rounds
        return next_end <= self.args.seconds

    def top_up_setups(self) -> None:
        """Set-up-only children until ``SETUP_SAMPLES`` children have
        set up, so that ``setup_s`` is a median of several."""
        while self.attempted < SETUP_SAMPLES:
            self.run("setup")

    def round(self) -> None:
        """An untraced pass, then a traced one: in every round with
        ``--trace 1``, in none with ``--trace 0``, and otherwise in the
        first ``MIN_OVERHEAD_PAIRS`` rounds."""
        start = time.perf_counter()
        untraced = self.run("untraced")
        if self.args.trace == 1 or (
            self.args.trace is None and self.rounds < MIN_OVERHEAD_PAIRS
        ):
            traced = self.run("traced")
            if untraced is not None and traced is not None:
                self.pairs.append((untraced, traced))
        self.rounds += 1
        self.busy += time.perf_counter() - start
        print(f"[{self.workload.name}: round {self.rounds}, "
              f"{len(self.failures)} failed]", file=sys.stderr, flush=True)

    def summary(self, spec: dict) -> dict:
        """The workload's result document."""
        measured = any(self.passes.values())
        return {
            "router": self.workload.router,
            "circuits": list(self.workload.circuits),
            "scale": self.scale,
            "passes": {mode: len(ps) for mode, ps in self.passes.items()},
            "ops_attempted": self.attempted,
            "ops_failed": len(self.failures),
            "failures": self.failures,
            "metrics": (
                end_to_end(self.workload, self.passes, spec) if measured else {}
            ),
            "speed": machine_speed(self.passes) if measured else {},
            **layers(self.passes, self.pairs, spec),
        }


def measure(names: list[str], args: argparse.Namespace, spec: dict) -> dict:
    """Run the workloads and summarize each.

    Rounds of different workloads alternate, so a slow spell of a
    shared machine costs each workload one round rather than costing
    one workload all of its rounds.
    """
    runs = [WorkloadRun(WORKLOADS[name], args) for name in names]
    while True:
        pending = [run for run in runs if run.wants_round()]
        if not pending:
            break
        for run in pending:
            run.round()
    for run in runs:
        run.top_up_setups()
    return {run.workload.name: run.summary(spec) for run in runs}


def run_child(request: dict) -> dict:
    """Run one child pass and return its JSON result.

    Children hash strings with one fixed seed: under a random seed per
    process, the same global-routing call at the same speed took up to
    30% longer in one process than in the next.
    """
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"crash: no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise ChildError(f"crash: exit {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError("crash: no JSON result line") from None


def check_pass(label: str, out: dict, passes: dict) -> list[str]:
    """Failures of one routing pass: hard-constraint breach, drift
    from the first pass."""
    failures = []
    vertical = out["quality"].get("vertical_violations", 0)
    if vertical > 0:
        failures.append(f"{label}: {vertical} vertical violations")
    earlier = passes["untraced"] + passes["traced"]
    if earlier and out["signature"] != earlier[0]["signature"]:
        failures.append(f"{label}: result differs from the first pass")
    return failures


def at_reference_speed(timing: dict) -> float:
    """A timed step's time at the reference speed: its CPU time times
    the share of the reference speed the CPU ran at meanwhile."""
    return timing["cpu_s"] * timing["speed"]


def route_seconds(out: dict) -> float:
    """A routing pass's ``route_s``: its calls at the reference speed."""
    return sum(at_reference_speed(c) for c in out["route_calls"])


def end_to_end(workload: Workload, passes: dict, spec: dict) -> dict:
    """End-to-end metrics: per-pass values summarized over the untraced
    passes (set-up over every child).

    Every timing is at the reference speed (``at_reference_speed``): the
    wall time of a shared machine drifts by more over minutes than any
    change worth measuring, and CPU time at a fixed speed does not.
    """
    per_pass: dict[str, list[float]] = {}
    for out in passes["untraced"]:
        for name, value in pass_metrics(out).items():
            per_pass.setdefault(name, []).append(value)
    per_pass["setup_s"] = [
        at_reference_speed(out["setup"]) for ps in passes.values() for out in ps
    ]
    metrics = {}
    for metric in spec["all_end_to_end"]:
        if workload.global_only and metric["flow_only"]:
            continue
        samples = per_pass.get(metric["name"])
        if samples:
            metrics[metric["name"]] = summary(samples, metric)
    return metrics


def machine_speed(passes: dict) -> dict:
    """How fast the machine ran: the fastest speed sample of the run,
    and for each untraced pass its wall ``route()`` time and how many
    times longer that is than its ``route_s``."""
    untraced = passes["untraced"]
    walls = [sum(c["wall_s"] for c in out["route_calls"]) for out in untraced]
    return {
        "reference_probe_s": REFERENCE_PROBE_S,
        "fastest_probe_s": min(
            timing["fastest_probe_s"]
            for ps in passes.values()
            for out in ps
            for timing in [out["setup"], *out.get("route_calls", [])]
        ),
        "wall_route_s": walls,
        "slowdown": [
            wall / route_seconds(out) for wall, out in zip(walls, untraced)
        ],
    }


def pass_metrics(out: dict) -> dict[str, float]:
    """End-to-end metric values of one routing pass."""
    q = out["quality"]
    routed = q["routed"]
    route_s = route_seconds(out)
    values = {
        "route_s": route_s,
        "routed_nets_per_s": routed / route_s,
        "peak_rss_mb": out["peak_rss_mb"],
        "routability": routed / q["nets"],
        "wl_per_net": q["wirelength"] / routed,
        "vertex_overflow": q["vertex_overflow"],
    }
    if "vias" in q:
        values.update({
            "vertical_violations": q["vertical_violations"],
            "audit_findings": q["audit_findings"] + q["audit_drift"],
            "vv_per_knet": 1000.0 * q["via_violations"] / routed,
            "sp_per_knet": 1000.0 * q["short_polygons"] / routed,
            "vias_per_net": q["vias"] / routed,
        })
    return values


def layers(
    passes: dict, pairs: list[tuple[dict, dict]], spec: dict
) -> dict:
    """Per-layer metrics: medians over the traced passes.

    The child times layers in wall time.  Here each pass's times and
    rates are brought to the reference speed by the pass's own factor:
    its ``route_s`` over the wall time of its calls, speed samples
    included, which is the time the layers partition.

    ``observe.trace_overhead_pct`` compares each traced pass with the
    untraced pass just before it, both at the reference speed, and
    is reported only over ``MIN_OVERHEAD_PAIRS`` or more such pairs.
    """
    traced = passes["traced"]
    power = {"s": 1, "1/s": -1}
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for out in traced:
        wall = sum(c["wall_s"] + c["probe_busy_s"] for c in out["route_calls"])
        factor = route_seconds(out) / wall
        for name, value in out["layers"].items():
            scaled = value * factor ** power.get(units.get(name, ""), 0)
            values.setdefault(name, []).append(scaled)
    result = {}
    for metric in spec["per_layer"]:
        if metric["name"] in values:
            result[metric["name"]] = summary(values[metric["name"]], metric)
    if len(pairs) >= MIN_OVERHEAD_PAIRS:
        result["observe.trace_overhead_pct"] = summary(
            [100.0 * (route_seconds(t) / route_seconds(u) - 1.0)
             for u, t in pairs],
            {"unit": "%"},
        )
    return {
        "layers": result,
        "overhead_pairs": len(pairs),
        "absent": sorted({a for out in traced for a in out["absent"]}),
        "layer_check": [out["layer_check"] for out in traced],
    }


def summary(samples: list[float], metric: dict) -> dict:
    """Median (the value), quartiles and sample count of one metric.

    The quartiles are inclusive: for a handful of passes the exclusive
    method reaches out to nearly the extreme samples.
    """
    q1, q3 = (
        statistics.quantiles(samples, n=4, method="inclusive")[::2]
        if len(samples) > 1 else (samples[0], samples[0])
    )
    return {
        "value": statistics.median(samples),
        "unit": metric["unit"],
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def print_workload(name: str, result: dict) -> None:
    """Human-readable metrics of one workload."""
    scales = f"{', '.join(result['circuits'])} @{result['scale']}"
    passes = ", ".join(f"{n} {mode}" for mode, n in result["passes"].items())
    print(f"== {name}: {result['router']} on {scales} ({passes} passes)")
    print(f"   ops_failed / ops_attempted: {result['ops_failed']} / "
          f"{result['ops_attempted']}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    speed = result["speed"]
    if speed.get("slowdown"):
        print(f"   machine: fastest speed sample "
              f"{1000 * speed['fastest_probe_s']:.3f} ms (reference "
              f"{1000 * speed['reference_probe_s']:.3f} ms); passes ran "
              f"{min(speed['slowdown']):.2f}x to {max(speed['slowdown']):.2f}x "
              f"slower, in {min(speed['wall_route_s']):.3g} to "
              f"{max(speed['wall_route_s']):.3g} s of wall time")
    for section in ("metrics", "layers"):
        for metric, s in result[section].items():
            spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if s["n"] > 1 else ""
            print(f"   {metric:36s} {s['value']:14.6g} {s['unit']:12s}"
                  f"  n {s['n']}{spread}")
    layers = result["layers"]
    if result["passes"]["traced"] and "observe.trace_overhead_pct" not in layers:
        print(f"   observe.trace_overhead_pct: unresolved, "
              f"{result['overhead_pairs']} pairs of passes "
              f"(needs {MIN_OVERHEAD_PAIRS})")
    if result["absent"]:
        print(f"   absent (wrapper target gone): {', '.join(result['absent'])}")


def machine_stamp() -> dict:
    """The machine and code a result was measured on."""
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu_model = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_head = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            if proc.returncode == 0:
                git_head = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_head": git_head,
    }


if __name__ == "__main__":
    sys.exit(main())
