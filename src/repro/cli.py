"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``route`` — route one benchmark circuit with the stitch-aware
  framework (or the baseline), print the violation report, optionally
  write the SVG plot, the JSON report, and the design snapshot.
* ``compare`` — run both routers on one circuit and print the
  Table III style comparison row.
* ``diag`` — route one circuit and print the per-stitch-line
  violation histogram (which line causes which #VV/#SP).
* ``trace show|diff|top`` — summarize, compare, or hotspot-rank saved
  trace JSONs (``--profile`` dumps, report files, BENCH documents, or
  ``.ndjson`` / ``.ndjson.gz`` event streams; ``.json.gz`` works too).
* ``watch`` — tail a live ``--stream`` NDJSON file: per-stage
  progress, nets/s and expansions/s rates, heartbeat gauges, hotspot
  deltas, and the final hotspot ranking when the run finishes.
* ``perf-history`` — roll the committed ``BENCH_*.json`` /
  ``SPEEDUP_ENGINE_*.json`` artifacts into one perf-trajectory report.
* ``lint`` — run the determinism linter (rules DET001–DET005, see
  ``docs/static_analysis.md``) over source paths; exits nonzero on
  findings not grandfathered by the committed baseline.
  ``--select`` / ``--ignore`` restrict the active rule set.
* ``parity`` — run the cross-backend parity analyzer (rules
  PAR001–PAR006) over source paths; exits nonzero on findings not
  grandfathered by the committed ``parity-baseline.json``.
* ``check`` — the umbrella static gate: ``lint`` + ``parity`` with one
  exit code.  The analyzer commands exit 2 on a path that is neither a
  directory nor a ``.py`` file.
* ``audit`` — route one circuit and run the independent solution
  auditor (rules AUD001–AUD007) over the result: every stitching
  constraint is re-derived from the raw geometry and the report's
  counters are cross-checked; exits 1 on any finding or counter
  drift.
* ``circuits`` — list the available benchmark circuits.

``route``, ``compare``, ``diag`` and ``audit`` accept ``--engine`` to
pick the routing engine, ``--workers N`` to route conflict-free net
batches on a thread pool, ``--sanitize`` to route with the
speculation-footprint sanitizer enabled, and ``--perf`` to enable the
engine profiling counters (``counters``) or full live progress events
(``full``); ``--scale`` must lie in (0, 100].  ``route --stream FILE`` streams the
run's events to an NDJSON file that ``repro watch FILE`` can tail.

``-v`` / ``-vv`` (before the command) stream live span/round progress
from the run through the :mod:`repro.observe.log` bridge.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Optional

from .benchmarks_gen import (
    FARADAY_NAMES,
    MCNC_NAMES,
    faraday_design,
    mcnc_design,
)
from .config import RouterConfig
from .api import BaselineRouter, StitchAwareRouter
from .eval import RoutingReport
from .io import save_design, save_report
from .observe import schema as observe_schema
from .observe import (
    DiffThresholds,
    LoggingTracer,
    RunTrace,
    StreamingTracer,
    TraceSummary,
    Tracer,
    collect_perf_history,
    configure_logging,
    diff_traces,
    hotspots,
    load_trace_file,
    render_diff,
    render_hotspots,
    render_perf_history,
    render_summary,
)
from .reporting import format_table
from .viz import render_routing_svg


def _scale(text: str) -> float:
    """The ``--scale`` argparse type: a size factor in (0, 100]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value <= 100.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 100], got {text}")
    return value


def _get_design(name: str, scale: float):
    if name in MCNC_NAMES:
        return mcnc_design(name, scale)
    if name in FARADAY_NAMES:
        return faraday_design(name, scale)
    raise SystemExit(
        f"unknown circuit {name!r}; run `python -m repro circuits`"
    )


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    """The tracer a run subcommand should route with.

    ``--stream FILE`` wins (live NDJSON events for ``repro watch``),
    then ``-v`` (logging bridge), else let the flow decide.
    """
    stream = getattr(args, "stream", None)
    if stream:
        return StreamingTracer(stream)
    return LoggingTracer() if args.verbose else None


def _profile_path(prefix: str, label: str) -> str:
    """Per-router trace path: splice ``label`` before the extension.

    ``foo.json`` + ``baseline`` -> ``foo_baseline.json`` (not the
    mangled ``foo.json_baseline.json``); an extension-less prefix gets
    ``.json`` appended.
    """
    path = pathlib.Path(prefix)
    suffix = path.suffix if path.suffix == ".json" else ""
    stem = path.name[: len(path.name) - len(suffix)] if suffix else path.name
    return str(path.with_name(f"{stem}_{label}{suffix or '.json'}"))


def _cmd_circuits(_args: argparse.Namespace) -> int:
    print("MCNC   :", ", ".join(MCNC_NAMES))
    print("Faraday:", ", ".join(FARADAY_NAMES))
    return 0


def _run_config(args: argparse.Namespace, audit: bool = False) -> RouterConfig:
    """The flow config for a run subcommand."""
    return RouterConfig(
        workers=args.workers,
        sanitize=args.sanitize,
        engine=args.engine,
        profile=args.perf,
        audit=audit,
    )


def _cmd_route(args: argparse.Namespace) -> int:
    design = _get_design(args.circuit, args.scale)
    config = _run_config(args)
    router = (
        BaselineRouter(config=config)
        if args.baseline
        else StitchAwareRouter(config=config)
    )
    flow = router.route(design, tracer=_make_tracer(args))
    report = flow.report
    print(
        format_table(
            [report.row()],
            title=f"{design.name} @ scale {args.scale} "
            f"({'baseline' if args.baseline else 'stitch-aware'})",
        )
    )
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(render_routing_svg(flow.detailed_result))
        print(f"wrote {args.svg}")
    if args.report:
        save_report(report, args.report)
        print(f"wrote {args.report}")
    if args.save_design:
        save_design(design, args.save_design)
        print(f"wrote {args.save_design}")
    if args.profile:
        assert flow.trace is not None
        flow.trace.save(args.profile)
        print(f"wrote {args.profile}")
        for stage, seconds in flow.trace.stage_wall_seconds().items():
            print(f"  {stage:<12s} {seconds:8.3f} s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    design = _get_design(args.circuit, args.scale)
    config = _run_config(args)
    rows = []
    for label, router in (
        ("baseline", BaselineRouter(config=config)),
        ("stitch-aware", StitchAwareRouter(config=config)),
    ):
        flow = router.route(design, tracer=_make_tracer(args))
        report = flow.report
        row = report.row()
        row["circuit"] = f"{design.name} ({label})"
        rows.append(row)
        if args.profile:
            assert flow.trace is not None
            path = _profile_path(args.profile, label)
            flow.trace.save(path)
            print(f"wrote {path}")
    print(format_table(rows, title=f"{design.name} @ scale {args.scale}"))
    base_sp, aware_sp = rows[0]["sp"], rows[1]["sp"]
    if base_sp:
        print(f"\nshort polygons reduced to "
              f"{100 * aware_sp / base_sp:.1f}% of baseline")
    return 0


def _histogram_rows(report: RoutingReport) -> list[dict]:
    """Per-stitch-line table rows (line index, x, per-kind counts)."""
    line_x = {v.line: v.x for v in report.violations}
    rows = []
    for line, kinds in report.stitch_line_histogram().items():
        rows.append(
            {
                "line": line,
                "x": line_x[line],
                "vv": kinds["via"],
                "vertical": kinds["vertical"],
                "sp": kinds["short-polygon"],
                "total": sum(kinds.values()),
            }
        )
    return rows


def _cmd_diag(args: argparse.Namespace) -> int:
    design = _get_design(args.circuit, args.scale)
    config = _run_config(args)
    router = (
        BaselineRouter(config=config)
        if args.baseline
        else StitchAwareRouter(config=config)
    )
    flow = router.route(design, tracer=_make_tracer(args))
    report = flow.report
    print(
        format_table(
            [report.row()],
            title=f"{design.name} @ scale {args.scale} "
            f"({'baseline' if args.baseline else 'stitch-aware'})",
        )
    )
    print()
    rows = _histogram_rows(report)
    if rows:
        print(
            format_table(
                rows,
                columns=["line", "x", "vv", "vertical", "sp", "total"],
                title="violations per stitching line "
                f"({len(design.stitches)} lines total)",
            )
        )
    else:
        print("no stitch violations — every line is clean")
    worst = sorted(rows, key=lambda r: r["total"], reverse=True)[:3]
    for row in worst:
        offenders = sorted(
            {v.net for v in report.violations if v.line == row["line"]}
        )
        shown = ", ".join(offenders[:6])
        more = f" (+{len(offenders) - 6} more)" if len(offenders) > 6 else ""
        print(f"line {row['line']} (x={row['x']}): nets {shown}{more}")
    if args.report:
        save_report(report, args.report)
        print(f"wrote {args.report}")
    return 0


def _load_trace(path: str, key: Optional[str]) -> RunTrace:
    """:func:`load_trace_file`; bad input raises a ValueError naming ``path``."""
    try:
        return load_trace_file(path, key=key)
    except OSError as error:
        raise ValueError(
            f"cannot read {path}: {error.strerror or error}"
        ) from error
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from error


def _trace_error(error: ValueError) -> int:
    """Report a ``trace`` subcommand's bad input: one line, exit 2."""
    print(f"repro trace: {error}", file=sys.stderr)
    return 2


def _cmd_trace_show(args: argparse.Namespace) -> int:
    try:
        trace = _load_trace(args.trace, args.key)
    except ValueError as error:
        return _trace_error(error)
    fmt = "markdown" if args.markdown else "plain"
    print(render_summary(TraceSummary.from_trace(trace), fmt=fmt))
    unregistered = sorted(
        name
        for name in trace.aggregate_counters()
        if not observe_schema.is_registered("counter", name)
    )
    if unregistered:
        print(
            "warning: counters missing from repro.observe.schema: "
            + ", ".join(unregistered)
        )
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    try:
        old = _load_trace(args.old, args.key_old or args.key)
        new = _load_trace(args.new, args.key_new or args.key)
    except ValueError as error:
        return _trace_error(error)
    thresholds = DiffThresholds(
        wall_pct=args.wall_tolerance,
        min_wall_seconds=args.min_wall,
        include_wall=not args.no_wall,
    )
    diff = diff_traces(old, new, thresholds)
    fmt = "markdown" if args.markdown else "plain"
    print(render_diff(diff, fmt=fmt))
    if not diff.ok:
        print()
        print("REGRESSIONS:")
        for line in diff.regressions():
            print(f"  {line}")
        return 1
    return 0


def _rule_codes(raw: Optional[str]) -> Optional[list[str]]:
    """Parse a comma-separated ``--select`` / ``--ignore`` value."""
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def _update_baseline(
    baseline_path: pathlib.Path,
    findings: list,
    *,
    format: str,
) -> int:
    """Rewrite ``baseline_path`` from ``findings``, reporting the churn.

    Stale fingerprints (grandfathered findings that no longer exist)
    are pruned; brand-new findings are added.  Both counts are printed
    so a baseline refresh is reviewable at a glance.
    """
    from .analysis import Baseline, save_baseline

    old: frozenset = frozenset()
    if baseline_path.exists():
        old = Baseline.load(baseline_path, format=format).fingerprints
    new = {finding.fingerprint for finding in findings}
    count = save_baseline(baseline_path, findings, format=format)
    print(
        f"wrote {baseline_path} ({count} grandfathered finding(s), "
        f"{len(new - old)} added, {len(old - new)} pruned)"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here: the linter pulls in the analysis package, which
    # routing commands never need.
    from .analysis import (
        DEFAULT_BASELINE_NAME,
        Baseline,
        lint_paths,
        render_findings,
    )
    from .analysis.baseline import BASELINE_FORMAT

    paths = args.paths or ["src"]
    select = _rule_codes(args.select)
    ignore = _rule_codes(args.ignore)
    baseline_path = pathlib.Path(args.baseline or DEFAULT_BASELINE_NAME)
    try:
        if args.update_baseline:
            report = lint_paths(paths, select=select, ignore=ignore)
            status = _update_baseline(
                baseline_path,
                report.findings,
                format=BASELINE_FORMAT,
            )
            for line in _dead_suppression_warnings(report):
                print(line, file=sys.stderr)
            return status
        fingerprints: frozenset = frozenset()
        if baseline_path.exists():
            fingerprints = Baseline.load(baseline_path).fingerprints
        report = lint_paths(
            paths,
            baseline_fingerprints=fingerprints,
            select=select,
            ignore=ignore,
        )
    except ValueError as error:  # unknown rule codes or paths -> usage error
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        document = {
            "findings": [f.to_dict() for f in report.findings],
            "grandfathered": [f.to_dict() for f in report.grandfathered],
            "suppressed": report.suppressed,
            "dead_suppressions": [
                d.to_dict() for d in report.dead_suppressions
            ],
            "files": report.files,
            "ok": report.ok,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_findings(report))
    return 0 if report.ok else 1


def _dead_suppression_warnings(report) -> list:
    from .analysis.findings import dead_suppression_lines

    return dead_suppression_lines(report.dead_suppressions)


def _cmd_parity(args: argparse.Namespace) -> int:
    # Imported here for the same reason as the linter.
    from .analysis import (
        Baseline,
        analyze_parity_paths,
        render_parity,
    )
    from .analysis.baseline import (
        DEFAULT_PARITY_BASELINE_NAME,
        PARITY_BASELINE_FORMAT,
    )

    paths = args.paths or ["src"]
    select = _rule_codes(args.select)
    ignore = _rule_codes(args.ignore)
    baseline_path = pathlib.Path(
        args.baseline or DEFAULT_PARITY_BASELINE_NAME
    )
    try:
        if args.update_baseline:
            report = analyze_parity_paths(
                paths, select=select, ignore=ignore
            )
            status = _update_baseline(
                baseline_path,
                report.findings,
                format=PARITY_BASELINE_FORMAT,
            )
            for line in _dead_suppression_warnings(report):
                print(line, file=sys.stderr)
            return status
        fingerprints: frozenset = frozenset()
        if baseline_path.exists():
            fingerprints = Baseline.load(
                baseline_path, format=PARITY_BASELINE_FORMAT
            ).fingerprints
        report = analyze_parity_paths(
            paths,
            baseline_fingerprints=fingerprints,
            select=select,
            ignore=ignore,
        )
    except ValueError as error:  # unknown rule codes or paths -> usage error
        print(f"repro parity: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        document = {
            "findings": [f.to_dict() for f in report.findings],
            "grandfathered": [f.to_dict() for f in report.grandfathered],
            "suppressed": report.suppressed,
            "dead_suppressions": [
                d.to_dict() for d in report.dead_suppressions
            ],
            "files": report.files,
            "pairs": report.pairs,
            "ok": report.ok,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_parity(report))
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Umbrella static gate: lint + parity in one run.

    Each analyzer loads its own default committed baseline, exactly as
    the standalone commands do; ``--mypy`` / ``--ruff`` additionally
    shell out to those tools when installed.  The exit code is the
    conjunction of every gate.
    """
    import importlib.util
    import subprocess

    from .analysis import (
        Baseline,
        analyze_parity_paths,
        lint_paths,
        render_findings,
        render_parity,
    )
    from .analysis.baseline import (
        BASELINE_FORMAT,
        DEFAULT_BASELINE_NAME,
        DEFAULT_PARITY_BASELINE_NAME,
        PARITY_BASELINE_FORMAT,
    )

    paths = args.paths or ["src"]

    def baseline(name: str, format: str) -> frozenset:
        path = pathlib.Path(name)
        if path.exists():
            return Baseline.load(path, format=format).fingerprints
        return frozenset()

    try:
        reports = {
            "lint": lint_paths(
                paths,
                baseline_fingerprints=baseline(
                    DEFAULT_BASELINE_NAME, BASELINE_FORMAT
                ),
            ),
            "parity": analyze_parity_paths(
                paths,
                baseline_fingerprints=baseline(
                    DEFAULT_PARITY_BASELINE_NAME, PARITY_BASELINE_FORMAT
                ),
            ),
        }
    except ValueError as error:  # no such path -> usage error
        print(f"repro check: {error}", file=sys.stderr)
        return 2
    renderers = {
        "lint": render_findings,
        "parity": render_parity,
    }

    external: dict[str, dict] = {}
    for tool, wanted in (("mypy", args.mypy), ("ruff", args.ruff)):
        if not wanted:
            continue
        if importlib.util.find_spec(tool) is None:
            print(
                f"repro check: --{tool} requested but {tool} is not "
                f"installed",
                file=sys.stderr,
            )
            return 2
        command = [sys.executable, "-m", tool]
        if tool == "ruff":
            command.append("check")
        command.extend(paths)
        proc = subprocess.run(command, capture_output=True, text=True)
        external[tool] = {
            "ok": proc.returncode == 0,
            "exit_code": proc.returncode,
            "output": (proc.stdout + proc.stderr).strip(),
        }

    ok = all(report.ok for report in reports.values()) and all(
        entry["ok"] for entry in external.values()
    )
    if args.format == "json":
        document: dict = {"ok": ok}
        for name, report in reports.items():
            section = {
                "findings": [f.to_dict() for f in report.findings],
                "grandfathered": [
                    f.to_dict() for f in report.grandfathered
                ],
                "suppressed": report.suppressed,
                "dead_suppressions": [
                    d.to_dict() for d in report.dead_suppressions
                ],
                "files": report.files,
                "ok": report.ok,
            }
            if name == "parity":
                section["pairs"] = report.pairs
            document[name] = section
        document.update(external)
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for name, report in reports.items():
            print(f"== {name} ==")
            print(renderers[name](report))
        for tool, entry in external.items():
            print(f"== {tool} ==")
            if entry["output"]:
                print(entry["output"])
            print(
                f"{tool}: "
                f"{'ok' if entry['ok'] else 'exit ' + str(entry['exit_code'])}"
            )
        print(f"check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    # Imported here like the linter: analysis is a consumer layer the
    # plain routing commands never need.
    from .analysis import render_audit

    design = _get_design(args.circuit, args.scale)
    config = _run_config(args, audit=True)
    router = (
        BaselineRouter(config=config)
        if args.baseline
        else StitchAwareRouter(config=config)
    )
    flow = router.route(design, tracer=_make_tracer(args))
    audit = flow.audit
    assert audit is not None  # guaranteed by config.audit=True
    if args.format == "json":
        print(json.dumps(audit.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_audit(audit))
    if args.report:
        save_report(flow.report, args.report)
        print(f"wrote {args.report}", file=sys.stderr)
    return 0 if audit.ok else 1


def _cmd_trace_top(args: argparse.Namespace) -> int:
    try:
        trace = _load_trace(args.trace, args.key)
    except ValueError as error:
        return _trace_error(error)
    fmt = "markdown" if args.markdown else "plain"
    print(render_hotspots(hotspots(trace, n=args.n), fmt=fmt))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    # Imported here: the watcher is a pure observer the routing
    # commands never need (and it pulls in polling machinery).
    from .observe.watch import watch_stream

    try:
        return watch_stream(
            args.stream,
            follow=not args.no_follow,
            poll_interval=args.interval,
            timeout=args.timeout,
        )
    except FileNotFoundError:
        print(f"repro watch: no such stream: {args.stream}", file=sys.stderr)
        return 2
    except (ValueError, TimeoutError) as error:
        print(f"repro watch: {error}", file=sys.stderr)
        return 2


def _cmd_perf_history(args: argparse.Namespace) -> int:
    history = collect_perf_history(args.dir)
    fmt = "markdown" if args.markdown else "plain"
    print(render_perf_history(history, fmt=fmt))
    return 0 if not history.empty else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stitch-aware routing for MEBL (DAC'13 reproduction)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="stream run progress (-v: stages and rounds, -vv: all spans)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    circuits = sub.add_parser("circuits", help="list benchmark circuits")
    circuits.set_defaults(func=_cmd_circuits)

    def _run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scale",
            type=_scale,
            default=0.05,
            help="instance size factor in (0, 100] (default: 0.05)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="routing worker threads (1 = serial; N > 1 routes "
            "conflict-free net batches concurrently with identical "
            "results, see docs/parallelism.md)",
        )
        p.add_argument(
            "--sanitize",
            action="store_true",
            help="audit every speculative shared-state access against "
            "the declared overlay footprints and fail loudly on any "
            "undeclared access (see docs/static_analysis.md)",
        )
        p.add_argument(
            "--engine",
            choices=("object", "array", "auto"),
            default="auto",
            help="routing engine: the object-graph reference, the "
            "numpy-backed array core, or auto (array when numpy is "
            "available; both produce byte-identical reports, see "
            "docs/performance.md)",
        )
        p.add_argument(
            "--perf",
            choices=("off", "counters", "full"),
            default="off",
            help="engine profiling: 'counters' records perf_* engine "
            "counters (heap traffic, overlay churn, cache refreshes) "
            "in the trace, 'full' additionally emits per-net/per-task "
            "progress events; 'off' is zero-cost and byte-identical "
            "to the committed baselines (see docs/observability.md)",
        )

    route = sub.add_parser("route", help="route one circuit")
    route.add_argument("circuit")
    route.add_argument("--baseline", action="store_true")
    _run_flags(route)
    route.add_argument("--svg", help="write the routing plot")
    route.add_argument("--report", help="write the JSON violation report")
    route.add_argument("--save-design", help="write the design snapshot")
    route.add_argument(
        "--profile",
        nargs="?",
        const="trace.json",
        metavar="JSON",
        help="write the per-stage trace (default: trace.json)",
    )
    route.add_argument(
        "--stream",
        metavar="NDJSON",
        help="append live trace events to this NDJSON file while the "
        "run executes (.gz writes gzip); tail it with `repro watch`",
    )
    route.set_defaults(func=_cmd_route)

    compare = sub.add_parser("compare", help="baseline vs stitch-aware")
    compare.add_argument("circuit")
    _run_flags(compare)
    compare.add_argument(
        "--profile",
        nargs="?",
        const="trace",
        metavar="PREFIX",
        help="write one trace per router as PREFIX_<label>.json "
        "(default prefix: trace)",
    )
    compare.set_defaults(func=_cmd_compare)

    diag = sub.add_parser(
        "diag",
        help="per-stitch-line violation diagnosis of one circuit",
    )
    diag.add_argument("circuit")
    diag.add_argument("--baseline", action="store_true")
    _run_flags(diag)
    diag.add_argument(
        "--report", help="also write the JSON report (with attributions)"
    )
    diag.set_defaults(func=_cmd_diag)

    lint = sub.add_parser(
        "lint",
        help="determinism linter (DET rules, docs/static_analysis.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--baseline",
        metavar="JSON",
        help="baseline file of grandfathered findings "
        "(default: ./lint-baseline.json when present)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings",
    )
    lint.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated DET codes to check (default: all rules)",
    )
    lint.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated DET codes to skip",
    )
    lint.set_defaults(func=_cmd_lint)

    parity = sub.add_parser(
        "parity",
        help="static cross-backend parity analyzer "
        "(PAR rules, docs/static_analysis.md)",
    )
    parity.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src)",
    )
    parity.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parity.add_argument(
        "--baseline",
        metavar="JSON",
        help="baseline file of grandfathered findings "
        "(default: ./parity-baseline.json when present)",
    )
    parity.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings",
    )
    parity.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated PAR codes to check (default: all rules)",
    )
    parity.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated PAR codes to skip",
    )
    parity.set_defaults(func=_cmd_parity)

    check = sub.add_parser(
        "check",
        help="umbrella static gate: lint + parity "
        "(one exit code; --mypy/--ruff add the external tools)",
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src)",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    check.add_argument(
        "--mypy",
        action="store_true",
        help="also run mypy on the paths (error if not installed)",
    )
    check.add_argument(
        "--ruff",
        action="store_true",
        help="also run ruff check on the paths (error if not installed)",
    )
    check.set_defaults(func=_cmd_check)

    audit = sub.add_parser(
        "audit",
        help="route one circuit and independently verify the solution "
        "(AUD rules, docs/static_analysis.md)",
    )
    audit.add_argument("circuit")
    audit.add_argument("--baseline", action="store_true")
    _run_flags(audit)
    audit.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    audit.add_argument(
        "--report", help="also write the JSON violation report"
    )
    audit.set_defaults(func=_cmd_audit)

    trace = sub.add_parser("trace", help="inspect saved trace JSONs")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    def _trace_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--key",
            help="trace label inside a BENCH_*.json document",
        )
        p.add_argument(
            "--markdown", action="store_true", help="render markdown tables"
        )

    show = tsub.add_parser("show", help="per-stage rollup of one trace")
    show.add_argument("trace")
    _trace_common(show)
    show.set_defaults(func=_cmd_trace_show)

    diff = tsub.add_parser(
        "diff",
        help="structured delta between two traces "
        "(exits 1 on counter drift or wall regression)",
    )
    diff.add_argument("old")
    diff.add_argument("new")
    _trace_common(diff)
    diff.add_argument("--key-old", help="label for OLD in a BENCH document")
    diff.add_argument("--key-new", help="label for NEW in a BENCH document")
    diff.add_argument(
        "--wall-tolerance",
        type=float,
        default=25.0,
        metavar="PCT",
        help="wall-time slowdown considered a regression (default 25%%)",
    )
    diff.add_argument(
        "--min-wall",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="skip wall comparison of stages under this floor",
    )
    diff.add_argument(
        "--no-wall",
        action="store_true",
        help="compare deterministic counters only (cross-machine diffs)",
    )
    diff.set_defaults(func=_cmd_trace_diff)

    top = tsub.add_parser("top", help="hotspot ranking by self wall time")
    top.add_argument("trace")
    top.add_argument("-n", type=int, default=10, help="entries to show")
    _trace_common(top)
    top.set_defaults(func=_cmd_trace_top)

    watch = sub.add_parser(
        "watch",
        help="tail a live `route --stream` NDJSON file with progress, "
        "rates, and hotspot deltas",
    )
    watch.add_argument("stream", help="the NDJSON stream file to tail")
    watch.add_argument(
        "--no-follow",
        action="store_true",
        help="stop at the current end of file instead of tailing",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval while tailing (default 0.5)",
    )
    watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up after this long without new events "
        "(default: wait forever)",
    )
    watch.set_defaults(func=_cmd_watch)

    perf_history = sub.add_parser(
        "perf-history",
        help="perf-trajectory report from committed BENCH_*.json / "
        "SPEEDUP_ENGINE_*.json artifacts",
    )
    perf_history.add_argument(
        "--dir",
        default=".",
        help="directory holding the artifacts (default: .)",
    )
    perf_history.add_argument(
        "--markdown", action="store_true", help="render markdown tables"
    )
    perf_history.set_defaults(func=_cmd_perf_history)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point (also used by ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed stdout mid-print (watch and the
        # table commands are routinely piped); exit quietly.  Redirect
        # stdout so the interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
