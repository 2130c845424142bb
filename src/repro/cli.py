"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``route`` — route one benchmark circuit with the stitch-aware
  framework (or the baseline), print the violation report, optionally
  write the SVG plot, the JSON report, and the design snapshot.
* ``compare`` — run both routers on one circuit and print the
  Table III style comparison row.
* ``diag`` — route one circuit and print the per-stitch-line
  violation histogram (which line causes which #VV/#SP).
* ``trace show|diff|top`` — summarize, counter-diff, or hotspot-rank
  saved trace JSONs (``--profile`` dumps, report files, BENCH
  documents, or ``.ndjson`` / ``.ndjson.gz`` event streams;
  ``.json.gz`` works too).  ``diff`` compares counters only: speed
  verdicts come from ``benchmarks/perf``.
* ``watch`` — tail a live ``--stream`` NDJSON file: per-stage
  progress, per-stage nets/s and expansions/s rates, heartbeat gauges,
  hotspot deltas, and the final hotspot ranking when the run finishes.
* ``lint`` — run the linter (determinism rules DET001–DET005, see
  ``docs/static_analysis.md``) over source paths; exits 1 on any
  finding that no justified ``# repro: allow-`` comment silences, and
  2 on a path that is neither a directory nor a ``.py`` file or on a
  file that does not decode or parse.
* ``audit`` — route one circuit and run the independent solution
  auditor (rules AUD001–AUD007) over the result: every stitching
  constraint is re-derived from the raw geometry and the report's
  counters are cross-checked; exits 1 on any finding or counter
  drift.
* ``circuits`` — list the available benchmark circuits.

``route``, ``compare``, ``diag`` and ``audit`` accept ``--perf
counters`` to enable the profiling counters; ``--scale`` must lie in
(0, 100].  ``route --stream FILE`` writes the run's events to an
NDJSON file that ``repro watch FILE`` can tail.
Every output path (``--svg``, ``--report``, ``--save-design``,
``--profile``, ``--stream``) is checked before the design is
generated: a missing parent directory exits 2 with
``repro <cmd>: no such directory: DIR``, and a path that is an
existing directory with ``repro <cmd>: is a directory: PATH``,
instead of failing after the run.

``-v`` / ``-vv`` (before the command) print the run's live progress
on stderr in the ``repro watch`` format: ``-v`` shows the stages,
``-vv`` adds the negotiation and rip-up rounds.  ``-v`` and
``--stream`` may be combined; both are listeners on the run's one
:class:`~repro.observe.Tracer`.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from collections.abc import Callable
from typing import Optional

from .benchmarks_gen import (
    FARADAY_NAMES,
    MCNC_NAMES,
    faraday_design,
    mcnc_design,
)
from .config import RouterConfig
from .api import BaselineRouter, FlowResult, StitchAwareRouter
from .eval import RoutingReport
from .io import save_design, save_report
from .observe import (
    RunTrace,
    StreamWatcher,
    StreamWriter,
    TraceSummary,
    Tracer,
    diff_traces,
    hotspots,
    load_trace_file,
    render_diff,
    render_hotspots,
    render_summary,
    watch_stream,
)
from .observe.tracer import Event
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


def _positive_int(text: str) -> int:
    """The ``trace top -n`` argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _positive_seconds(text: str) -> float:
    """The ``watch --interval/--timeout`` argparse type: finite and > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds above 0, got {text}"
        )
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

    ``--stream FILE`` adds a :class:`StreamWriter` listener (live
    NDJSON events for ``repro watch``) and ``-v`` / ``-vv`` a
    :class:`StreamWatcher` printing spans down to depth 1 / 2 on
    stderr; either, both or neither may be given.  With neither, the
    flow makes its own tracer.
    """
    listeners: list[Callable[[Event], None]] = []
    stream = getattr(args, "stream", None)
    if stream:
        listeners.append(StreamWriter(stream))
    if args.verbose:
        listeners.append(StreamWatcher(sys.stderr, depth=args.verbose).handle)
    return Tracer(listeners) if listeners else None


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


def _route_circuit(
    args: argparse.Namespace, print_row: bool = True
) -> FlowResult:
    """Generate ``args.circuit`` and route it as the run flags ask.

    ``--baseline`` picks the router, ``--perf`` its profile, and ``-v``
    / ``--stream`` the tracer (:func:`_make_tracer`).  With
    ``print_row`` the report's row is printed under a title naming the
    circuit, the scale and the router.
    """
    design = _get_design(args.circuit, args.scale)
    router = BaselineRouter if args.baseline else StitchAwareRouter
    flow = router(config=RouterConfig(profile=args.perf)).route(
        design, tracer=_make_tracer(args)
    )
    if print_row:
        label = "baseline" if args.baseline else "stitch-aware"
        title = f"{design.name} @ scale {args.scale} ({label})"
        print(format_table([flow.report.row()], title=title))
    return flow


def _cmd_route(args: argparse.Namespace) -> int:
    flow = _route_circuit(args)
    report = flow.report
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(render_routing_svg(flow.detailed_result))
        print(f"wrote {args.svg}")
    if args.report:
        save_report(report, args.report)
        print(f"wrote {args.report}")
    if args.save_design:
        save_design(flow.design, args.save_design)
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
    config = RouterConfig(profile=args.perf)
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
    flow = _route_circuit(args)
    design, report = flow.design, flow.report
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
        message = f"cannot read: {error.strerror or error}"
    except EOFError as error:  # a truncated .gz
        message = f"cannot read: {error}"
    except json.JSONDecodeError as error:
        message = f"not valid JSON: {error}"
    except ValueError as error:
        message = str(error)
    raise ValueError(f"{path}: {message}")


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
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    try:
        old = _load_trace(args.old, args.key_old or args.key)
        new = _load_trace(args.new, args.key_new or args.key)
    except ValueError as error:
        return _trace_error(error)
    diff = diff_traces(old, new)
    fmt = "markdown" if args.markdown else "plain"
    print(render_diff(diff, fmt=fmt))
    if not diff.ok:
        print()
        print("REGRESSIONS:")
        for line in diff.regressions():
            print(f"  {line}")
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here: the linter pulls in the analysis package, which
    # routing commands never need.
    from .analysis import lint_paths, render_findings

    try:
        report = lint_paths(args.paths or ["src"])
    except ValueError as error:  # a bad path or an unreadable file
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        document = {
            "findings": [f.to_dict() for f in report.findings],
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


def _cmd_audit(args: argparse.Namespace) -> int:
    # Imported here like the linter: analysis is a consumer layer the
    # plain routing commands never need.
    from .analysis import audit_solution, render_audit

    flow = _route_circuit(args, print_row=False)
    audit = audit_solution(
        flow.detailed_result, flow.report, flow.global_result
    )
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
    try:
        return watch_stream(
            args.stream,
            follow=not args.no_follow,
            poll_interval=args.interval,
            timeout=args.timeout,
        )
    except FileNotFoundError:
        message = f"no such stream: {args.stream}"
    except OSError as error:  # a directory, a .gz that is not gzip
        message = f"{args.stream}: cannot read: {error.strerror or error}"
    except EOFError as error:  # a truncated .gz
        message = f"{args.stream}: cannot read: {error}"
    except json.JSONDecodeError as error:
        message = f"{args.stream} is not valid JSON: {error}"
    except ValueError as error:
        message = f"{args.stream}: {error}"
    except TimeoutError as error:  # names the stream already
        message = str(error)
    print(f"repro watch: {message}", file=sys.stderr)
    return 2


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
        help="print live run progress on stderr "
        "(-v: stages, -vv: rounds too)",
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
            "--perf",
            choices=("off", "counters"),
            default="off",
            help="profiling: 'counters' records perf_* search "
            "counters (heap traffic, rip-up visits, cache refreshes) "
            "in the trace; 'off' is zero-cost and byte-identical "
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
        help="write live trace events to this NDJSON file while the "
        "run executes (.gz writes gzip); tail it with `repro watch`",
    )
    route.set_defaults(
        func=_cmd_route,
        outputs=("svg", "report", "save_design", "profile", "stream"),
    )

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
    compare.set_defaults(func=_cmd_compare, outputs=("profile",))

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
    diag.set_defaults(func=_cmd_diag, outputs=("report",))

    lint = sub.add_parser(
        "lint",
        help="linter (DET rules, docs/static_analysis.md)",
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
    lint.set_defaults(func=_cmd_lint)

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
    audit.set_defaults(func=_cmd_audit, outputs=("report",))

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
        help="counter delta between two traces (exits 1 on any drift)",
    )
    diff.add_argument("old")
    diff.add_argument("new")
    _trace_common(diff)
    diff.add_argument("--key-old", help="label for OLD in a BENCH document")
    diff.add_argument("--key-new", help="label for NEW in a BENCH document")
    diff.set_defaults(func=_cmd_trace_diff)

    top = tsub.add_parser("top", help="hotspot ranking by self wall time")
    top.add_argument("trace")
    top.add_argument(
        "-n", type=_positive_int, default=10, help="entries to show"
    )
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
        type=_positive_seconds,
        default=0.5,
        metavar="SECONDS",
        help="poll interval while tailing (default 0.5)",
    )
    watch.add_argument(
        "--timeout",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="give up after this long without new events "
        "(default: wait forever)",
    )
    watch.set_defaults(func=_cmd_watch)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point (also used by ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    # Output paths are checked before the command runs, so a missing
    # directory fails at once instead of after the whole routing run.
    for name in getattr(args, "outputs", ()):
        value = getattr(args, name)
        if value is None:
            continue
        path = pathlib.Path(value)
        if not path.parent.is_dir():
            problem = f"no such directory: {path.parent}"
        elif path.is_dir() and args.command != "compare":
            # compare --profile is a prefix: its files go beside it.
            problem = f"is a directory: {path}"
        else:
            continue
        print(f"repro {args.command}: {problem}", file=sys.stderr)
        return 2
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
