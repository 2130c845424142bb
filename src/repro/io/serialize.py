"""JSON persistence for designs and routing reports.

Lets users snapshot a generated benchmark instance (so experiments are
re-runnable bit-for-bit without regenerating), exchange designs with
other tools, and archive the violation reports the benchmarks produce.

The format is deliberately plain JSON: one top-level object with a
``format`` tag and a version, so future schema changes stay detectable.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from ..config import RouterConfig
from ..eval import NetReport, RoutingReport, Violation
from ..geometry import Point
from ..layout import Design, Net, Netlist, Pin, StitchingLines, Technology
from ..observe import RunTrace

FORMAT_DESIGN = "repro-design"
FORMAT_REPORT = "repro-report"
VERSION = 1

PathLike = Union[str, pathlib.Path]

#: Config keys that older design snapshots carry but ``RouterConfig``
#: no longer has: the detailed search budgets, now the constants
#: ``RIPUP_ROUNDS`` and ``EXPANSION_LIMIT`` of ``repro.detailed.router``.
_RETIRED_CONFIG_KEYS = ("max_ripup_iterations", "detail_expansion_limit")


# ----------------------------------------------------------------------
# Design
# ----------------------------------------------------------------------
def design_to_dict(design: Design) -> dict:
    """Plain-dict form of a routing instance."""
    assert design.stitches is not None
    return {
        "format": FORMAT_DESIGN,
        "version": VERSION,
        "name": design.name,
        "width": design.width,
        "height": design.height,
        "num_layers": design.technology.num_layers,
        "first_direction": design.technology.first_direction.value,
        "config": {
            "stitch_spacing": design.config.stitch_spacing,
            "epsilon": design.config.epsilon,
            "escape_width": design.config.escape_width,
            "tile_size": design.config.tile_size,
            "alpha": design.config.alpha,
            "beta": design.config.beta,
            "gamma": design.config.gamma,
        },
        "stitch_lines": list(design.stitches.xs),
        "nets": [
            {
                "name": net.name,
                "pins": [
                    {
                        "name": pin.name,
                        "x": pin.location.x,
                        "y": pin.location.y,
                        "layer": pin.layer,
                    }
                    for pin in net.pins
                ],
            }
            for net in design.netlist
        ],
    }


def design_from_dict(data: dict) -> Design:
    """Rebuild a :class:`Design` from :func:`design_to_dict` output.

    The detailed search budgets that older snapshots carry in
    ``config`` are dropped, so those snapshots still load.
    """
    if data.get("format") != FORMAT_DESIGN:
        raise ValueError(f"not a design document: {data.get('format')!r}")
    if data.get("version") != VERSION:
        raise ValueError(f"unsupported design version {data.get('version')!r}")
    from ..layout.technology import Direction

    config = RouterConfig(
        **{
            key: value
            for key, value in data["config"].items()
            if key not in _RETIRED_CONFIG_KEYS
        }
    )
    nets = [
        Net(
            entry["name"],
            tuple(
                Pin(p["name"], Point(p["x"], p["y"]), p["layer"])
                for p in entry["pins"]
            ),
        )
        for entry in data["nets"]
    ]
    return Design(
        name=data["name"],
        width=data["width"],
        height=data["height"],
        technology=Technology(
            data["num_layers"], Direction(data["first_direction"])
        ),
        netlist=Netlist(nets),
        config=config,
        stitches=StitchingLines(
            tuple(data["stitch_lines"]),
            epsilon=config.epsilon,
            escape_width=config.escape_width,
        ),
    )


def save_design(design: Design, path: PathLike) -> None:
    """Write a design to a JSON file."""
    pathlib.Path(path).write_text(json.dumps(design_to_dict(design)))


def load_design(path: PathLike) -> Design:
    """Read a design from a JSON file."""
    return design_from_dict(json.loads(pathlib.Path(path).read_text()))


# ----------------------------------------------------------------------
# Routing report
# ----------------------------------------------------------------------
def report_to_dict(report: RoutingReport) -> dict:
    """Plain-dict form of a violation report.

    The embedded ``trace`` key (present when the report came from a
    traced flow) holds the :class:`RunTrace` document unchanged, so the
    same span/counter schema applies inside reports and standalone
    trace files.  Each net entry carries its attributed ``violations``
    (kind, stitching-line index, x, y, layer), and the top-level
    ``stitch_histogram`` key rolls them up per line — both additive,
    so pre-attribution reports still load (with empty attributions).
    """
    out = {
        "format": FORMAT_REPORT,
        "version": VERSION,
        "design": report.design_name,
        "total_nets": report.total_nets,
        "routed_nets": report.routed_nets,
        "via_violations": report.via_violations,
        "vertical_violations": report.vertical_violations,
        "short_polygons": report.short_polygons,
        "wirelength": report.wirelength,
        "vias": report.vias,
        "cpu_seconds": report.cpu_seconds,
        "stitch_histogram": {
            str(line): dict(kinds)
            for line, kinds in report.stitch_line_histogram().items()
        },
        "nets": {
            name: {
                "routed": nr.routed,
                "via_violations": nr.via_violations,
                "vertical_violations": nr.vertical_violations,
                "short_polygons": nr.short_polygons,
                "wirelength": nr.wirelength,
                "vias": nr.vias,
                "violations": [v.to_dict() for v in nr.violations],
            }
            for name, nr in report.nets.items()
        },
    }
    if report.trace is not None:
        out["trace"] = report.trace.to_dict()
    return out


def report_from_dict(data: dict) -> RoutingReport:
    """Rebuild a :class:`RoutingReport` from its dict form."""
    if data.get("format") != FORMAT_REPORT:
        raise ValueError(f"not a report document: {data.get('format')!r}")
    nets: dict[str, NetReport] = {
        name: NetReport(
            name=name,
            routed=entry["routed"],
            via_violations=entry["via_violations"],
            vertical_violations=entry["vertical_violations"],
            short_polygons=entry["short_polygons"],
            wirelength=entry["wirelength"],
            vias=entry["vias"],
            violations=[
                Violation.from_dict(name, v)
                for v in entry.get("violations", [])
            ],
        )
        for name, entry in data["nets"].items()
    }
    return RoutingReport(
        design_name=data["design"],
        total_nets=data["total_nets"],
        routed_nets=data["routed_nets"],
        via_violations=data["via_violations"],
        vertical_violations=data["vertical_violations"],
        short_polygons=data["short_polygons"],
        wirelength=data["wirelength"],
        vias=data["vias"],
        cpu_seconds=data["cpu_seconds"],
        nets=nets,
        trace=(
            RunTrace.from_dict(data["trace"]) if "trace" in data else None
        ),
    )


def save_report(report: RoutingReport, path: PathLike) -> None:
    """Write a routing report to a JSON file."""
    pathlib.Path(path).write_text(json.dumps(report_to_dict(report)))


def load_report(path: PathLike) -> RoutingReport:
    """Read a routing report from a JSON file."""
    return report_from_dict(json.loads(pathlib.Path(path).read_text()))
