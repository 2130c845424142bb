"""Stitch-aware violation checking and routing metrics.

Counts, for a completed detailed routing solution, the quantities the
paper's tables report:

* **#VV** — via violations: vias cut by a stitching line.  Only fixed
  pins may carry them (Problem 1); each routed pin sitting on a line
  contributes its cell-contact via, plus any routed via stack at a line
  x (which the router only permits at such pins).
* **vertical routing violations** — wire running along a stitching
  line on a vertical layer; must be zero for both routers (hard
  constraint, also enforced by the baseline per Section IV-A).
* **#SP** — short polygons: a horizontal wire cut by a stitching line
  whose line end lies within ε of that line *with a landing via*
  (Fig. 5c).  A pin at the wire end counts as a landing via (the cell
  contact).
* routability, wirelength, via count.

Every violation is *attributed*: a :class:`Violation` records the net,
the kind, the stitching line (index and x) that caused it, and where
it sits (y, layer).  :meth:`RoutingReport.stitch_line_histogram` rolls
the attributions up per line, which is how the paper's per-feature
evaluation (and detailed routers such as TRIAD / Mr.TPL) report
conflict breakdowns; the aggregate #VV/#SP/vertical columns are by
construction the histogram's totals.

This module is the router's *self*-evaluation: the router optimizes
against these very counts.  :mod:`repro.analysis.audit` is the
independent cross-check — it re-derives every quantity here with its
own geometry code and fails hard on any disagreement (``repro audit``
and the regression gate), so a bookkeeping bug in this file cannot
silently skew the reported tables.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..detailed import DetailedResult
from ..detailed.wiring import edge_rows, edge_runs, row_short_polygons
from ..layout import Design
from ..observe import RunTrace
from .geometry import Edge, trim_dangling, via_count, wirelength

#: Violation ``kind`` labels, in histogram column order.
VIOLATION_KINDS = ("via", "vertical", "short-polygon")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One attributed stitch violation.

    Attributes:
        net: name of the offending net.
        kind: ``"via"`` (#VV), ``"vertical"`` (vertical routing
            violation), or ``"short-polygon"`` (#SP).
        line: index of the stitching line that causes the violation
            (position in ``design.stitches.xs``).
        x: x coordinate of that stitching line, in pitches.
        y: y coordinate of the violating via / segment / line end.
        layer: routing layer of the violation (the lower layer for a
            via stack; 0 for a pin's cell contact).
    """

    net: str
    kind: str
    line: int
    x: int
    y: int
    layer: int

    def to_dict(self) -> dict:
        """Plain-dict form (net implied by the enclosing report entry)."""
        return {
            "kind": self.kind,
            "line": self.line,
            "x": self.x,
            "y": self.y,
            "layer": self.layer,
        }

    @classmethod
    def from_dict(cls, net: str, data: dict) -> "Violation":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            net=net,
            kind=data["kind"],
            line=data["line"],
            x=data["x"],
            y=data["y"],
            layer=data["layer"],
        )


@dataclasses.dataclass
class NetReport:
    """Violation breakdown for one net."""

    name: str
    routed: bool
    via_violations: int
    vertical_violations: int
    short_polygons: int
    wirelength: int
    vias: int
    #: Attributed violations behind the three count columns, in kind
    #: order (vias, vertical, short polygons).
    violations: list[Violation] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class RoutingReport:
    """Aggregate Table III/VII/VIII row for one routing solution."""

    design_name: str
    total_nets: int
    routed_nets: int
    via_violations: int
    vertical_violations: int
    short_polygons: int
    wirelength: int
    vias: int
    cpu_seconds: float
    nets: dict[str, NetReport]
    #: Per-stage observability trace of the run that produced this
    #: report (attached by the flow; ``None`` for bare evaluations).
    trace: Optional[RunTrace] = None

    @property
    def routability(self) -> float:
        """Routed fraction (``Rout.`` column)."""
        return self.routed_nets / self.total_nets if self.total_nets else 1.0

    @property
    def violations(self) -> list[Violation]:
        """Every attributed violation the aggregate columns count.

        Mirrors the column semantics exactly: short polygons of
        unrouted nets are excluded (as in the #SP column), everything
        else is included, so per-kind totals over this list equal the
        #VV / vertical / #SP fields.
        """
        out: list[Violation] = []
        for net in self.nets.values():
            for violation in net.violations:
                if violation.kind == "short-polygon" and not net.routed:
                    continue
                out.append(violation)
        return out

    def stitch_line_histogram(self) -> dict[int, dict[str, int]]:
        """Violation counts per stitching line, split by kind.

        Keys are stitching-line indices; each value maps every kind of
        :data:`VIOLATION_KINDS` to its count at that line (zeros
        included).  Lines without violations are absent.  Summing any
        kind over all lines reproduces the corresponding aggregate
        column.
        """
        histogram: dict[int, dict[str, int]] = {}
        for violation in self.violations:
            per_line = histogram.setdefault(
                violation.line, {kind: 0 for kind in VIOLATION_KINDS}
            )
            per_line[violation.kind] += 1
        return dict(sorted(histogram.items()))

    def row(self) -> dict:
        """Dict row matching the paper's table columns."""
        return {
            "circuit": self.design_name,
            "rout_pct": 100.0 * self.routability,
            "vv": self.via_violations,
            "sp": self.short_polygons,
            "wl": self.wirelength,
            "vias": self.vias,
            "cpu_s": self.cpu_seconds,
        }


def evaluate(result: DetailedResult) -> RoutingReport:
    """Check every net of a detailed routing result."""
    design = result.design
    assert design.stitches is not None
    reports: dict[str, NetReport] = {}
    for name in sorted(result.nets):
        routed_net = result.nets[name]
        reports[name] = _check_net(design, routed_net)
    return RoutingReport(
        design_name=design.name,
        total_nets=len(result.nets),
        routed_nets=sum(1 for r in result.nets.values() if r.routed),
        via_violations=sum(r.via_violations for r in reports.values()),
        vertical_violations=sum(
            r.vertical_violations for r in reports.values()
        ),
        short_polygons=sum(
            r.short_polygons for r in reports.values() if r.routed
        ),
        wirelength=sum(r.wirelength for r in reports.values()),
        vias=sum(r.vias for r in reports.values()),
        cpu_seconds=result.cpu_seconds,
        nets=reports,
    )


def _check_net(design: Design, routed_net) -> NetReport:
    stitches = design.stitches
    assert stitches is not None
    name = routed_net.net.name
    pins = routed_net.pin_nodes
    edges = trim_dangling(routed_net.edges, pins)
    rows = edge_rows(edges, "xy")

    violations: list[Violation] = []
    for (x, y), layer in sorted(_via_positions(edges).items()):
        line = stitches.line_index(x)
        if line is not None:
            violations.append(Violation(name, "via", line, x, y, layer))
    # Each routed pin is a cell contact (an implicit via below layer 1);
    # a pin on a stitching line is therefore a via violation.
    if routed_net.routed:
        for x, y, z in sorted(pins):
            line = stitches.line_index(x)
            if line is not None:
                violations.append(Violation(name, "via", line, x, y, z))
    vv = len(violations)

    # Vertical wire along a stitching line: one violation per maximal
    # run on a line column, at its low end.
    y_rows = rows["y"]
    for x, layer in sorted(y_rows):
        line = stitches.line_index(x)
        if line is not None:
            for lo, _hi in edge_runs(y_rows[x, layer]):
                violations.append(Violation(name, "vertical", line, x, lo, layer))
    vertical = len(violations) - vv

    sp_sites = row_short_polygons(rows["x"], edges, pins, stitches)
    for (line_x, y, layer), _end in sp_sites:
        line = stitches.line_index(line_x)
        assert line is not None  # crossing nodes sit on a line
        violations.append(
            Violation(name, "short-polygon", line, line_x, y, layer)
        )
    return NetReport(
        name=name,
        routed=routed_net.routed,
        via_violations=vv,
        vertical_violations=vertical,
        short_polygons=len(sp_sites),
        wirelength=wirelength(edges),
        vias=via_count(edges),
        violations=violations,
    )


def _via_positions(edges: set[Edge]) -> dict[tuple[int, int], int]:
    """Via (x, y) positions mapped to the lowest layer of the stack."""
    positions: dict[tuple[int, int], int] = {}
    for a, b in edges:
        if a[2] != b[2]:
            key = (a[0], a[1])
            low = min(a[2], b[2])
            positions[key] = min(positions.get(key, low), low)
    return positions
