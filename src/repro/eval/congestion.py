"""Congestion analysis: utilization statistics and text heat maps.

Downstream users tuning benchmark specs or router parameters need to
see *where* demand concentrates: per-edge wire utilization and per-tile
line-end utilization of a global routing result, and per-layer metal
utilization of a detailed routing result.
"""

from __future__ import annotations

import dataclasses

from ..detailed import DetailedResult
from ..globalroute import GlobalRoutingResult

#: Heat-map glyphs from empty to overflowing.
_GLYPHS = " .:-=+*#%@"


@dataclasses.dataclass(frozen=True)
class CongestionStats:
    """Aggregate utilization of one resource kind."""

    resource: str
    mean_utilization: float
    max_utilization: float
    overflowed: int
    total: int

    @property
    def overflow_fraction(self) -> float:
        """Share of resources above capacity."""
        return self.overflowed / self.total if self.total else 0.0


def global_congestion_stats(result: GlobalRoutingResult) -> list[CongestionStats]:
    """Edge and vertex utilization summary of a global routing."""
    import numpy as np

    graph = result.graph
    out: list[CongestionStats] = []
    for resource, demand, capacity in (
        ("horizontal edges", graph.h_demand, graph.h_capacity),
        ("vertical edges", graph.v_demand, graph.v_capacity),
        ("line ends (vertices)", graph.vertex_demand, graph.vertex_capacity),
    ):
        if demand.size == 0:
            out.append(CongestionStats(resource, 0.0, 0.0, 0, 0))
            continue
        safe_cap = np.maximum(capacity, 1)
        utilization = demand / safe_cap
        out.append(
            CongestionStats(
                resource=resource,
                mean_utilization=float(utilization.mean()),
                max_utilization=float(utilization.max()),
                overflowed=int(np.count_nonzero(demand > capacity)),
                total=int(demand.size),
            )
        )
    return out


def vertex_heatmap(result: GlobalRoutingResult) -> str:
    """Text heat map of per-tile line-end utilization.

    One glyph per tile, row 0 at the bottom; ``@`` marks saturation or
    overflow.
    """
    import numpy as np

    graph = result.graph
    capacity = np.maximum(graph.vertex_capacity, 1)
    utilization = graph.vertex_demand / capacity
    lines: list[str] = []
    for j in reversed(range(graph.ny)):
        row = []
        for i in range(graph.nx):
            level = min(int(utilization[i, j] * (len(_GLYPHS) - 1)), len(_GLYPHS) - 1)
            row.append(_GLYPHS[level])
        lines.append("".join(row))
    return "\n".join(lines)


def detailed_layer_utilization(result: DetailedResult) -> dict[int, float]:
    """Fraction of grid nodes occupied per layer after detailed routing."""
    design = result.design
    area = design.width * design.height
    counts: dict[int, int] = {m: 0 for m in design.technology.layers}
    for record in result.nets.values():
        for _x, _y, layer in record.nodes:
            counts[layer] = counts.get(layer, 0) + 1
    return {layer: counts[layer] / area for layer in sorted(counts)}
