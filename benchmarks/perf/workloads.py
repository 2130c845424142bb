"""Workloads and end-to-end metrics of the performance benchmark.

The workload names and the metric names, units, directions and bounds
live in ``BENCHMARK.json`` at the repository root.  This module adds
what that file cannot hold: how each workload is built, and the six
quality metrics that not every workload reports (a global-only workload
has no vias, and a clean workload reads 0, while ``BENCHMARK.json``
lists only metrics that every workload reports and that are never 0).
``load_spec`` merges both into one table, so every metric is defined
exactly once.

This module imports nothing from ``repro``: the parent process and the
comparison script stay light, and only the child pays for the import.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"


@dataclasses.dataclass(frozen=True)
class Workload:
    """What one pass of a workload routes.

    Attributes:
        name: the workload's name in ``BENCHMARK.json``.
        router: ``StitchAwareRouter`` or ``BaselineRouter`` (the full
            flow through ``repro.api``), or ``GlobalRouter`` (global
            routing alone, with and then without the line-end term).
        circuits: MCNC circuits routed one after another in a pass.
        scale: ``generate_design`` size factor.
        smoke_scale: size factor under ``--smoke``.
        repeats: default number of rounds.
        stress: route the congestion-stressed designs of Table IV
            (``mcnc_stress_design``).
    """

    name: str
    router: str
    circuits: tuple[str, ...]
    scale: float
    smoke_scale: float
    repeats: int
    stress: bool = False

    @property
    def global_only(self) -> bool:
        """Whether a pass runs the global router and nothing else."""
        return self.router == "GlobalRouter"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ripup_s13207_10x", "StitchAwareRouter", ("S13207",),
            scale=0.2, smoke_scale=0.02, repeats=5,
        ),
        Workload(
            "firstpass_mcnc_5pct", "StitchAwareRouter",
            ("Struct", "Primary1", "Primary2", "S5378", "S9234", "S13207",
             "S15850"),
            scale=0.05, smoke_scale=0.02, repeats=9,
        ),
        Workload(
            "baseline_s13207_10x", "BaselineRouter", ("S13207",),
            scale=0.2, smoke_scale=0.02, repeats=5,
        ),
        Workload(
            "global_stress_table4", "GlobalRouter", ("S13207", "S15850"),
            scale=0.5, smoke_scale=0.05, repeats=5, stress=True,
        ),
    )
}

#: End-to-end metrics absent from ``BENCHMARK.json``, with the bounds
#: the benchmark fixes for them.  ``flow_only`` ones are not reported by
#: the global-only workload.
QUALITY_METRICS: list[dict] = [
    {"name": "vertical_violations", "unit": "count", "better": "lower",
     "bound": 0.0, "flow_only": True},
    {"name": "audit_findings", "unit": "count", "better": "lower",
     "bound": 0.0, "flow_only": True},
    {"name": "vv_per_knet", "unit": "count", "better": "lower",
     "bound": 0.01, "flow_only": True},
    {"name": "sp_per_knet", "unit": "count", "better": "lower",
     "bound": 0.02, "flow_only": True},
    {"name": "vias_per_net", "unit": "count", "better": "lower",
     "bound": 0.01, "flow_only": True},
    {"name": "vertex_overflow", "unit": "count", "better": "lower",
     "bound": 0.0, "flow_only": False},
]


def load_spec() -> dict:
    """``BENCHMARK.json``, plus ``all_end_to_end``: its end-to-end
    metrics followed by the quality metrics, each with ``flow_only``."""
    spec = json.loads(SPEC_PATH.read_text())
    spec["all_end_to_end"] = [
        {**metric, "flow_only": False} for metric in spec["end_to_end"]
    ] + QUALITY_METRICS
    return spec
