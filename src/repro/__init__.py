"""Stitch-aware routing for multiple e-beam lithography (MEBL).

Reproduction of Liu, Fang, Chang, "Stitch-Aware Routing for Multiple
E-Beam Lithography" (DAC 2013; TCAD 2015 extended version).

Public API tour:

* :class:`repro.api.StitchAwareRouter` / ``BaselineRouter`` — full
  routing flows (global routing -> layer/track assignment -> detailed
  routing) with and without stitch awareness; :mod:`repro.api` is the
  stable import path for everything a user needs.
* :mod:`repro.benchmarks_gen` — synthetic MCNC / Faraday suites
  matching the paper's Table I/II statistics.
* :mod:`repro.eval` — the violation checker producing the #VV / #SP /
  routability columns of the paper's tables.
* :mod:`repro.raster` — the MEBL data-preparation substrate (render,
  dither, overlay, defect scoring) behind Figs. 3-4.
* :mod:`repro.viz` — SVG / ASCII views of routed layouts (Figs. 15-16).
* :mod:`repro.observe` — the tracing/metrics subsystem; every routing
  run yields a :class:`repro.observe.RunTrace` of per-stage spans and
  counters with a stable JSON schema.
"""

from .config import (
    DEFAULT_CONFIG,
    ColoringMethod,
    RouterConfig,
    TrackMethod,
    benchmark_scale,
)
from .core.flow import BaselineRouter, FlowResult, StitchAwareRouter
from .observe import RunTrace, Span, Tracer

__version__ = "1.0.0"

__all__ = [
    "BaselineRouter",
    "ColoringMethod",
    "DEFAULT_CONFIG",
    "FlowResult",
    "RouterConfig",
    "RunTrace",
    "Span",
    "StitchAwareRouter",
    "TrackMethod",
    "Tracer",
    "benchmark_scale",
]
