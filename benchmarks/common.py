"""Shared helpers for the paper-reproduction benchmarks.

Every ``bench_*`` file regenerates one table or figure of the paper's
evaluation section, prints it in the paper's layout, and writes it to
``benchmarks/results/``.  Instance sizes follow ``REPRO_SCALE`` /
``REPRO_FULL`` (see :func:`repro.config.benchmark_scale`); the default
keeps a full benchmark run in the tens of minutes on a laptop.
"""

from __future__ import annotations

import pathlib
from typing import List

from repro.benchmarks_gen import (
    FARADAY_NAMES,
    MCNC_NAMES,
    faraday_design,
    mcnc_design,
)
from repro.config import benchmark_scale
from repro.layout import Design

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Faraday circuits are 2-3x larger than the biggest MCNC circuit and
#: use 6 layers; they run at a smaller fraction so one benchmark pass
#: stays laptop-sized.  Scaling keeps pin density but not congestion:
#: net spans grow with √scale (see :func:`repro.config.benchmark_scale`).
FARADAY_FACTOR = 0.4


def mcnc_scale() -> float:
    """Instance scale for MCNC circuits."""
    return benchmark_scale(default=0.05)


def faraday_scale() -> float:
    """Instance scale for Faraday circuits."""
    return min(1.0, benchmark_scale(default=0.05) * FARADAY_FACTOR)


def full_suite() -> List[Design]:
    """All 14 circuits of Tables I+II at benchmark scale."""
    designs = [mcnc_design(name, mcnc_scale()) for name in MCNC_NAMES]
    designs += [
        faraday_design(name, faraday_scale()) for name in FARADAY_NAMES
    ]
    return designs


def save_result(name: str, text: str) -> pathlib.Path:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)
    print(f"[saved to {path}]")
    return path
