"""Synthetic reproductions of the paper's benchmark suites."""

from .faraday import FARADAY_NAMES, FARADAY_SPECS, faraday_design
from .generator import SyntheticSpec, generate_design
from .mcnc import (
    MCNC_HARD_NAMES,
    MCNC_NAMES,
    MCNC_SPECS,
    mcnc_design,
    mcnc_stress_design,
    mcnc_suite,
)

__all__ = [
    "FARADAY_NAMES",
    "FARADAY_SPECS",
    "MCNC_HARD_NAMES",
    "MCNC_NAMES",
    "MCNC_SPECS",
    "SyntheticSpec",
    "faraday_design",
    "generate_design",
    "mcnc_design",
    "mcnc_stress_design",
    "mcnc_suite",
]
