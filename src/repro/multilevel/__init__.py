"""Two-pass bottom-up multilevel routing framework (Section II-B)."""

from .framework import TwoPassFramework, TwoPassOutcome
from .scheme import MultilevelScheme

__all__ = [
    "MultilevelScheme",
    "TwoPassFramework",
    "TwoPassOutcome",
]
