"""Bottom-up coarsening scheme of the two-pass multilevel flow (Section II-B)."""

from .scheme import MultilevelScheme

__all__ = ["MultilevelScheme"]
