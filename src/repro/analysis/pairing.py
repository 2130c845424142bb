"""Backend-pair markers for the cross-backend parity analyzer.

The array engine behind ``RouterConfig(engine=...)`` is only safe
because each fast path is *provably equivalent* to the reference
implementation it shadows.  The dynamic half of that proof is the
differential suite; the static half is
:mod:`~repro.analysis.parity`, which needs to know which callables
claim to be two implementations of the same contract.

:func:`paired` declares that claim.  Stamping

.. code-block:: python

    @paired("detailed-astar", backend="object")
    def astar_connect(...): ...

    @paired("detailed-astar", backend="array")
    def indexed_search(...): ...

puts both callables into the ``"detailed-astar"`` pair; ``repro
parity`` then extracts each member's effect signature (counters
bumped, spans/gauges emitted, config fields read, exceptions raised)
and flags any divergence under the PAR rules.  The decorator is inert
at run time — it only attaches attributes — and the analyzer reads it
syntactically, so it works on methods, free functions, and functions
the interpreter never imports.

Backend tags name the engine the member implements: ``object`` or
``array``.  Tags within a pair must be unique — two members claiming
the same tag is a declaration bug and the analyzer rejects it.

This module is a dependency leaf: the routers import it, so it must
import nothing from :mod:`repro` itself.
"""

from __future__ import annotations

from typing import Callable, TypeVar

#: The recognized backend tags.
BACKEND_KINDS = frozenset({"object", "array"})

_F = TypeVar("_F", bound=Callable[..., object])


def paired(pair: str, *, backend: str) -> Callable[[_F], _F]:
    """Mark a callable as one backend of a declared equivalence pair.

    Args:
        pair: the pair's name, shared by every member (e.g.
            ``"detailed-astar"``).  Kebab-case by convention.
        backend: which backend this member implements — one of
            :data:`BACKEND_KINDS`, unique within the pair.

    The decorator validates its arguments eagerly (at import time) and
    attaches ``__repro_pair__`` / ``__repro_pair_backend__`` to the
    function, changing nothing else.
    """
    if not pair or not isinstance(pair, str):
        raise ValueError(f"pair name must be a non-empty string: {pair!r}")
    if backend not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend {backend!r} "
            f"(expected one of {', '.join(sorted(BACKEND_KINDS))})"
        )

    def mark(func: _F) -> _F:
        func.__repro_pair__ = pair  # type: ignore[attr-defined]
        func.__repro_pair_backend__ = backend  # type: ignore[attr-defined]
        return func

    return mark
