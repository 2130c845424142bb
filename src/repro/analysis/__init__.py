"""Static and dynamic analysis for the correctness contracts.

Five enforcement layers (see ``docs/static_analysis.md``):

* :mod:`~repro.analysis.lint` — an AST-based determinism linter
  (rules DET001–DET005, ``repro lint`` on the CLI) guarding the
  serial-equivalence guarantee of :mod:`repro.parallel`;
* :mod:`~repro.analysis.parity` — a static cross-backend parity
  analyzer (rules PAR001–PAR006, ``repro parity`` on the CLI) that
  diffs the effect signatures of callables declared equivalent with
  :func:`~repro.analysis.pairing.paired` markers and checks every
  emitted metric name against :mod:`repro.observe.schema`;
* :mod:`~repro.analysis.baseline` — committed grandfathering of
  pre-existing lint/parity findings;
* :mod:`~repro.analysis.sanitize` — a dynamic speculation-footprint
  sanitizer (``RouterConfig(sanitize=True)`` / ``--sanitize``);
* :mod:`~repro.analysis.audit` — an independent DRC-style solution
  auditor (rules AUD001–AUD007, ``repro audit`` on the CLI /
  ``RouterConfig(audit=True)``) that re-derives every stitching
  constraint from the raw geometry and cross-checks the evaluator's
  counters.

The sanitizer names are re-exported lazily (PEP 562): eager import
would pull the router/grid modules in, and the routing layers
themselves import :mod:`~repro.analysis.pairing` for their parity
markers — the lazy hop keeps that edge acyclic.
"""

from typing import TYPE_CHECKING, Any

from .audit import (
    AuditFinding,
    AuditReport,
    CounterDrift,
    audit_solution,
    render_audit,
)
from .baseline import (
    DEFAULT_BASELINE_NAME,
    DEFAULT_PARITY_BASELINE_NAME,
    Baseline,
    save_baseline,
)
from .findings import DeadSuppression, fix_hint_for
from .lint import (
    Finding,
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
    render_findings,
    resolve_rule_filter,
)
from .pairing import BACKEND_KINDS, paired
from .parity import (
    ParityReport,
    analyze_parity_paths,
    analyze_parity_source,
    render_parity,
    resolve_parity_rule_filter,
)
from .rules import (
    AUDIT_RULES,
    PAR_RULES,
    RULES,
    Rule,
    rule_catalog,
)

if TYPE_CHECKING:  # pragma: no cover - import-time types only
    from .sanitize import (
        SanitizedGraphSnapshot,
        SanitizedGridOverlay,
        SanitizerViolation,
    )

_LAZY_SANITIZE = frozenset(
    {"SanitizedGraphSnapshot", "SanitizedGridOverlay", "SanitizerViolation"}
)


def __getattr__(name: str) -> Any:
    if name in _LAZY_SANITIZE:
        from . import sanitize

        return getattr(sanitize, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "AUDIT_RULES",
    "AuditFinding",
    "AuditReport",
    "BACKEND_KINDS",
    "Baseline",
    "CounterDrift",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_PARITY_BASELINE_NAME",
    "DeadSuppression",
    "Finding",
    "LintReport",
    "PAR_RULES",
    "ParityReport",
    "RULES",
    "Rule",
    "SanitizedGraphSnapshot",
    "SanitizedGridOverlay",
    "SanitizerViolation",
    "analyze_parity_paths",
    "analyze_parity_source",
    "audit_solution",
    "fix_hint_for",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "paired",
    "render_audit",
    "render_findings",
    "render_parity",
    "resolve_parity_rule_filter",
    "resolve_rule_filter",
    "rule_catalog",
    "save_baseline",
]
