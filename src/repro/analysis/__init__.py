"""Static and dynamic analysis for the correctness contracts.

Four enforcement layers (see ``docs/static_analysis.md``):

* :mod:`~repro.analysis.lint` — an AST-based determinism linter
  (rules DET001–DET005, ``repro lint`` on the CLI) guarding the
  byte-identical reproducibility the committed baselines rest on;
* :mod:`~repro.analysis.parity` — a static cross-backend parity
  analyzer (rules PAR001–PAR006, ``repro parity`` on the CLI) that
  diffs the effect signatures of callables declared equivalent with
  :func:`~repro.analysis.pairing.paired` markers and checks every
  emitted metric name against :mod:`repro.observe.schema`;
* :mod:`~repro.analysis.baseline` — committed grandfathering of
  pre-existing lint/parity findings;
* :mod:`~repro.analysis.audit` — an independent DRC-style solution
  auditor (rules AUD001–AUD007, ``repro audit`` on the CLI /
  ``RouterConfig(audit=True)``) that re-derives every stitching
  constraint from the raw geometry and cross-checks the evaluator's
  counters.
"""

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
