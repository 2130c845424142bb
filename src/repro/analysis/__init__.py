"""Static and dynamic analysis for the correctness contracts.

Three enforcement layers (see ``docs/static_analysis.md``):

* :mod:`~repro.analysis.lint` — an AST-based linter (``repro lint`` on
  the CLI): the determinism rules DET001–DET005 guard the
  byte-identical reproducibility the committed baselines rest on, and
  OBS001 checks every emitted metric name against
  :mod:`repro.observe.schema`;
* :mod:`~repro.analysis.baseline` — committed grandfathering of
  pre-existing lint findings;
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
from .baseline import DEFAULT_BASELINE_NAME, Baseline, save_baseline
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
from .rules import AUDIT_RULES, RULES, Rule, rule_catalog

__all__ = [
    "AUDIT_RULES",
    "AuditFinding",
    "AuditReport",
    "Baseline",
    "CounterDrift",
    "DEFAULT_BASELINE_NAME",
    "DeadSuppression",
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "audit_solution",
    "fix_hint_for",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "render_audit",
    "render_findings",
    "resolve_rule_filter",
    "rule_catalog",
    "save_baseline",
]
