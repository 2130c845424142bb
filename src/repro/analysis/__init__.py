"""Static and dynamic analysis for the correctness contracts.

Two enforcement layers (see ``docs/static_analysis.md``):

* :mod:`~repro.analysis.lint` — an AST-based linter (``repro lint`` on
  the CLI): the determinism rules DET001–DET005 guard the
  byte-identical reproducibility the committed baselines rest on; a
  justified ``# repro: allow-`` comment on the flagged line is the
  only exemption;
* :mod:`~repro.analysis.audit` — an independent DRC-style solution
  auditor (rules AUD001–AUD007, ``repro audit`` on the CLI) that
  takes a finished flow, re-derives every stitching constraint from
  the raw geometry and cross-checks the evaluator's counters.
"""

from .audit import (
    AuditFinding,
    AuditReport,
    CounterDrift,
    audit_solution,
    render_audit,
)
from .lint import (
    DeadSuppression,
    Finding,
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
    render_findings,
)
from .rules import AUDIT_RULES, RULES, Rule

__all__ = [
    "AUDIT_RULES",
    "AuditFinding",
    "AuditReport",
    "CounterDrift",
    "DeadSuppression",
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "audit_solution",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "render_audit",
    "render_findings",
]
