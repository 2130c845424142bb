"""Shared finding/fix-hint/rule-filter plumbing for the analysis tools.

The determinism linter (:mod:`~repro.analysis.lint`), the solution
auditor (:mod:`~repro.analysis.audit`), and the cross-backend parity
analyzer (:mod:`~repro.analysis.parity`) all report rule breaches the
same way: a stable rule code, a message, a location, a canonical fix
hint, ``# repro: allow-<CODE>`` suppression comments, and
``--select`` / ``--ignore`` rule filtering.  This module is the one
implementation all three share:

* :class:`Finding` — a source-location finding (used by the linter and
  the parity analyzer; the auditor's :class:`~repro.analysis.
  audit.AuditFinding` shares the hint/serialization surface);
* :func:`fix_hint_for` — rule-code -> canonical fix lookup over the
  merged catalogs;
* :func:`resolve_rule_filter` — ``--select`` / ``--ignore`` resolution
  against an explicit known-code set, raising on unknown codes (the
  CLI's exit-2 condition);
* :func:`suppressed_rules` / :func:`suppression_map` — ``# repro:
  allow-XXXnnn`` comment parsing for any rule family (the map form is
  tokenizer-backed, so quoting the syntax in a string is inert);
* :class:`DeadSuppression` — an ``allow-`` comment that no longer
  silences anything (reported so suppressions cannot accumulate).
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize
from collections.abc import Iterable
from typing import Optional

from .rules import rule_catalog


def fix_hint_for(code: str) -> str:
    """The canonical fix hint of ``code`` from the merged rule catalogs."""
    return rule_catalog()[code].fix_hint


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Shared by the linter (DET rules) and the parity analyzer (PAR
    rules); the rule code picks the catalog implicitly.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    text: str

    @property
    def fix_hint(self) -> str:
        """The rule's canonical fix, for display."""
        return fix_hint_for(self.rule)

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Line-number-independent identity used by the baseline."""
        return (self.path.replace("\\", "/"), self.rule, self.text)

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form for ``--format json`` output."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "text": self.text,
            "fix_hint": self.fix_hint,
        }


@dataclasses.dataclass(frozen=True)
class DeadSuppression:
    """An ``allow-`` comment whose codes silenced no finding on its line.

    Dead suppressions are reported as warnings (they never fail a run)
    so stale ``# repro: allow-XXXnnn`` comments surface instead of
    accumulating silently after the underlying finding is fixed.
    """

    path: str
    line: int
    codes: tuple[str, ...]
    text: str

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form for ``--format json`` output."""
        return {
            "path": self.path,
            "line": self.line,
            "codes": list(self.codes),
            "text": self.text,
        }


def suppression_pattern(family: str) -> re.Pattern[str]:
    """Compiled ``# repro: allow-<FAMILY>nnn`` matcher for one family."""
    return re.compile(
        rf"#\s*repro:\s*allow-({family}\d{{3}}"
        rf"(?:\s*,\s*(?:allow-)?{family}\d{{3}})*)"
    )


def suppressed_rules(line: str, family: str = "DET") -> frozenset[str]:
    """Rule codes silenced by a ``# repro: allow-...`` comment.

    ``family`` is the rule-code prefix (``DET``, ``PAR``); several
    codes may be listed comma separated, with or without repeating the
    ``allow-`` prefix.
    """
    match = suppression_pattern(family).search(line)
    if match is None:
        return frozenset()
    codes = re.findall(rf"{family}\d{{3}}", match.group(1))
    return frozenset(codes)


def suppression_map(source: str, family: str) -> dict[int, frozenset[str]]:
    """Per-line suppression codes from *real* comments in ``source``.

    Tokenizes the file so an ``allow-`` pattern inside a string literal
    (documentation quoting the comment syntax) neither suppresses nor
    counts as a dead suppression.  Falls back to a plain per-line regex
    scan when the source cannot be tokenized.
    """
    pattern = suppression_pattern(family)
    out: dict[int, frozenset[str]] = {}
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            codes = suppressed_rules(line, family)
            if codes:
                out[lineno] = codes
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = pattern.search(token.string)
        if match is None:
            continue
        codes = frozenset(re.findall(rf"{family}\d{{3}}", match.group(1)))
        lineno = token.start[0]
        out[lineno] = out.get(lineno, frozenset()) | codes
    return out


def resolve_rule_filter(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    *,
    known: Iterable[str],
) -> frozenset[str]:
    """The active rule codes after ``--select`` / ``--ignore``.

    ``select`` restricts the run to the listed codes (default: every
    code in ``known``); ``ignore`` then removes codes.  Unknown codes
    raise :class:`ValueError` naming the offenders — the CLI maps that
    to exit code 2.
    """
    known_set = frozenset(known)
    requested = frozenset(select) if select is not None else known_set
    ignored = frozenset(ignore) if ignore is not None else frozenset()
    unknown = sorted((requested | ignored) - known_set)
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known_set))})"
        )
    return requested - ignored


def finding_lines(findings: Iterable[Finding]) -> list[str]:
    """Human-readable lines for ``findings`` (one line plus its hint)."""
    out: list[str] = []
    for finding in findings:
        out.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule} {finding.message}"
        )
        out.append(f"    hint: {finding.fix_hint}")
    return out


def dead_suppression_lines(dead: Iterable[DeadSuppression]) -> list[str]:
    """Warning lines for stale ``allow-`` comments."""
    out: list[str] = []
    for entry in dead:
        codes = ", ".join(entry.codes)
        out.append(
            f"{entry.path}:{entry.line}: warning: dead suppression "
            f"({codes} silences no finding on this line)"
        )
    return out
