"""Committed finding baselines: grandfather existing findings, not new ones.

A baseline file records the fingerprints of known findings so an
analysis gate can be adopted on a codebase with existing debt:
grandfathered findings are reported but do not fail the run, while any
*new* finding does.  Fingerprints are ``(path, rule, stripped line
text)`` — stable across unrelated edits that only shift line numbers.

The linter's baseline is ``lint-baseline.json`` at the repo root,
rewritten by ``repro lint --update-baseline``.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterable

from .findings import Finding

BASELINE_FORMAT = "repro-lint-baseline"
BASELINE_VERSION = 1

#: File name probed in the working directory when ``--baseline`` is
#: not given.
DEFAULT_BASELINE_NAME = "lint-baseline.json"


class Baseline:
    """An immutable set of grandfathered finding fingerprints."""

    def __init__(
        self, fingerprints: Iterable[tuple[str, str, str]] = ()
    ) -> None:
        self._fingerprints = frozenset(fingerprints)

    @property
    def fingerprints(self) -> frozenset[tuple[str, str, str]]:
        """The grandfathered ``(path, rule, text)`` triples."""
        return self._fingerprints

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __contains__(self, fingerprint: tuple[str, str, str]) -> bool:
        return fingerprint in self._fingerprints

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | pathlib.Path) -> Baseline:
        """Read a baseline file written by :func:`save_baseline`."""
        data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        if data.get("format") != BASELINE_FORMAT:
            raise ValueError(f"{path}: not a {BASELINE_FORMAT} file")
        if data.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version {data.get('version')}"
            )
        return cls(
            (entry["path"], entry["rule"], entry["text"])
            for entry in data.get("findings", [])
        )


def save_baseline(
    path: str | pathlib.Path, findings: Iterable[Finding]
) -> int:
    """Write the baseline file grandfathering ``findings``.

    Returns the number of entries written.  Entries are sorted so the
    committed file diffs cleanly.
    """
    entries = sorted(
        {finding.fingerprint for finding in findings}
    )
    document = {
        "format": BASELINE_FORMAT,
        "version": BASELINE_VERSION,
        "findings": [
            {"path": p, "rule": rule, "text": text}
            for p, rule, text in entries
        ],
    }
    pathlib.Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return len(entries)
