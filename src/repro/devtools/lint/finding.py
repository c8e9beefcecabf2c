"""Core data model for repro-lint findings.

A :class:`Finding` is one rule violation at one source location.  Findings
are identified across revisions by a *fingerprint* that deliberately omits
the line number — hashing the repository-relative path, the rule id, and
the normalized source-line text — so that unrelated edits shifting a file
do not invalidate the suppression baseline.  Duplicate fingerprints within
one file (the same violating line text appearing twice) are disambiguated
by an occurrence index assigned in line order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    """Repository-relative POSIX path of the offending file."""

    line: int
    """1-based source line of the violation."""

    col: int
    """0-based column offset of the violating node."""

    rule_id: str
    """Short rule identifier, e.g. ``D1`` or ``C3``."""

    message: str
    """Human-readable description of this specific violation."""

    snippet: str = ""
    """The stripped source line the finding points at."""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        payload = "::".join((self.path, self.rule_id, self.snippet))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }
