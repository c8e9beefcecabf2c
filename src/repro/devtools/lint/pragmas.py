"""Inline suppression pragmas.

A violation may be acknowledged in-source with::

    risky_line()  # repro-lint: ignore[D1] -- one-line justification

or, for lines too long to carry a trailing comment, with a standalone
pragma comment that applies to the next code line::

    # repro-lint: ignore[C1,C3] -- justification
    risky_line()

The rule list is mandatory — ``ignore[*]`` silences every rule on the
line, but a named rule list is strongly preferred so the suppression
stops matching when the rule it excused is retired.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List

PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9*,\s]+)\]")

_COMMENT_ONLY_RE = re.compile(r"^\s*#")


def _parse_rule_list(raw: str) -> FrozenSet[str]:
    rules = []
    for token in raw.split(","):
        token = token.strip()
        if token:
            rules.append(token.upper() if token != "*" else "*")
    return frozenset(rules)


class PragmaIndex:
    """Per-file map from line number to the rule ids suppressed there."""

    def __init__(self, lines: List[str]) -> None:
        self._by_line: Dict[int, FrozenSet[str]] = {}
        pending: FrozenSet[str] = frozenset()
        for lineno, text in enumerate(lines, start=1):
            match = PRAGMA_RE.search(text)
            rules = _parse_rule_list(match.group(1)) if match else frozenset()
            if _COMMENT_ONLY_RE.match(text) or not text.strip():
                # Standalone pragma comments accumulate and bind to the next
                # code line; blank/comment lines pass pending pragmas along.
                pending = pending | rules
                continue
            effective = rules | pending
            pending = frozenset()
            if effective:
                self._by_line[lineno] = effective

    def suppresses(self, line: int, rule_id: str) -> bool:
        rules = self._by_line.get(line, frozenset())
        return rule_id in rules or "*" in rules
