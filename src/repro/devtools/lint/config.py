"""``[tool.repro-lint]`` configuration loaded from ``pyproject.toml``.

Recognised keys (all optional)::

    [tool.repro-lint]
    paths = ["src", "tests", "benchmarks"]   # default scan roots
    exclude = ["tests/lint_fixtures"]        # path prefixes / fnmatch globs
    baseline = "lint-baseline.json"          # suppression baseline file
    select = ["D1", "C3"]                    # restrict to these rules
    memoized-apis = ["cut_sets"]             # C2: calls returning shared state

    [tool.repro-lint.allow]                  # whole-file rule exemptions
    D4 = ["src/repro/utils/timer.py", "benchmarks/*"]

Python 3.11+ parses with :mod:`tomllib`; older interpreters fall back to a
minimal parser covering exactly the subset above (string lists and string
values in the two ``repro-lint`` tables).
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

DEFAULT_PATHS = ("src", "tests", "benchmarks")
DEFAULT_EXCLUDE = ("tests/lint_fixtures",)
DEFAULT_BASELINE = "lint-baseline.json"
DEFAULT_MEMOIZED_APIS = (
    "cut_sets",
    "cone_truth_table",
    "fanin_var_lists",
    "levels_list",
    "and_level_groups",
)


@dataclass
class LintConfig:
    paths: List[str] = field(default_factory=lambda: list(DEFAULT_PATHS))
    exclude: List[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDE))
    baseline: str = DEFAULT_BASELINE
    select: Optional[List[str]] = None
    memoized_apis: List[str] = field(
        default_factory=lambda: list(DEFAULT_MEMOIZED_APIS)
    )
    allow: Dict[str, List[str]] = field(default_factory=dict)

    def rule_allows(self, rule_id: str, rel_path: str) -> bool:
        """True when *rel_path* is wholly exempt from *rule_id*."""
        return any(
            _path_matches(rel_path, pattern)
            for pattern in self.allow.get(rule_id, ())
        )

    def excluded(self, rel_path: str) -> bool:
        return any(_path_matches(rel_path, pattern) for pattern in self.exclude)


def _path_matches(rel_path: str, pattern: str) -> bool:
    """fnmatch on the whole path, or directory-prefix match for plain names."""
    if fnmatch.fnmatch(rel_path, pattern):
        return True
    if not any(ch in pattern for ch in "*?["):
        prefix = pattern.rstrip("/")
        return rel_path == prefix or rel_path.startswith(prefix + "/")
    return False


def load_config(root: Path) -> LintConfig:
    """Read ``[tool.repro-lint]`` from *root*/pyproject.toml if present."""
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return LintConfig()
    text = pyproject.read_text(encoding="utf-8")
    data = _parse_toml(text)
    tool = data.get("tool", {}) if isinstance(data, dict) else {}
    section = tool.get("repro-lint", {}) if isinstance(tool, dict) else {}
    if not isinstance(section, dict):
        return LintConfig()
    config = LintConfig()
    if isinstance(section.get("paths"), list):
        config.paths = [str(p) for p in section["paths"]]
    if isinstance(section.get("exclude"), list):
        config.exclude = [str(p) for p in section["exclude"]]
    if isinstance(section.get("baseline"), str):
        config.baseline = section["baseline"]
    if isinstance(section.get("select"), list):
        config.select = [str(r).upper() for r in section["select"]]
    if isinstance(section.get("memoized-apis"), list):
        config.memoized_apis = [str(a) for a in section["memoized-apis"]]
    allow = section.get("allow")
    if isinstance(allow, dict):
        config.allow = {
            str(rule).upper(): [str(p) for p in patterns]
            for rule, patterns in allow.items()
            if isinstance(patterns, list)
        }
    return config


def _parse_toml(text: str) -> Dict:
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11 fallback
        return _parse_toml_subset(text)
    return tomllib.loads(text)


_TABLE_RE = re.compile(r"^\s*\[([^\]]+)\]\s*$")
_KV_RE = re.compile(r"^\s*([\w][\w.-]*)\s*=\s*(.+?)\s*$")


def _parse_toml_subset(text: str) -> Dict:  # pragma: no cover - 3.9/3.10 only
    """Tiny TOML subset: tables of string scalars and string arrays."""
    result: Dict = {}
    current = result
    buffered = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0] if not raw.lstrip().startswith('"') else raw
        if buffered:
            line = buffered + " " + line.strip()
            buffered = ""
        table = _TABLE_RE.match(line)
        if table:
            current = result
            for part in table.group(1).split("."):
                current = current.setdefault(part.strip().strip('"'), {})
            continue
        kv = _KV_RE.match(line)
        if not kv:
            continue
        key, value = kv.group(1), kv.group(2)
        if value.startswith("[") and not value.rstrip().endswith("]"):
            buffered = line
            continue
        current[key] = _parse_value(value)
    return result


def _parse_value(value: str):  # pragma: no cover - 3.9/3.10 only
    value = value.strip()
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1]
        return [
            item.strip().strip('"').strip("'")
            for item in inner.split(",")
            if item.strip()
        ]
    return value.strip('"').strip("'")
