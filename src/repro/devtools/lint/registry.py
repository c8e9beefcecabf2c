"""Rule base class and registry.

Rules subclass :class:`Rule`, declare the AST node types they want to see
in :attr:`Rule.interests`, and register themselves with the
:func:`register_rule` class decorator.  The shared walker parses each file
exactly once and dispatches every node to every interested rule, so adding
a rule never adds a parse or a traversal.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple, Type

from repro.devtools.lint.finding import Finding


class Rule:
    """One statically-checkable invariant.

    Subclasses set the class attributes below and implement :meth:`visit`
    (called once per interesting node during the shared walk).  Hooks
    :meth:`begin_file` / :meth:`end_file` bracket each file; per-file state
    must be reset in :meth:`begin_file` because one rule instance is reused
    across the whole run.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    interests: Tuple[Type[ast.AST], ...] = ()

    def begin_file(self, ctx) -> None:  # pragma: no cover - default no-op
        pass

    def visit(self, node: ast.AST, ctx) -> None:  # pragma: no cover - default no-op
        pass

    def end_file(self, ctx) -> None:  # pragma: no cover - default no-op
        pass

    # ------------------------------------------------------------------ #
    def report(self, ctx, node: ast.AST, message: str) -> None:
        """Emit a finding anchored at *node*."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ctx.line_text(line)
        ctx.findings.append(
            Finding(
                path=ctx.rel_path,
                line=line,
                col=col,
                rule_id=self.rule_id,
                message=message,
                snippet=snippet,
            )
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding *cls* to the global rule registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, sorted by rule id."""
    # Import for the registration side effect; idempotent after first call.
    from repro.devtools.lint.rules import concurrency, determinism  # noqa: F401

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]
