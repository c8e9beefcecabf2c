"""Shared single-parse file walker.

Each file is read and parsed exactly once; the resulting AST is traversed
exactly once, dispatching every node to every rule that declared interest
in its type.  The walker maintains the context rules need to reason about
scope — parent links, the enclosing function/class stacks, and a resolved
import table — so individual rules stay small and never re-walk the tree
from the root.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.devtools.lint.finding import Finding
from repro.devtools.lint.pragmas import PragmaIndex
from repro.devtools.lint.registry import Rule


class ImportTable:
    """Maps local names to the dotted module/object paths they denote.

    ``import numpy as np``              → ``np -> numpy``
    ``import os.path``                  → ``os -> os``
    ``from random import randint as r`` → ``r -> random.randint``
    """

    def __init__(self) -> None:
        self._names: Dict[str, str] = {}

    def record(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self._names[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                self._names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path for a Name/Attribute chain, or ``None``.

        ``np.random.rand`` resolves to ``numpy.random.rand`` when ``np``
        maps to ``numpy``; chains rooted at unknown names resolve to the
        literal chain text so callers can still match absolute spellings.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._names.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


class FileContext:
    """Everything rules may consult while visiting one file."""

    def __init__(
        self,
        rel_path: str,
        source: str,
        tree: ast.Module,
        memoized_apis: frozenset = frozenset(),
    ) -> None:
        self.rel_path = rel_path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree = tree
        self.pragmas = PragmaIndex(self.lines)
        self.imports = ImportTable()
        self.memoized_apis = memoized_apis
        self.findings: List[Finding] = []
        # Traversal state maintained by the walker:
        self.func_stack: List[ast.AST] = []
        # Parent links for the whole tree, built up front so rules may ask
        # for ancestors of nodes the depth-first dispatch has not reached.
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    # ------------------------------------------------------------------ #
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST):
        """Yield parents from the immediate one to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(self) -> Optional[ast.AST]:
        return self.func_stack[-1] if self.func_stack else None


_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def walk_file(
    rel_path: str,
    source: str,
    rules: Sequence[Rule],
    memoized_apis: frozenset = frozenset(),
) -> FileContext:
    """Parse *source* once and run every rule over the tree.

    Raises :class:`SyntaxError` if the file does not parse; the engine
    turns that into a finding.
    """
    tree = ast.parse(source, filename=rel_path)
    ctx = FileContext(rel_path, source, tree, memoized_apis=memoized_apis)

    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        rule.begin_file(ctx)
        for node_type in rule.interests:
            dispatch.setdefault(node_type, []).append(rule)

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            ctx.imports.record(node)
        interested = dispatch.get(type(node))
        if interested:
            for rule in interested:
                rule.visit(node, ctx)
        is_func = isinstance(node, _FUNC_TYPES)
        if is_func:
            ctx.func_stack.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)
        if is_func:
            ctx.func_stack.pop()

    visit(tree)
    for rule in rules:
        rule.end_file(ctx)
    return ctx
