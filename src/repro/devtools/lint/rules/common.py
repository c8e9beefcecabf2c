"""Shared AST helpers for lint rules."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

#: Calls through which iteration order cannot escape: they reduce, re-sort,
#: or discard the order of their iterable argument.
ORDER_NEUTRAL_CALLS = frozenset(
    {
        "sorted",
        "set",
        "frozenset",
        "len",
        "sum",
        "min",
        "max",
        "any",
        "all",
        "Counter",
        "dict",  # keyed — insertion order differs but lookups don't
    }
)

_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node belonging to *scope*, excluding nested scopes.

    Nested function and class definitions get their own rule visits, so
    descending into them here would double-report.  The nested ``def``'s
    own node (name, decorators, defaults) is still yielded.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_TYPES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def root_name(node: ast.AST) -> Optional[str]:
    """The variable a ``x.attr[k].method(...)`` chain is rooted at."""
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Starred):
            node = node.value
        else:
            return None


def in_order_neutral_context(ctx, node: ast.AST) -> bool:
    """True when every path from *node* to its statement passes through an
    order-insensitive consumer (``sorted(...)``, ``len(...)``, membership
    tests, ...)."""
    child = node
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.Call):
            func = ancestor.func
            if child in ancestor.args and isinstance(func, ast.Name):
                if func.id in ORDER_NEUTRAL_CALLS:
                    return True
        if isinstance(ancestor, ast.Compare):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in ancestor.ops):
                return True
        if isinstance(ancestor, ast.stmt):
            return False
        child = ancestor
    return False
