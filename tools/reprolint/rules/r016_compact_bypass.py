"""R016 compact-bypass.

PR "compact graph core" gave the matching and truss kernels a frozen
CSR view (:meth:`repro.graph.graph.Graph.compact`): interned label
tables, offset/neighbor arrays, slice-based scans.  Once a function
has taken that view for a graph, going back to the dict-of-dict
adjacency on the *same* graph — ``graph.neighbors(...)`` calls,
``graph.adjacency_sets()``, or reaching into the private ``._adj``
store — silently mixes the two representations: the dict access
rebuilds per-node hash sets the CSR arrays already encode, and the
mixed code path is exactly the kind of half-migrated hot loop the
compact core was introduced to eliminate.  Scoped like R008 to files
under a ``matching`` or ``truss`` package directory, and per function:
only graphs whose ``.compact()`` is taken inside the function are
constrained, so pattern-side ``neighbors()`` iteration next to a
target-side compact view stays allowed, as do dict-path functions
that never take a compact view.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from reprolint.registry import Rule, register
from reprolint.runner import FileContext, ProjectIndex
from reprolint.violations import Violation

from reprolint.rules.r008_hot_loop_adjacency import _in_hot_package

#: Graph methods that route through the dict-of-dict adjacency store.
DICT_PATH_CALLS = frozenset({"neighbors", "adjacency_sets"})


def _expr_key(node: ast.AST) -> str:
    """Structural key for a base expression (``g``, ``self.target``)."""
    return ast.dump(node)


def _compacted_bases(func: ast.AST) -> Set[str]:
    """Bases whose ``.compact()`` is called anywhere in the function."""
    bases: Set[str] = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compact"
                and not node.args and not node.keywords):
            bases.add(_expr_key(node.func.value))
    return bases


@register
class CompactBypassRule(Rule):
    id = "R016"
    name = "compact-bypass"
    description = ("dict-of-dict neighbor access (neighbors()/"
                   "adjacency_sets()/._adj) on a graph whose compact "
                   "view is in scope, inside matching/truss kernels")

    def check(self, ctx: FileContext,
              project: ProjectIndex) -> Iterator[Violation]:
        if not _in_hot_package(ctx.path):
            return
        seen: Set[int] = set()
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            bases = _compacted_bases(func)
            if not bases:
                continue
            for node in ast.walk(func):
                if id(node) in seen:
                    continue  # already flagged via an enclosing def
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in DICT_PATH_CALLS
                        and _expr_key(node.func.value) in bases):
                    seen.add(id(node))
                    yield self._violation(
                        ctx, node,
                        f".{node.func.attr}(...) on a graph whose "
                        "compact() view this function already holds; "
                        "scan the CSR slice / label table instead")
                elif (isinstance(node, ast.Attribute)
                        and node.attr == "_adj"
                        and _expr_key(node.value) in bases):
                    seen.add(id(node))
                    yield self._violation(
                        ctx, node,
                        "._adj access on a graph whose compact() view "
                        "this function already holds; use the CSR "
                        "arrays instead")

    def _violation(self, ctx: FileContext, node: ast.AST,
                   message: str) -> Violation:
        return Violation(path=ctx.path, line=node.lineno,
                         col=node.col_offset, rule=self.id,
                         message=message)
