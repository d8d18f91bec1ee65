"""R011 cache-invalidation safety.

:class:`repro.graph.graph.Graph` keeps every value derived from its
content in one view store, ``Graph.view(key, build)``: the kernel
views (adjacency sets, label index, compact form, neighbor label
counts), canonical codes, content fingerprints, graphlet counts and
subtree censuses.  A monotonic ``_version`` counter invalidates them
all instead of eagerly rebuilding them.  The whole
scheme rests on two obligations this rule machine-checks:

* **Writers bump.**  Any method of a version-guarded class (a class
  that writes ``self._version`` somewhere) that mutates one of the
  guarded attributes (``_adj``, ``_node_labels``, ``_edge_labels``,
  ``_edge_attrs``, ``_views``) must bump ``_version`` on *every* path
  from the mutation to a normal exit.  An early ``return`` that skips
  the bump leaves every cached view silently stale — the classic bug
  this rule exists for.  ``raise`` paths are exempt (an aborted
  operation may leave the counter alone), as are ``__init__``/
  ``__new__`` (no caches can exist yet) and the version-tagged cache
  write itself (``self._views = (self._version, {...})``).
* **Readers don't write.**  The cached views are returned without
  copying; call sites outside the defining module must treat them as
  frozen.  ``adj = g.adjacency_sets(); adj[u].add(v)`` or
  ``census = g.view(key, build); census.pop(code)`` corrupts the
  shared cache for every other reader until the next bump.

Both checks are intra-procedural on top of the dataflow pass's
all-paths walker; a call to a sibling method that itself bumps
``_version`` counts as a restore, so helper-bump idioms stay legal.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from reprolint.analysis.dataflow import (
    FunctionDataflow,
    INPLACE_METHODS,
    mutations_missing_restore,
    shallow_walk,
)
from reprolint.registry import Rule, register
from reprolint.runner import FileContext, ProjectIndex
from reprolint.violations import Violation

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Methods where guarded writes need no bump: construction and
#: copy-protocol plumbing run before any view can have been handed out.
_EXEMPT_METHODS = frozenset({
    "__init__", "__new__", "__copy__", "__deepcopy__", "__setstate__",
    "__reduce__", "__getstate__",
})


def _self_attr(expr: ast.expr, version_attr: str = "") -> Optional[str]:
    """``attr`` when expr is ``self.attr`` (one subscript deep)."""
    if isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute) \
            and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self":
        return expr.attr
    return None


def _reads_version(expr: ast.expr, version_attr: str) -> bool:
    """True when any subexpression loads ``self.<version_attr>``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) \
                and node.attr == version_attr \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return True
    return False


def _writes_version(stmt: ast.stmt, version_attr: str) -> bool:
    """True for ``self._version += 1`` / ``self._version = ...``."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Attribute) \
                and target.attr == version_attr \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            return True
    return False


def _view_root(expr: ast.expr, name_roots: Set[str],
               attr_roots: Set[str]) -> Optional[str]:
    """Display name when ``expr`` (subscripts stripped) is a view root."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Name) and expr.id in name_roots:
        return expr.id
    if isinstance(expr, ast.Attribute) \
            and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self" and expr.attr in attr_roots:
        return f"self.{expr.attr}"
    return None


@register
class CacheInvalidationRule(Rule):
    id = "R011"
    name = "cache-invalidation-safety"
    description = ("mutations of version-guarded Graph state must bump "
                   "_version on every path, and cached-view returns "
                   "(view(), adjacency_sets() etc.) must not be "
                   "mutated by callers")
    requires = ("symbols", "dataflow")

    # ------------------------------------------------------------------
    # writers bump
    # ------------------------------------------------------------------
    def _guarded_nodes(self, stmt: ast.stmt, config) -> List[ast.AST]:
        """Guarded-attribute mutations performed by one simple stmt."""
        guarded = config.version_guarded_attrs
        version_attr = config.version_attr
        found: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                attr = _self_attr(target)
                if attr in guarded:
                    # the version-tagged cache write is the
                    # invalidation mechanism itself, not a mutation:
                    # self._views = (self._version, {...})
                    if not isinstance(target, ast.Subscript) \
                            and _reads_version(stmt.value, version_attr):
                        continue
                    found.append(stmt)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if _self_attr(stmt.target) in guarded:
                found.append(stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if _self_attr(target) in guarded:
                    found.append(stmt)
        elif isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Call) \
                and isinstance(stmt.value.func, ast.Attribute) \
                and stmt.value.func.attr in INPLACE_METHODS:
            if _self_attr(stmt.value.func.value) in guarded:
                found.append(stmt)
        return found

    def _bumping_methods(self, classdef: ast.ClassDef,
                         version_attr: str) -> Set[str]:
        """Method names whose body writes ``self._version`` anywhere."""
        bumping: Set[str] = set()
        for item in classdef.body:
            if isinstance(item, _FUNCTIONS):
                for node in shallow_walk(item):
                    if isinstance(node, ast.stmt) \
                            and _writes_version(node, version_attr):
                        bumping.add(item.name)
                        break
        return bumping

    def _check_writers(self, ctx: FileContext
                       ) -> Iterator[Violation]:
        config = ctx.config
        version_attr = config.version_attr
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bumping = self._bumping_methods(node, version_attr)
            if not bumping:
                continue  # not a version-guarded class
            for method in node.body:
                if not isinstance(method, _FUNCTIONS) \
                        or method.name in _EXEMPT_METHODS:
                    continue

                def mutates(stmt: ast.stmt) -> List[ast.AST]:
                    return self._guarded_nodes(stmt, config)

                def restores(stmt: ast.stmt) -> bool:
                    if _writes_version(stmt, version_attr):
                        return True
                    # delegation: calling a sibling that bumps
                    return (isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Call)
                            and isinstance(stmt.value.func, ast.Attribute)
                            and isinstance(stmt.value.func.value, ast.Name)
                            and stmt.value.func.value.id == "self"
                            and stmt.value.func.attr in bumping)

                for leak in mutations_missing_restore(
                        method, mutates, restores):
                    attr = self._leaked_attr(leak, config)
                    yield Violation(
                        path=ctx.path, line=leak.lineno,
                        col=leak.col_offset, rule=self.id,
                        message=(f"{node.name}.{method.name} mutates "
                                 f"self.{attr} on a path that exits "
                                 f"without bumping "
                                 f"self.{version_attr}; cached views "
                                 f"go stale"))

    def _leaked_attr(self, stmt: ast.AST, config) -> str:
        for node in ast.walk(stmt):
            attr = _self_attr(node) if isinstance(node, (
                ast.Attribute, ast.Subscript)) else None
            if attr in config.version_guarded_attrs:
                return attr
        return "?"

    # ------------------------------------------------------------------
    # readers don't write
    # ------------------------------------------------------------------
    def _check_readers(self, ctx: FileContext
                       ) -> Iterator[Violation]:
        config = ctx.config
        views = config.cached_view_methods
        # the defining module may build/own the views it returns
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) \
                            and item.name in views:
                        return
        for node in ast.walk(ctx.tree):
            if isinstance(node, _FUNCTIONS):
                yield from self._check_function_reads(ctx, node, views)

    def _check_function_reads(self, ctx: FileContext, func,
                              views) -> Iterator[Violation]:
        flow = FunctionDataflow(func)
        name_roots: Set[str] = set()
        bound_method: Dict[str, str] = {}
        for name, nameflow in flow.names.items():
            bindings = [b for b in nameflow.bindings if b is not None]
            view_calls = [b for b in bindings
                          if isinstance(b, ast.Call)
                          and isinstance(b.func, ast.Attribute)
                          and b.func.attr in views]
            # only names *exclusively* bound to view calls: a copy
            # (``adj = dict(g.adjacency_sets())``) de-classifies
            if bindings and view_calls \
                    and len(view_calls) == len(bindings):
                name_roots.add(name)
                bound_method[name] = view_calls[0].func.attr
        attr_roots: Set[str] = set()
        attr_method: Dict[str, str] = {}
        for node in shallow_walk(func):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr in views:
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        attr_roots.add(target.attr)
                        attr_method[target.attr] = node.value.func.attr
        if not name_roots and not attr_roots:
            return

        def origin(root: str) -> str:
            if root.startswith("self."):
                return attr_method.get(root[5:], "a cached view")
            return bound_method.get(root, "a cached view")

        for node in shallow_walk(func):
            mutated: List[Tuple[str, ast.AST]] = []
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        root = _view_root(target, name_roots, attr_roots)
                        if root:
                            mutated.append((root, node))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        root = _view_root(target, name_roots, attr_roots)
                        if root:
                            mutated.append((root, node))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in INPLACE_METHODS:
                root = _view_root(node.func.value, name_roots, attr_roots)
                if root:
                    mutated.append((root, node))
            for root, site in mutated:
                yield Violation(
                    path=ctx.path, line=site.lineno,
                    col=site.col_offset, rule=self.id,
                    message=(f"{root} is the shared return of "
                             f"{origin(root)}(); mutating it corrupts "
                             f"the version-cached view for every "
                             f"reader — copy it first"))

    def check(self, ctx: FileContext,
              project: ProjectIndex) -> Iterator[Violation]:
        yield from self._check_writers(ctx)
        yield from self._check_readers(ctx)
