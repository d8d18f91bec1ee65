"""Whole-program analysis core for reprolint.

The per-file rules R001–R010 judge one AST at a time; the project
rules R011–R014 need facts that span modules: *which function is this
name, really* (symbol table), *what can run when this stage runs*
(call graph), and *where does this value flow inside a function*
(dataflow).  This package provides exactly those three passes, all
stdlib-only, layered so each rule requests only what it needs:

``modules``
    Path → dotted module name, per-module import resolution (plain,
    ``from``, aliased, relative), and a project-wide symbol table of
    functions, classes, methods, and class attributes.

``callgraph``
    Resolved call edges (plain calls, ``self.``/class-hierarchy
    method calls, ``functools.partial`` references) plus
    interprocedural reachability queries.

``dataflow``
    Intra-procedural def-use chains, ``self.<attr>`` mutation
    tracking, escape-to-closure detection, and an "is the invariant
    restored on every path to exit" walker.

``project``
    The :class:`~reprolint.analysis.project.ProjectAnalysis` facade
    that owns all passes, builds each at most once per lint run, and
    caches parsed ASTs on disk keyed by source content hash.
"""

from reprolint.analysis.modules import (  # noqa: F401
    ModuleInfo,
    SymbolTable,
    module_name_for_path,
)
from reprolint.analysis.callgraph import CallGraph  # noqa: F401
from reprolint.analysis.dataflow import (  # noqa: F401
    FunctionDataflow,
    attribute_mutations,
    closure_captures,
    mutations_missing_restore,
)
from reprolint.analysis.project import (  # noqa: F401
    ANALYSIS_PASSES,
    ProjectAnalysis,
)
