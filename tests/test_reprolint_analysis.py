"""Unit tests for the reprolint whole-program analysis engine.

Covers the three passes behind rules R011-R014 directly — the symbol
table (import-chain resolution, re-export canonicalisation), the call
graph (method edges, ``functools.partial`` references, reachability),
and the per-function dataflow helpers (def-use, attribute mutations,
closure capture, all-paths restore) — plus the ``ProjectAnalysis``
facade and the content-addressed AST cache used by ``--project``.
"""

import ast
import os
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS_DIR = REPO_ROOT / "tools"
SRC_TREE = REPO_ROOT / "src" / "repro"

sys.path.insert(0, str(TOOLS_DIR))

from reprolint.analysis.callgraph import CallGraph  # noqa: E402
from reprolint.analysis.dataflow import (  # noqa: E402
    attribute_mutations, closure_captures, def_use,
    mutations_missing_restore, shallow_walk)
from reprolint.analysis.modules import (  # noqa: E402
    SymbolTable, module_name_for_path)
from reprolint.analysis.project import (  # noqa: E402
    ANALYSIS_PASSES, AstCache, ProjectAnalysis)

PKG_FILES = {
    "pkg/__init__.py": "from .core import run\n",
    "pkg/core.py": (
        "import functools\n"
        "from .sub.util import helper as util_helper\n"
        "\n"
        "def run(items):\n"
        "    return [util_helper(i) for i in items]\n"
        "\n"
        "def sched():\n"
        "    return functools.partial(util_helper, 1)\n"
        "\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "        self._version = 0\n"
        "\n"
        "    def step(self):\n"
        "        self.refresh()\n"
        "\n"
        "    def refresh(self):\n"
        "        self._cache.clear()\n"
        "        self._version += 1\n"
    ),
    "pkg/sub/__init__.py": "",
    "pkg/sub/util.py": (
        "def helper(x):\n"
        "    return x + 1\n"
        "\n"
        "def lonely():\n"
        "    return 0\n"
    ),
}


def write_pkg(root):
    for rel, source in PKG_FILES.items():
        path = Path(root) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


def build_table(root):
    table = SymbolTable()
    for rel in sorted(PKG_FILES):
        path = Path(root) / rel
        table.add_file(str(path), ast.parse(path.read_text()))
    return table


def parse_func(source):
    """The first function definition in ``source``."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in snippet")


class TestModuleNaming(unittest.TestCase):
    def test_packaged_file_walks_init_chain(self):
        self.assertEqual(
            "repro.graph.graph",
            module_name_for_path(str(SRC_TREE / "graph" / "graph.py")))

    def test_package_init_names_the_package(self):
        self.assertEqual(
            "repro.perf",
            module_name_for_path(str(SRC_TREE / "perf" / "__init__.py")))

    def test_loose_file_uses_bare_stem(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fixture.py")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("x = 1\n")
            self.assertEqual("fixture", module_name_for_path(path))


class TestSymbolTable(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        write_pkg(self._tmp.name)
        self.table = build_table(self._tmp.name)

    def test_aliased_relative_import_resolves(self):
        self.assertEqual(
            "pkg.sub.util.helper",
            self.table.resolve("pkg.core", "util_helper"))

    def test_reexport_canonicalises_through_package_init(self):
        # pkg/__init__.py re-exports run via a *relative* import
        self.assertEqual("pkg.core.run",
                         self.table.canonical("pkg.run"))

    def test_method_symbols_carry_owner_class(self):
        symbol = self.table.function("pkg.core.Engine.step")
        self.assertIsNotNone(symbol)
        self.assertEqual("pkg.core.Engine", symbol.owner_class)
        self.assertTrue(symbol.is_method)

    def test_class_attributes_collected_from_self_writes(self):
        cls = self.table.cls("pkg.core.Engine")
        self.assertEqual(("_cache", "_version"), cls.attributes)

    def test_functions_named_finds_every_terminal_match(self):
        dotted = {s.dotted for s in self.table.functions_named("run")}
        self.assertEqual({"pkg.core.run"}, dotted)

    def test_unknown_name_resolves_to_none(self):
        self.assertIsNone(self.table.resolve("pkg.core", "nonesuch"))

    def test_real_tree_reexport(self):
        analysis = ProjectAnalysis()
        for path in sorted(SRC_TREE.rglob("*.py")):
            analysis.add_file(str(path),
                              ast.parse(path.read_text()))
        self.assertEqual(
            "repro.perf.executor.pmap",
            analysis.symbols.canonical("repro.perf.pmap"))


class TestCallGraph(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        write_pkg(self._tmp.name)
        self.graph = CallGraph(build_table(self._tmp.name))

    def test_direct_call_edge_through_aliased_import(self):
        self.assertIn("pkg.sub.util.helper",
                      self.graph.callees("pkg.core.run"))

    def test_functools_partial_creates_reference_edge(self):
        self.assertIn("pkg.sub.util.helper",
                      self.graph.callees("pkg.core.sched"))

    def test_self_method_call_edge(self):
        self.assertIn("pkg.core.Engine.refresh",
                      self.graph.callees("pkg.core.Engine.step"))

    def test_callers_is_the_reverse_view(self):
        self.assertIn("pkg.core.run",
                      self.graph.callers("pkg.sub.util.helper"))

    def test_reachable_from_excludes_unreferenced(self):
        reachable = self.graph.reachable_from(["pkg.core.run"])
        self.assertIn("pkg.sub.util.helper", reachable)
        self.assertNotIn("pkg.sub.util.lonely", reachable)

    def test_reaches_exact_and_prefix_targets(self):
        self.assertTrue(self.graph.reaches(
            "pkg.core.run", frozenset({"pkg.sub.util.helper"})))
        self.assertTrue(self.graph.reaches(
            "pkg.core.run", frozenset({"pkg.sub."})))
        self.assertFalse(self.graph.reaches(
            "pkg.core.run", frozenset({"pkg.sub.util.lonely"})))


class TestDataflow(unittest.TestCase):
    def test_def_use_tracks_rebindings(self):
        func = parse_func("def f(x):\n"
                          "    y = x + 1\n"
                          "    y = y * 2\n"
                          "    return y\n")
        flow = def_use(func)
        self.assertEqual(2, len(flow.bindings_of("y")))
        self.assertEqual([], flow.bindings_of("z"))

    def test_shallow_walk_skips_nested_scopes(self):
        func = parse_func("def f():\n"
                          "    a = 1\n"
                          "    def g():\n"
                          "        b = 2\n"
                          "    return a\n")
        stores = [n.id for n in shallow_walk(func)
                  if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)]
        self.assertIn("a", stores)
        self.assertNotIn("b", stores)

    def test_attribute_mutation_kinds(self):
        func = parse_func("def f(self, k):\n"
                          "    self._adj[k] = set()\n"
                          "    self._count += 1\n"
                          "    del self._labels[k]\n"
                          "    self._queue.append(k)\n")
        kinds = [(m.attr, m.kind)
                 for m in attribute_mutations(func)]
        self.assertEqual([("_adj", "subscript"),
                          ("_count", "augassign"),
                          ("_labels", "delete"),
                          ("_queue", "append")], kinds)

    def test_closure_captures_lists_enclosing_names(self):
        func = parse_func("def f(items, scale):\n"
                          "    def worker(item):\n"
                          "        return item * scale\n"
                          "    return worker\n")
        captures = closure_captures(func)
        self.assertEqual(1, len(captures))
        self.assertEqual(("scale",), captures[0][1])

    def test_module_level_reference_is_not_a_capture(self):
        func = parse_func("LIMIT = 3\n"
                          "def f(items):\n"
                          "    def worker(item):\n"
                          "        return item * LIMIT\n"
                          "    return worker\n")
        captures = closure_captures(func)
        self.assertEqual(1, len(captures))
        self.assertEqual((), captures[0][1])

    def mutation_callbacks(self):
        def mutates(stmt):
            if isinstance(stmt, ast.Assign) \
                    and isinstance(stmt.targets[0], ast.Subscript):
                return [stmt]
            return []

        def restores(stmt):
            return isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Attribute) \
                and stmt.target.attr == "_version"

        return mutates, restores

    def test_restore_on_one_branch_only_leaks(self):
        func = parse_func("def f(self, flag):\n"
                          "    self._adj[1] = 2\n"
                          "    if flag:\n"
                          "        self._version += 1\n")
        leaked = mutations_missing_restore(
            func, *self.mutation_callbacks())
        self.assertEqual(1, len(leaked))

    def test_restore_on_every_path_is_clean(self):
        func = parse_func("def f(self, flag):\n"
                          "    self._adj[1] = 2\n"
                          "    if flag:\n"
                          "        self._version += 1\n"
                          "    else:\n"
                          "        self._version += 1\n")
        self.assertEqual([], mutations_missing_restore(
            func, *self.mutation_callbacks()))

    def test_raise_paths_are_exempt(self):
        func = parse_func("def f(self, flag):\n"
                          "    if flag:\n"
                          "        self._adj[1] = 2\n"
                          "        raise ValueError('boom')\n"
                          "    self._version += 1\n")
        self.assertEqual([], mutations_missing_restore(
            func, *self.mutation_callbacks()))

    def test_loop_body_mutation_needs_restore_after_zero_trips(self):
        # the loop may run zero times, but the mutation inside it
        # still needs a restore on the fall-through path
        func = parse_func("def f(self, items):\n"
                          "    for item in items:\n"
                          "        self._adj[item] = set()\n")
        leaked = mutations_missing_restore(
            func, *self.mutation_callbacks())
        self.assertEqual(1, len(leaked))


class TestProjectAnalysis(unittest.TestCase):
    def analysis(self, root):
        analysis = ProjectAnalysis()
        for rel in sorted(PKG_FILES):
            path = Path(root) / rel
            analysis.add_file(str(path), ast.parse(path.read_text()))
        return analysis

    def test_build_records_pass_timings(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_pkg(tmp)
            analysis = self.analysis(tmp)
            analysis.build(ANALYSIS_PASSES)
            self.assertEqual({"symbols", "callgraph"},
                             set(analysis.pass_timings))

    def test_unknown_pass_is_an_error(self):
        with self.assertRaises(ValueError):
            ProjectAnalysis().build(["typestate"])

    def test_add_file_after_build_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_pkg(tmp)
            analysis = self.analysis(tmp)
            analysis.build(["symbols"])
            with self.assertRaises(RuntimeError):
                analysis.add_file("late.py", ast.parse("x = 1\n"))

    def test_module_for_maps_paths_back(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_pkg(tmp)
            analysis = self.analysis(tmp)
            info = analysis.module_for(
                str(Path(tmp) / "pkg" / "core.py"))
            self.assertEqual("pkg.core", info.name)


class TestAstCache(unittest.TestCase):
    SOURCE = "def f():\n    return 1\n"

    def test_second_parse_hits(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache = AstCache(tmp)
            first = cache.parse("a.py", self.SOURCE)
            second = cache.parse("a.py", self.SOURCE)
        self.assertIsInstance(first, ast.Module)
        self.assertIsInstance(second, ast.Module)
        self.assertEqual(1, cache.misses)
        self.assertEqual(1, cache.hits)

    def test_changed_source_misses(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache = AstCache(tmp)
            cache.parse("a.py", self.SOURCE)
            cache.parse("a.py", self.SOURCE + "\nx = 2\n")
        self.assertEqual(2, cache.misses)
        self.assertEqual(0, cache.hits)

    def test_corrupt_entry_falls_back_to_fresh_parse(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache = AstCache(tmp)
            cache.parse("a.py", self.SOURCE)
            (entry,) = os.listdir(tmp)
            with open(os.path.join(tmp, entry), "wb") as handle:
                handle.write(b"not a pickle")
            fresh = AstCache(tmp)
            tree = fresh.parse("a.py", self.SOURCE)
        self.assertIsInstance(tree, ast.Module)
        self.assertEqual(1, fresh.misses)

    def test_unwritable_directory_degrades_silently(self):
        cache = AstCache(os.path.join(os.sep, "proc", "no-such-dir"))
        tree = cache.parse("a.py", self.SOURCE)
        self.assertIsInstance(tree, ast.Module)

    def test_digest_is_stable(self):
        self.assertEqual(AstCache.digest(self.SOURCE),
                         AstCache.digest(self.SOURCE))
        self.assertNotEqual(AstCache.digest(self.SOURCE),
                            AstCache.digest(self.SOURCE + " "))


if __name__ == "__main__":
    unittest.main()
