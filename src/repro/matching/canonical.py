"""Canonical codes for small labeled graphs.

A canonical code is a string that is identical for two graphs iff
they are isomorphic (node and edge labels included).  It is used to
deduplicate candidate patterns and as a key for pattern indices.

The algorithm is classic colour refinement (1-WL) followed by
individualisation-refinement backtracking: the lexicographically
smallest adjacency encoding over all refinement-consistent orderings
is the code.  Branches that differ only by a transposition
automorphism are pruned (this keeps cliques/stars linear instead of
factorial).  Exact for all graphs; fast for the pattern sizes used
here (<= ~15 nodes).
"""

from __future__ import annotations

from typing import Dict, List, Tuple
from weakref import WeakKeyDictionary

from repro.graph.graph import Graph
from repro.obs import metrics

#: Per-object memo for :func:`canonical_code`, invalidated through the
#: graph's mutation counter.  Clustering and dedup loops recompute the
#: code of the *same object* many times; this memo removes those
#: repeats without the content hashing `repro.perf.cached_canonical_code`
#: pays to unify distinct-but-equal objects.
_code_memo: "WeakKeyDictionary[Graph, Tuple[int, str]]" = \
    WeakKeyDictionary()


def _refine(graph: Graph, colors: Dict[int, int]) -> Dict[int, int]:
    """Colour refinement until stable; colours are small ints."""
    nodes = sorted(graph.nodes())
    while True:
        signatures: Dict[int, Tuple] = {}
        for u in nodes:
            nbr_sig = sorted((colors[v], graph.edge_label(u, v))
                             for v in graph.neighbors(u))
            signatures[u] = (colors[u], tuple(nbr_sig))
        distinct = sorted(set(signatures.values()))
        remap = {sig: i for i, sig in enumerate(distinct)}
        new_colors = {u: remap[signatures[u]] for u in nodes}
        if new_colors == colors:
            return colors
        colors = new_colors


def _initial_colors(graph: Graph) -> Dict[int, int]:
    labels = sorted({graph.node_label(u) for u in graph.nodes()})
    index = {label: i for i, label in enumerate(labels)}
    return {u: index[graph.node_label(u)] for u in graph.nodes()}


def _encode(graph: Graph, order: List[int]) -> str:
    """Adjacency encoding of the graph under a fixed node order."""
    position = {u: i for i, u in enumerate(order)}
    rows = [f"n{i}:{graph.node_label(u)}" for i, u in enumerate(order)]
    edges: List[str] = []
    for u, v in graph.edges():
        a, b = sorted((position[u], position[v]))
        edges.append(f"e{a:03d},{b:03d}:{graph.edge_label(u, v)}")
    edges.sort()
    return "|".join(rows) + "#" + "|".join(edges)


def _transposition_automorphism(graph: Graph, u: int, v: int) -> bool:
    """True iff swapping ``u`` and ``v`` is a label-preserving automorphism."""
    if graph.node_label(u) != graph.node_label(v):
        return False
    nbrs_u = {w for w in graph.neighbors(u) if w != v}
    nbrs_v = {w for w in graph.neighbors(v) if w != u}
    if nbrs_u != nbrs_v:
        return False
    for w in nbrs_u:
        if graph.edge_label(u, w) != graph.edge_label(v, w):
            return False
    return True


class _CanonicalSearch:
    """Backtracking search for the minimal encoding and its order."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.best_code = ""
        self.best_order: List[int] = []

    def run(self) -> None:
        colors = _refine(self.graph, _initial_colors(self.graph))
        self._search([], colors)

    def _search(self, prefix: List[int], colors: Dict[int, int]) -> None:
        graph = self.graph
        if len(prefix) == graph.order():
            code = _encode(graph, prefix)
            if not self.best_code or code < self.best_code:
                self.best_code = code
                self.best_order = list(prefix)
            return
        placed = set(prefix)
        cells: Dict[int, List[int]] = {}
        for u in graph.nodes():
            if u not in placed:
                cells.setdefault(colors[u], []).append(u)
        cell = sorted(cells[min(cells)])
        if len(cell) == 1:
            prefix.append(cell[0])
            self._search(prefix, colors)
            prefix.pop()
            return
        branched: List[int] = []
        for u in cell:
            # prune branches identical to an earlier one up to a swap
            if any(_transposition_automorphism(graph, u, w)
                   for w in branched):
                continue
            branched.append(u)
            new_colors = dict(colors)
            new_colors[u] = -len(prefix) - 1  # unique negative colour
            new_colors = _refine(graph, new_colors)
            prefix.append(u)
            self._search(prefix, new_colors)
            prefix.pop()


def canonical_code(graph: Graph) -> str:
    """Canonical string code; equal iff graphs are isomorphic.

    Memoized per graph object, keyed by
    :meth:`repro.graph.graph.Graph.version`, so repeated calls on an
    unmodified graph skip the backtracking search.
    """
    if graph.order() == 0:
        return "#"
    version = graph.version()
    cached = _code_memo.get(graph)
    if cached is not None and cached[0] == version:
        metrics.inc("matching.canonical_memo_hits")
        return cached[1]
    metrics.inc("matching.canonical_memo_misses")
    search = _CanonicalSearch(graph)
    search.run()
    _code_memo[graph] = (version, search.best_code)
    return search.best_code


def canonical_form(graph: Graph) -> Graph:
    """A canonically-relabeled copy (nodes 0..n-1 in canonical order).

    Two isomorphic graphs map to copies for which
    :meth:`repro.graph.Graph.same_as` holds.
    """
    if graph.order() == 0:
        return graph.copy()
    search = _CanonicalSearch(graph)
    search.run()
    mapping = {u: i for i, u in enumerate(search.best_order)}
    return graph.relabeled(mapping)
