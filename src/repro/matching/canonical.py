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

from repro.graph.graph import Graph
from repro.obs import metrics

#: backslash-escapes for labels inside an encoding, so no label can
#: spell the row and section separators ``|`` and ``#``
_CODE_ESCAPES = str.maketrans({"\\": "\\\\", "|": "\\|", "#": "\\#"})


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
    rows = [f"n{i}:{graph.node_label(u).translate(_CODE_ESCAPES)}"
            for i, u in enumerate(order)]
    edges: List[str] = []
    for u, v in graph.edges():
        a, b = sorted((position[u], position[v]))
        label = graph.edge_label(u, v).translate(_CODE_ESCAPES)
        edges.append(f"e{a:03d},{b:03d}:{label}")
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


def _search(graph: Graph) -> Tuple[str, Tuple[int, ...]]:
    """``(code, order)``: the minimal encoding and the node order
    that spells it, from one backtracking search."""
    search = _CanonicalSearch(graph)
    search.run()
    return search.best_code, tuple(search.best_order)


def canonical_code(graph: Graph) -> str:
    """Canonical string code; equal iff graphs are isomorphic.

    Memoized, with the order that spells it, as the graph's
    ``"canonical_code"`` :meth:`~repro.graph.graph.Graph.view`, so
    repeated calls on an unmodified graph skip the backtracking
    search (each search counts one
    ``matching.canonical_memo_misses``, each skip one ``_hits``).
    """
    if graph.order() == 0:
        return "#"
    searched = False

    def search_code(target: Graph) -> Tuple[str, Tuple[int, ...]]:
        nonlocal searched
        searched = True
        return _search(target)

    code, _ = graph.view("canonical_code", search_code)
    metrics.inc("matching.canonical_memo_misses" if searched
                else "matching.canonical_memo_hits")
    return code


def canonical_form(graph: Graph) -> Graph:
    """A canonically-relabeled copy: node ``i`` is the ``i``-th node
    of the canonical order, nodes are inserted in that order and
    edges in sorted order.

    Two isomorphic graphs map to identical copies, insertion order
    included, so anything that walks a graph in insertion order (a
    capped embedding enumeration) reads the same on both.  Only
    labels are copied, as only labels enter the code.  The order
    comes from the ``"canonical_code"`` view :func:`canonical_code`
    fills; reading it here is not counted as a memo hit or miss.
    """
    if graph.order() == 0:
        return graph.copy()
    _, order = graph.view("canonical_code", _search)
    position = {u: i for i, u in enumerate(order)}
    form = Graph(name=graph.name)
    for u in order:
        form.add_node(position[u], label=graph.node_label(u))
    edges = sorted((min(position[u], position[v]),
                    max(position[u], position[v]), graph.edge_label(u, v))
                   for u, v in graph.edges())
    for a, b, label in edges:
        form.add_edge(a, b, label=label)
    return form
