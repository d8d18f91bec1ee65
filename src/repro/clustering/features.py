"""Frequent-subtree features for clustering graph repositories.

CATAPULT clusters a repository using frequent-subtree feature vectors;
MIDAS replaces plain frequent subtrees with *frequent closed trees*
(FCT, Bifet & Gavalda 2011) because the closure property allows
incremental maintenance of the feature vocabulary under batch updates.
Both read :func:`subtree_census`, the one place subtrees are
enumerated and coded, kept as a view of each graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.graph.graph import Graph, edge_key
from repro.graph.operations import edge_subgraph
from repro.matching.canonical import canonical_code
from repro.matching.isomorphism import is_subgraph

#: default maximum subtree size, in edges (4 nodes)
DEFAULT_TREE_EDGES = 3


def connected_tree_subgraphs(graph: Graph, max_edges: int = DEFAULT_TREE_EDGES
                             ) -> Iterator[Tuple[FrozenSet, Graph]]:
    """Yield (edge-subset, subtree) for every connected acyclic edge
    subgraph with 1..max_edges edges, each subset exactly once."""
    edges = [edge_key(u, v) for u, v in graph.edges()]
    adjacency: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {
        e: set() for e in edges}
    for e1, e2 in combinations(edges, 2):
        if set(e1) & set(e2):
            adjacency[e1].add(e2)
            adjacency[e2].add(e1)

    def node_count(subset: FrozenSet) -> int:
        nodes: Set[int] = set()
        for u, v in subset:
            nodes.add(u)
            nodes.add(v)
        return len(nodes)

    frontier: Set[FrozenSet] = {frozenset([e]) for e in edges}
    size = 1
    seen: Set[FrozenSet] = set(frontier)
    while frontier and size <= max_edges:
        for subset in frontier:
            if node_count(subset) == size + 1:  # acyclic check
                yield subset, edge_subgraph(graph, subset)
        next_frontier: Set[FrozenSet] = set()
        for subset in frontier:
            reachable: Set[Tuple[int, int]] = set()
            for e in subset:
                reachable |= adjacency[e]
            for e in reachable - subset:
                grown = subset | {e}
                if grown not in seen:
                    seen.add(grown)
                    next_frontier.add(grown)
        frontier = next_frontier
        size += 1


def subtree_census(graph: Graph, max_edges: int = DEFAULT_TREE_EDGES
                   ) -> Dict[str, Tuple[int, FrozenSet]]:
    """``{code: (occurrences, first edge subset)}`` over the subtrees
    of ``graph`` with 1..max_edges edges.

    Codes appear in the order :func:`connected_tree_subgraphs` first
    meets them; the subset is the first one realising the code.
    Memoized as the graph's ``("subtree_census", max_edges)``
    :meth:`~repro.graph.graph.Graph.view`: treat it as read-only.
    """
    def take(target: Graph) -> Dict[str, Tuple[int, FrozenSet]]:
        census: Dict[str, Tuple[int, FrozenSet]] = {}
        for subset, subtree in connected_tree_subgraphs(target, max_edges):
            code = canonical_code(subtree)
            count, first = census.get(code, (0, subset))
            census[code] = (count + 1, first)
        return census

    return graph.view(("subtree_census", max_edges), take)


def tree_feature_counts(graph: Graph,
                        max_edges: int = DEFAULT_TREE_EDGES
                        ) -> Dict[str, int]:
    """Occurrence counts of subtree isomorphism classes in one graph.

    Keys are canonical codes; values count distinct edge subsets
    realising that subtree.
    """
    return {code: count for code, (count, _)
            in subtree_census(graph, max_edges).items()}


class MinedTree:
    """A mined subtree: representative graph, code, and support."""

    __slots__ = ("code", "graph", "support")

    def __init__(self, code: str, graph: Graph, support: int) -> None:
        self.code = code
        self.graph = graph
        self.support = support

    def __repr__(self) -> str:
        return (f"<MinedTree m={self.graph.size()} "
                f"support={self.support}>")


def mine_frequent_trees(repository: Sequence[Graph], min_support: int = 2,
                        max_edges: int = DEFAULT_TREE_EDGES
                        ) -> List[MinedTree]:
    """Subtrees occurring in >= min_support repository graphs.

    Support is per-graph (document frequency), the convention of
    frequent-subgraph mining.
    """
    index = FCTIndex(min_support, max_edges)
    index.build(repository)
    return index.frequent_trees()


def closed_frequent_trees(mined: Sequence[MinedTree]) -> List[MinedTree]:
    """Filter to *closed* trees: no frequent supertree has equal support.

    Closedness makes the vocabulary compact and, because closure is
    preserved under the batch updates MIDAS applies, incrementally
    maintainable.
    """
    by_size: Dict[int, List[MinedTree]] = {}
    for tree in mined:
        by_size.setdefault(tree.graph.size(), []).append(tree)
    closed: List[MinedTree] = []
    for tree in mined:
        is_closed = True
        for bigger in by_size.get(tree.graph.size() + 1, []):
            if (bigger.support == tree.support
                    and is_subgraph(tree.graph, bigger.graph)):
                is_closed = False
                break
        if is_closed:
            closed.append(tree)
    return closed


class FCTIndex:
    """Supports of all subtrees, with frequent-closed-tree views.

    The index stores *all* subtree supports (document frequency) so a
    batch update only needs the tree codes of the touched graphs.
    """

    def __init__(self, min_support: int = 2,
                 max_edges: int = DEFAULT_TREE_EDGES) -> None:
        self.min_support = min_support
        self.max_edges = max_edges
        self._supports: Dict[str, int] = {}
        self._representatives: Dict[str, Graph] = {}
        self._graph_count = 0

    # -- bookkeeping ------------------------------------------------------
    def _codes_of(self, graph: Graph) -> Dict[str, Tuple[int, FrozenSet]]:
        census = subtree_census(graph, self.max_edges)
        for code, (_, subset) in census.items():
            if code not in self._representatives:
                self._representatives[code] = \
                    edge_subgraph(graph, subset).normalized()
        return census

    def build(self, repository: Sequence[Graph]) -> None:
        """Initialise from a full repository."""
        self._supports.clear()
        self._representatives.clear()
        self._graph_count = 0
        for graph in repository:
            self.add_graph(graph)

    def add_graph(self, graph: Graph) -> None:
        """Account for one added graph."""
        for code in self._codes_of(graph):
            self._supports[code] = self._supports.get(code, 0) + 1
        self._graph_count += 1

    def remove_graph(self, graph: Graph) -> None:
        """Account for one removed graph."""
        for code in self._codes_of(graph):
            remaining = self._supports.get(code, 0) - 1
            if remaining <= 0:
                self._supports.pop(code, None)
            else:
                self._supports[code] = remaining
        self._graph_count -= 1

    # -- views --------------------------------------------------------------
    @property
    def graph_count(self) -> int:
        return self._graph_count

    def support(self, code: str) -> int:
        return self._supports.get(code, 0)

    def frequent_trees(self) -> List[MinedTree]:
        """All frequent subtrees at the current min_support."""
        return [MinedTree(code, self._representatives[code], support)
                for code, support in sorted(self._supports.items())
                if support >= self.min_support]

    def frequent_closed(self) -> List[MinedTree]:
        """The frequent *closed* trees (the clustering vocabulary)."""
        return closed_frequent_trees(self.frequent_trees())

    def __len__(self) -> int:
        return len(self._supports)


def feature_vector_from_vocabulary(graph: Graph,
                                   vocabulary: Sequence[MinedTree],
                                   max_edges: int = DEFAULT_TREE_EDGES
                                   ) -> List[float]:
    """Dense feature vector of one graph over a mined vocabulary."""
    counts = tree_feature_counts(graph, max_edges)
    return [float(counts.get(tree.code, 0)) for tree in vocabulary]


def repository_feature_matrix(repository: Sequence[Graph],
                              vocabulary: Sequence[MinedTree],
                              max_edges: int = DEFAULT_TREE_EDGES
                              ) -> List[List[float]]:
    """Feature vectors for every repository graph (row-per-graph)."""
    return [feature_vector_from_vocabulary(g, vocabulary, max_edges)
            for g in repository]
