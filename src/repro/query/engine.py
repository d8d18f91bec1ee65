"""Subgraph query execution over repositories and networks.

The engine behind the Results Panel: given a visual query (a labeled
graph), find the repository graphs — or network regions — that match.
A node-label inverted index prunes the candidate graphs before the
VF2 search runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.matching.isomorphism import (
    WILDCARD,
    SubgraphMatcher,
    subgraph_embeddings,
)


class GraphMatch:
    """All retained embeddings of the query in one data graph."""

    __slots__ = ("graph_index", "graph", "embeddings")

    def __init__(self, graph_index: int, graph: Graph,
                 embeddings: List[Dict[int, int]]) -> None:
        self.graph_index = graph_index
        self.graph = graph
        self.embeddings = embeddings

    def __repr__(self) -> str:
        return (f"<GraphMatch graph={self.graph.name or self.graph_index} "
                f"embeddings={len(self.embeddings)}>")


class QueryResultSet:
    """Result of one query over a repository."""

    __slots__ = ("matches", "graphs_searched", "graphs_pruned")

    def __init__(self, matches: List[GraphMatch], graphs_searched: int,
                 graphs_pruned: int) -> None:
        self.matches = matches
        self.graphs_searched = graphs_searched
        self.graphs_pruned = graphs_pruned

    def match_count(self) -> int:
        return len(self.matches)

    def embedding_count(self) -> int:
        return sum(len(m.embeddings) for m in self.matches)

    def __repr__(self) -> str:
        return (f"<QueryResultSet graphs={self.match_count()} "
                f"embeddings={self.embedding_count()}>")


class QueryEngine:
    """Query a repository of (small/medium) data graphs."""

    def __init__(self, repository: Sequence[Graph]) -> None:
        self.repository = list(repository)
        # label -> indices of graphs containing >= 1 node with it,
        # built off each graph's interned compact label table (the
        # distinct labels, no per-node multiset materialisation)
        self._label_index: Dict[str, Set[int]] = {}
        for idx, graph in enumerate(self.repository):
            for label in graph.compact().node_labels:
                self._label_index.setdefault(label, set()).add(idx)

    def candidate_graphs(self, query: Graph) -> List[int]:
        """Indices of graphs containing every non-wildcard query label.

        The query's distinct labels are its label index's keys (the
        matcher needs the target's compact view, never the query's).
        Labels intersect rarest-first:
        starting from the smallest posting set keeps every
        intermediate intersection no larger than the rarest label's,
        and a selective query short-circuits to [] the moment the
        running intersection empties instead of scanning its
        remaining (possibly huge) posting sets.
        """
        labels = set(query.label_index())
        labels.discard(WILDCARD)
        if not labels:  # all-wildcard query
            return sorted(range(len(self.repository)))
        # sort by posting-set size, label as tie-break for determinism
        ordered = sorted(labels,
                         key=lambda lab: (len(self._label_index.get(lab,
                                                                    ())),
                                          lab))
        candidates: Set[int] = set(self._label_index.get(ordered[0], ()))
        for label in ordered[1:]:
            if not candidates:
                return []
            candidates &= self._label_index.get(label, set())
        return sorted(candidates)

    def run(self, query: Graph, max_embeddings_per_graph: int = 10,
            max_matches: Optional[int] = None) -> QueryResultSet:
        """Execute a query; returns matches plus pruning statistics."""
        if query.order() == 0:
            raise GraphError("cannot execute an empty query")
        candidates = self.candidate_graphs(query)
        pruned = len(self.repository) - len(candidates)
        matches: List[GraphMatch] = []
        for idx in candidates:
            graph = self.repository[idx]
            embeddings = subgraph_embeddings(
                query, graph, max_results=max_embeddings_per_graph)
            if embeddings:
                matches.append(GraphMatch(idx, graph, embeddings))
                if max_matches is not None and len(matches) >= max_matches:
                    break
        return QueryResultSet(matches, graphs_searched=len(candidates),
                              graphs_pruned=pruned)


class NetworkQueryEngine:
    """Query a single large network."""

    def __init__(self, network: Graph) -> None:
        self.network = network

    def run(self, query: Graph,
            max_embeddings: int = 100) -> List[Dict[int, int]]:
        """Embeddings of the query in the network (capped)."""
        if query.order() == 0:
            raise GraphError("cannot execute an empty query")
        matcher = SubgraphMatcher(query, self.network)
        return list(matcher.iter_embeddings(max_results=max_embeddings))
