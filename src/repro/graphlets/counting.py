"""Exact connected 3-/4-node graphlet counting via the ESU algorithm.

ESU (Wernicke 2006) enumerates every connected *induced* k-node
subgraph exactly once, so counting is linear in the number of
graphlet occurrences rather than in C(n, k).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

import math

from repro.graph.graph import Graph

#: canonical ordering of the 8 connected 3-/4-node graphlet types
GRAPHLET_KEYS: Tuple[str, ...] = (
    "g3_path",      # P3
    "g3_triangle",  # K3
    "g4_path",      # P4
    "g4_star",      # S3 (claw)
    "g4_cycle",     # C4
    "g4_tailed",    # paw: triangle + pendant edge
    "g4_diamond",   # K4 minus an edge
    "g4_clique",    # K4
)


def _enumerate_connected_subsets(graph: Graph, k: int
                                 ) -> Iterator[FrozenSet[int]]:
    """ESU enumeration of connected induced k-node subsets."""

    def extend(subgraph: List[int], extension: Set[int], v: int
               ) -> Iterator[FrozenSet[int]]:
        if len(subgraph) == k:
            yield frozenset(subgraph)
            return
        ext = set(extension)
        while ext:
            w = ext.pop()
            # new extension: exclusive neighbors of w greater than v
            new_ext = set(ext)
            in_subgraph = set(subgraph)
            nbrs_of_sub = {x for u in subgraph for x in graph.neighbors(u)}
            for u in graph.neighbors(w):
                if u > v and u not in in_subgraph and u not in nbrs_of_sub:
                    new_ext.add(u)
            subgraph.append(w)
            yield from extend(subgraph, new_ext, v)
            subgraph.pop()

    for v in sorted(graph.nodes()):
        extension = {u for u in graph.neighbors(v) if u > v}
        yield from extend([v], extension, v)


def _classify_3(graph: Graph, nodes: Sequence[int]) -> str:
    a, b, c = nodes
    m = (graph.has_edge(a, b) + graph.has_edge(a, c)
         + graph.has_edge(b, c))
    return "g3_triangle" if m == 3 else "g3_path"


def _classify_4(graph: Graph, nodes: Sequence[int]) -> str:
    m = 0
    degrees = [0, 0, 0, 0]
    for i in range(4):
        for j in range(i + 1, 4):
            if graph.has_edge(nodes[i], nodes[j]):
                m += 1
                degrees[i] += 1
                degrees[j] += 1
    if m == 3:
        return "g4_star" if max(degrees) == 3 else "g4_path"
    if m == 4:
        return "g4_tailed" if max(degrees) == 3 else "g4_cycle"
    if m == 5:
        return "g4_diamond"
    return "g4_clique"  # m == 6 (ESU guarantees connectivity => m >= 3)


def count_graphlets(graph: Graph) -> Dict[str, int]:
    """Exact counts of every connected 3-/4-node induced graphlet."""
    counts: Dict[str, int] = {key: 0 for key in GRAPHLET_KEYS}
    for subset in _enumerate_connected_subsets(graph, 3):
        counts[_classify_3(graph, tuple(subset))] += 1
    for subset in _enumerate_connected_subsets(graph, 4):
        counts[_classify_4(graph, tuple(subset))] += 1
    return counts


def graphlet_frequency_distribution(graph: Graph) -> Dict[str, float]:
    """Counts normalised to frequencies (all-zero for tiny graphs)."""
    counts = count_graphlets(graph)
    total = sum(counts.values())
    if total == 0:
        return {key: 0.0 for key in GRAPHLET_KEYS}
    return {key: counts[key] / total for key in GRAPHLET_KEYS}


def repository_gfd(repository: Sequence[Graph]) -> Dict[str, float]:
    """GFD of a repository: pooled graphlet counts over all graphs.

    Pooling (rather than averaging per-graph frequencies) makes the
    distribution stable when graph sizes vary, which is what MIDAS's
    drift test needs.
    """
    totals: Dict[str, int] = {key: 0 for key in GRAPHLET_KEYS}
    for graph in repository:
        for key, value in count_graphlets(graph).items():
            totals[key] += value
    grand = sum(totals.values())
    if grand == 0:
        return {key: 0.0 for key in GRAPHLET_KEYS}
    return {key: totals[key] / grand for key in GRAPHLET_KEYS}


def gfd_distance(gfd1: Dict[str, float], gfd2: Dict[str, float]) -> float:
    """Euclidean distance between two graphlet frequency distributions.

    This is the drift measure MIDAS thresholds to classify a batch of
    updates as a minor or major modification.  The squares are summed
    in sorted key order: a set's order changes with the process's
    string hash seed, and so would the sum's last bits.
    """
    keys = sorted(set(gfd1) | set(gfd2))
    return math.sqrt(sum((gfd1.get(k, 0.0) - gfd2.get(k, 0.0)) ** 2
                         for k in keys))
