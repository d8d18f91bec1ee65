"""Topology classification of patterns.

TATTOO sidesteps the lack of public graph query logs by classifying
candidate patterns into the topology classes that Bonifati et al.'s
analysis of large SPARQL query logs found in real queries: chains,
stars, trees, cycles/triangles, petals, flowers, and denser
"flower-set"-like shapes.  This module implements the classifier and
the class taxonomy shared by the candidate extractors and the
workload generator.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Set

from repro.graph.graph import Graph
from repro.graph.operations import (
    is_clique,
    is_connected,
    is_cycle_graph,
    is_path_graph,
    is_star,
    is_tree,
)


class TopologyClass(str, Enum):
    """Topology classes of real-world graph queries (Bonifati et al.)."""

    SINGLETON = "singleton"   # one node, no edges
    CHAIN = "chain"           # simple path
    STAR = "star"             # one hub, leaves
    TREE = "tree"             # other acyclic shapes
    TRIANGLE = "triangle"     # C3 = K3
    CYCLE = "cycle"           # Cn, n >= 4
    PETAL = "petal"           # >= 2 disjoint paths between two anchors
    FLOWER = "flower"         # cycles sharing exactly one hub node
    CLIQUE = "clique"         # Kn, n >= 4
    GENERAL = "general"       # everything else (cyclic, non-special)

    def is_acyclic(self) -> bool:
        return self in (TopologyClass.SINGLETON, TopologyClass.CHAIN,
                        TopologyClass.STAR, TopologyClass.TREE)


def _is_petal(graph: Graph) -> bool:
    """Petal: two anchor nodes joined by >= 2 internally-disjoint paths
    (circuit rank >= 1), every non-anchor node of degree 2."""
    if graph.order() < 3 or not is_connected(graph):
        return False
    rank = graph.size() - graph.order() + 1
    if rank < 1:
        return False
    anchors = [v for v in graph.nodes() if graph.degree(v) != 2]
    if len(anchors) != 2:
        return False
    a, b = anchors
    if graph.degree(a) != graph.degree(b) or graph.degree(a) < 3:
        return False
    # removing the anchors must leave only paths (all degree <= 2 holds
    # by construction); additionally every remaining component must be
    # attached to both anchors, which the degree conditions imply when
    # rank == degree(anchor) - 1.
    return rank == graph.degree(a) - 1


def _is_flower(graph: Graph) -> bool:
    """Flower: >= 2 cycles sharing exactly one hub node."""
    if graph.order() < 5 or not is_connected(graph):
        return False
    hubs = [v for v in graph.nodes() if graph.degree(v) != 2]
    if len(hubs) != 1:
        return False
    hub = hubs[0]
    degree = graph.degree(hub)
    if degree < 4 or degree % 2 != 0:
        return False
    # circuit rank must equal the number of petal cycles
    rank = graph.size() - graph.order() + 1
    return rank == degree // 2


def classify_topology(graph: Graph) -> TopologyClass:
    """Classify a connected pattern into its topology class.

    Tie-breaking precedence (most specific first): singleton, chain,
    star, tree; triangle, clique, cycle, petal, flower; general.
    P3 counts as a chain even though it is also a 2-leaf star.
    """
    if graph.order() == 1:
        return TopologyClass.SINGLETON
    if is_tree(graph):
        if is_path_graph(graph):
            return TopologyClass.CHAIN
        if is_star(graph):
            return TopologyClass.STAR
        return TopologyClass.TREE
    if graph.order() == 3 and graph.size() == 3:
        return TopologyClass.TRIANGLE
    if is_clique(graph):
        return TopologyClass.CLIQUE
    if is_cycle_graph(graph):
        return TopologyClass.CYCLE
    if _is_petal(graph):
        return TopologyClass.PETAL
    if _is_flower(graph):
        return TopologyClass.FLOWER
    return TopologyClass.GENERAL


def topology_histogram(graphs: List[Graph]) -> Dict[TopologyClass, int]:
    """Count topology classes over a list of (connected) graphs."""
    histogram: Dict[TopologyClass, int] = {}
    for graph in graphs:
        cls = classify_topology(graph)
        histogram[cls] = histogram.get(cls, 0) + 1
    return histogram


#: Topology mix of real query logs (approximate shares distilled from
#: Bonifati et al.'s SPARQL log analysis: acyclic shapes dominate,
#: cycles/petals/flowers form a small but systematic tail).
QUERY_LOG_TOPOLOGY_MIX: Dict[TopologyClass, float] = {
    TopologyClass.CHAIN: 0.38,
    TopologyClass.STAR: 0.28,
    TopologyClass.TREE: 0.16,
    TopologyClass.TRIANGLE: 0.06,
    TopologyClass.CYCLE: 0.05,
    TopologyClass.PETAL: 0.04,
    TopologyClass.FLOWER: 0.02,
    TopologyClass.CLIQUE: 0.01,
}


def triangle_like_classes() -> Set[TopologyClass]:
    """Classes extracted from the truss-infested region in TATTOO."""
    return {TopologyClass.TRIANGLE, TopologyClass.CLIQUE,
            TopologyClass.FLOWER, TopologyClass.PETAL}


def non_triangle_classes() -> Set[TopologyClass]:
    """Classes extracted from the truss-oblivious region in TATTOO."""
    return {TopologyClass.CHAIN, TopologyClass.STAR, TopologyClass.TREE,
            TopologyClass.CYCLE}
