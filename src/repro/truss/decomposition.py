"""k-truss decomposition (Wang & Cheng, PVLDB 2012).

The *trussness* of an edge e is the largest k such that e belongs to
the k-truss: the maximal subgraph in which every edge participates in
at least k-2 triangles.  TATTOO uses trussness to split a large
network into a dense, triangle-rich *truss-infested* region (where
triangle-like query topologies live) and a sparse *truss-oblivious*
remainder (chains, stars, trees, large cycles).

:func:`truss_decomposition` peels with a support-indexed bucket queue:
every edge is bucketed by its current support, the scan pointer only
moves forward (supports are clamped at the current peel level, the
standard bin-sort trick from core decomposition), and decremented
edges are re-bucketed with stale entries skipped lazily.  The result
is one pass over the edge set plus O(1) work per support decrement —
no per-level rescans of the remaining edges.  ``tests/oracles.py``
keeps the O(m)-per-level rescan peeler as the equivalence oracle.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.graph.graph import Graph, edge_key
from repro.graph.operations import edge_subgraph
from repro.errors import OptionError

#: edges with trussness >= this belong to the truss-infested region
DEFAULT_TRUSS_THRESHOLD = 3


def edge_support(graph: Graph) -> Dict[Tuple[int, int], int]:
    """Number of triangles each edge participates in.

    Counted over the compact CSR view: per edge, the endpoint slices
    are intersected by scanning the smaller and binary-searching the
    larger (:meth:`repro.graph.compact.CompactGraph.common_neighbors`)
    — no per-edge set materialisation.  Iteration stays in edge
    insertion order, so the support map's order (which seeds the
    peeler's buckets) is unchanged from the dict-based version.
    """
    c = graph.compact()
    position = c.index()
    support: Dict[Tuple[int, int], int] = {}
    for u, v in graph.edges():
        support[edge_key(u, v)] = \
            c.common_neighbors(position[u], position[v])
    return support


def truss_decomposition(graph: Graph) -> Dict[Tuple[int, int], int]:
    """Trussness of every edge, by bucket-queue peeling.

    Edges sit in buckets indexed by current support; the minimum
    bucket is peeled, triangle partners are decremented and
    re-bucketed (clamped at the current level so the scan pointer
    never retreats), and stale bucket entries — left behind by
    decrements — are skipped when popped.  One pass over the edges
    total, with no per-level full rescans.
    """
    support = edge_support(graph)
    if not support:
        return {}
    # mutable adjacency for peeling, seeded from the compact CSR
    # slices (already materialised for edge_support) and converted
    # back to original node ids — the peel loop works on edge keys
    ids = graph.compact().node_ids
    offsets = graph.compact().offsets
    csr_neighbors = graph.compact().neighbors
    adj: Dict[int, Set[int]] = {
        ids[p]: {ids[csr_neighbors[slot]]
                 for slot in range(offsets[p], offsets[p + 1])}
        for p in range(len(ids))}
    max_support = max(support.values())
    buckets: List[List[Tuple[int, int]]] = \
        [[] for _ in range(max_support + 1)]
    for edge, s in support.items():
        buckets[s].append(edge)
    trussness: Dict[Tuple[int, int], int] = {}
    total = len(support)
    level = 0
    while len(trussness) < total:
        bucket = buckets[level]
        if not bucket:
            level += 1
            continue
        edge = bucket.pop()
        if edge in trussness or support[edge] != level:
            continue  # stale entry from an earlier decrement
        u, v = edge
        trussness[edge] = level + 2
        small, big = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
        for w in adj[small] & adj[big]:
            for other in (edge_key(small, w), edge_key(big, w)):
                if other in trussness:
                    continue
                # clamp at the current level: an edge cannot peel
                # below the level that is already being peeled
                new_support = max(support[other] - 1, level)
                support[other] = new_support
                buckets[new_support].append(other)
        adj[u].discard(v)
        adj[v].discard(u)
    return trussness


def max_trussness(graph: Graph) -> int:
    """Largest edge trussness (2 for triangle-free, 0 if no edges)."""
    decomposition = truss_decomposition(graph)
    if not decomposition:
        return 0
    return max(decomposition.values())


def split_by_truss(graph: Graph,
                   threshold: int = DEFAULT_TRUSS_THRESHOLD
                   ) -> Tuple[Graph, Graph]:
    """Split into (truss-infested G_T, truss-oblivious G_O).

    G_T is the edge subgraph of edges with trussness >= ``threshold``
    (every edge in >= threshold-2 triangles within G_T); G_O holds the
    rest.  Node sets may overlap, mirroring TATTOO's decomposition.
    """
    if threshold < 3:
        raise OptionError("truss threshold must be >= 3")
    trussness = truss_decomposition(graph)
    dense = [e for e, k in trussness.items() if k >= threshold]
    sparse = [e for e, k in trussness.items() if k < threshold]
    g_t = edge_subgraph(graph, dense, name=f"{graph.name}:truss")
    g_o = edge_subgraph(graph, sparse, name=f"{graph.name}:oblivious")
    return g_t, g_o


def truss_statistics(graph: Graph) -> Dict[str, float]:
    """Summary statistics of a decomposition (for the E5 experiment)."""
    trussness = truss_decomposition(graph)
    if not trussness:
        return {"edges": 0, "max_trussness": 0, "infested_fraction": 0.0}
    values: List[int] = list(trussness.values())
    infested = sum(1 for k in values if k >= DEFAULT_TRUSS_THRESHOLD)
    return {
        "edges": float(len(values)),
        "max_trussness": float(max(values)),
        "infested_fraction": infested / len(values),
    }
