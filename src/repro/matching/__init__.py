"""Subgraph matching: VF2-style embedding search and canonical codes."""

from repro.matching.canonical import (
    canonical_code,
    canonical_form,
)
from repro.matching.edit_distance import (
    MAX_EXACT_NODES,
    ged_similarity,
    graph_edit_distance,
)
from repro.matching.isomorphism import (
    WILDCARD,
    SubgraphMatcher,
    are_isomorphic,
    count_embeddings,
    covered_edges,
    find_embedding,
    is_subgraph,
    labels_compatible,
    subgraph_embeddings,
)

__all__ = [
    "WILDCARD",
    "SubgraphMatcher",
    "are_isomorphic",
    "canonical_code",
    "canonical_form",
    "MAX_EXACT_NODES",
    "ged_similarity",
    "graph_edit_distance",
    "count_embeddings",
    "covered_edges",
    "find_embedding",
    "is_subgraph",
    "labels_compatible",
    "subgraph_embeddings",
]
