"""CATAPULT: data-driven canned-pattern selection for graph databases."""

from repro.catapult.pipeline import (
    CatapultConfig,
    CatapultResult,
    cluster_repository,
    default_cluster_count,
    generate_all_candidates,
    summarize_clusters,
)
from repro.catapult.random_walk import generate_candidates, walk_candidate

__all__ = [
    "CatapultConfig",
    "CatapultResult",
    "cluster_repository",
    "default_cluster_count",
    "generate_all_candidates",
    "summarize_clusters",
    "generate_candidates",
    "walk_candidate",
]
