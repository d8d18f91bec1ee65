"""TATTOO: canned-pattern selection for large networks."""

from repro.tattoo.candidates import (
    EXTRACTORS,
    extract_chains,
    extract_cliques,
    extract_cycles,
    extract_flowers,
    extract_petals,
    extract_stars,
    extract_trees,
)
from repro.tattoo.distributed import (
    DistributedResult,
    WorkerReport,
    partition_network,
    partition_with_halo,
    select_patterns_distributed,
)
from repro.tattoo.maintenance import (
    NetworkMaintainer,
    NetworkMaintenanceConfig,
    NetworkMaintenanceReport,
    NetworkUpdate,
)
from repro.tattoo.pipeline import (
    TattooConfig,
    TattooResult,
    extract_candidates,
)

__all__ = [
    "EXTRACTORS",
    "DistributedResult",
    "WorkerReport",
    "partition_network",
    "partition_with_halo",
    "select_patterns_distributed",
    "NetworkMaintainer",
    "NetworkMaintenanceConfig",
    "NetworkMaintenanceReport",
    "NetworkUpdate",
    "extract_chains",
    "extract_cliques",
    "extract_cycles",
    "extract_flowers",
    "extract_petals",
    "extract_stars",
    "extract_trees",
    "TattooConfig",
    "TattooResult",
    "extract_candidates",
]
