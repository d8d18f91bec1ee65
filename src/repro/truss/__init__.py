"""k-truss decomposition substrate for TATTOO."""

from repro.truss.decomposition import (
    DEFAULT_TRUSS_THRESHOLD,
    edge_support,
    max_trussness,
    split_by_truss,
    truss_decomposition,
    truss_statistics,
)

__all__ = [
    "DEFAULT_TRUSS_THRESHOLD",
    "edge_support",
    "max_trussness",
    "split_by_truss",
    "truss_decomposition",
    "truss_statistics",
]
