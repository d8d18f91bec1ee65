"""Rule modules; importing this package registers every rule."""

from reprolint.rules import (  # noqa: F401
    r001_unseeded_rng,
    r002_dependency_hygiene,
    r003_uncapped_enumeration,
    r004_mutable_defaults,
    r005_public_rng,
    r006_except_hygiene,
    r007_centralized_parallelism,
    r008_hot_loop_adjacency,
    r009_stage_span,
    r010_typed_errors,
    r011_cache_invalidation,
    r012_pmap_payload,
    r013_deadline_poll,
    r014_determinism,
    r016_compact_bypass,
    r017_stale_scorer,
    r019_fsync_discipline,
)
