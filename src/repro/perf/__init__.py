"""repro.perf: the shared performance layer.

Every CPU-bound hot path in the library (pairwise similarity, per-
cluster CSG candidate walks, per-topology extraction, coverage
indexing inside greedy selection) routes its parallelism and its
memoization through this package, so the determinism contracts stay
auditable in one place:

* :func:`pmap` — a deterministic parallel map.  Results come back in
  input order, per-item seeds are split from a root seed with
  :func:`derive_seed` (so ``workers=4`` is bit-for-bit identical to
  ``workers=1``), and the process pool degrades gracefully to an
  in-process map whenever it is unavailable.
* :class:`MatchCache` — a bounded LRU cache for subgraph-matching
  results, keyed by ``(pattern canonical code, graph fingerprint)``,
  with hit/miss/eviction counters.  It is *mergeable* across the
  process boundary: ``pmap(..., cache_merge=cache)`` has workers
  record per-item :class:`CacheDelta` access logs (shipped back next
  to trace captures), seeds each worker with the cache's hottest
  entries, and replays the deltas into ``cache`` in input order — so
  hit/miss counters are identical at every worker count and warm
  engine-lifetime caches stay warm inside the pool.

Fault tolerance (``max_retries``/``on_item_failure``/
``item_timeout_s`` on :func:`pmap`) keeps those contracts under
partial failure: a failing item retries with deterministic backoff
(:func:`backoff_s`), escalates to one in-process re-run, and — policy
permitting — is skipped with an :class:`ItemFailure` record occupying
its result slot, so input order survives even when items do not.

Observability moved to :mod:`repro.obs`: ``pmap`` reports dispatch
counters to its metrics registry and ships per-item trace subtrees
back from workers (see :func:`repro.obs.attach_record`), and the
match-cache counters are read through
:func:`repro.obs.matching_snapshot`.

Direct ``multiprocessing``/``concurrent.futures`` imports anywhere
else under ``src/repro`` are rejected by reprolint rule R007.
"""

from repro.perf.cache import (
    CacheDelta,
    MatchCache,
    cached_canonical_code,
    cached_covered_edges,
    cached_is_subgraph,
    clear_match_cache,
    get_match_cache,
    graph_fingerprint,
    reset_vf2_calls,
    swap_match_cache,
    vf2_calls,
)
from repro.matching.isomorphism import reset_kernel_stats
from repro.perf.executor import (
    DEFAULT_CACHE_SEED_LIMIT,
    FAILURE_POLICIES,
    ItemFailure,
    backoff_s,
    derive_seed,
    derive_seeds,
    pmap,
    resolve_workers,
)

__all__ = [
    "CacheDelta",
    "DEFAULT_CACHE_SEED_LIMIT",
    "FAILURE_POLICIES",
    "ItemFailure",
    "MatchCache",
    "backoff_s",
    "cached_canonical_code",
    "cached_covered_edges",
    "cached_is_subgraph",
    "clear_match_cache",
    "derive_seed",
    "derive_seeds",
    "get_match_cache",
    "graph_fingerprint",
    "pmap",
    "reset_kernel_stats",
    "reset_vf2_calls",
    "resolve_workers",
    "swap_match_cache",
    "vf2_calls",
]
