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
  with hit/miss/eviction counters.  The process has one,
  :func:`get_match_cache`, and every pipeline and MIDAS engine uses
  it.  ``pmap`` makes it *mergeable* across the process boundary:
  pool workers are seeded with its hottest entries and record each
  item's accesses into a :class:`CacheDelta` (shipped back next to
  the trace capture) that is replayed into it in input order — so
  hit/miss counters are identical at every worker count and a warm
  cache stays warm inside the pool.

Fault tolerance (``max_retries``/``on_item_failure``/
``item_timeout_s`` on :func:`pmap`) keeps those contracts under
partial failure: a failing item retries with deterministic backoff
(:func:`backoff_s`), gets one in-process re-run, and then either
raises its own exception or — policy ``"skip"`` — is skipped with an
:class:`ItemFailure` record occupying its result slot, so input order
survives even when items do not.

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
    get_match_cache,
    graph_fingerprint,
)
from repro.perf.executor import (
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
    "FAILURE_POLICIES",
    "ItemFailure",
    "MatchCache",
    "backoff_s",
    "cached_canonical_code",
    "cached_covered_edges",
    "cached_is_subgraph",
    "derive_seed",
    "derive_seeds",
    "get_match_cache",
    "graph_fingerprint",
    "pmap",
    "resolve_workers",
]
