"""Canonical-code-keyed memoization of subgraph-matching results.

VF2 searches dominate every selection loop: greedy selection, MIDAS
multi-scan swapping, and candidate validation all ask "does pattern p
embed in graph G / which edges of G does p cover" for the same
(p, G) pairs over and over — across rounds, across scans, and across
:class:`repro.patterns.index.CoverageIndex` instances.  The
:class:`MatchCache` memoizes those answers with keys that survive
object churn:

* the *pattern* side of the key is its canonical code, so isomorphic
  patterns (regardless of node numbering or object identity) share
  one entry;
* the *graph* side is a content fingerprint (SHA-256 over the sorted
  node/edge label lists), memoized as a view of the graph, so
  re-sampled or copied graphs with identical content also share.

Entries are bounded (LRU eviction) and instrumented: hits, misses,
evictions, and the number of underlying VF2 invocations are all
observable through :func:`repro.obs.matching_snapshot`.  A cached
value is a function of its key: subgraph tests and canonical codes
do not depend on the pattern's node numbering, and covered-edge sets
are enumerated on the pattern's :func:`~repro.matching.canonical.
canonical_form`, so a set cut short by ``max_embeddings`` is the
same whichever isomorphic pattern asked first.

Merging across workers
----------------------
A process-pool worker has its own global cache, so naively it starts
cold on every run and its hits never flow back.  The cache is
therefore *mergeable*: under :meth:`MatchCache.recording` every
logical cache access appends one entry to a :class:`CacheDelta` — a
hit logs ``(key, value)`` at lookup, a miss logs ``(key, value)``
when the computed result is stored — while the local counters stay
untouched.  The coordinator replays deltas in work-item input order
with :meth:`MatchCache.merge_delta`: a logged key already present
counts as a hit, an absent one counts as a miss and inserts the
shipped value.  Replay is exactly the access sequence a serial run
would perform, so hit/miss counts are identical at every worker
count — the invariance ``benchmarks/bench_runner.py`` gates on.

The protocol is sound because each ``cached_*`` helper performs no
nested cache access between a missed lookup and its store: one
logical access, one log entry, whatever the recording cache already
contained.  Keep it that way when adding helpers.

:func:`repro.perf.pmap` drives both ends for the process cache
(:func:`get_match_cache`, the only one the library uses): workers are
seeded at startup with its :meth:`MatchCache.hot_entries` (so answers
earlier runs left in it keep paying off inside the pool), record one
delta per item and ship it next to the item's trace capture.  Items
``pmap`` runs in-process need no protocol at all: they read and count
against the process cache directly.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import OptionError
from repro.graph.graph import Graph
from repro.matching.canonical import canonical_code, canonical_form
from repro.matching.isomorphism import covered_edges, find_embedding
from repro.obs import metrics
from repro.resilience.chaos import site as chaos_site

EdgeSet = FrozenSet[Tuple[int, int]]

#: Default entry bound for the process-global cache.
DEFAULT_MAX_ENTRIES = 50_000

#: backslash-escapes for labels inside a fingerprint record, so no
#: label can spell the record terminator ``;``
_FINGERPRINT_ESCAPES = str.maketrans({"\\": "\\\\", ";": "\\;"})


def _compute_fingerprint(graph: Graph) -> str:
    digest = hashlib.sha256()
    for node in sorted(graph.nodes()):
        label = graph.node_label(node).translate(_FINGERPRINT_ESCAPES)
        digest.update(f"n{node}:{label};".encode())
    for u, v in sorted(graph.edges()):
        label = graph.edge_label(u, v).translate(_FINGERPRINT_ESCAPES)
        digest.update(f"e{u},{v}:{label};".encode())
    return digest.hexdigest()


def graph_fingerprint(graph: Graph) -> str:
    """Content fingerprint of a graph (equal iff same labeled content).

    Memoized as the graph's ``"fingerprint"``
    :meth:`~repro.graph.graph.Graph.view`, so repeated lookups
    against large networks cost O(1) until the graph is modified in
    place (at which point the view goes stale with the others).
    Note this is *not* isomorphism-invariant (node ids participate) —
    the isomorphism-invariant key is the pattern-side canonical code.
    """
    return graph.view("fingerprint", _compute_fingerprint)


class CacheDelta:
    """Ordered, picklable log of one work item's cache accesses.

    One entry per logical access (see the module docstring's merge
    protocol): replaying the entries against the coordinator's cache
    reproduces the exact hit/miss sequence a serial run would have
    seen.  Ships back from pool workers next to trace captures.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[List[Tuple[Tuple, object]]] = None
                 ) -> None:
        self.entries: List[Tuple[Tuple, object]] = \
            [] if entries is None else entries

    def record(self, key: Tuple, value: object) -> None:
        self.entries.append((key, value))

    def __len__(self) -> int:
        return len(self.entries)

    def __getstate__(self):
        return self.entries

    def __setstate__(self, entries) -> None:
        self.entries = entries

    def __repr__(self) -> str:
        return f"<CacheDelta accesses={len(self.entries)}>"


class MatchCache:
    """Bounded LRU cache for match results with hit/miss counters;
    each operation holds the cache's one lock (threads share it)."""

    __slots__ = ("max_entries", "_entries", "hits", "misses", "evictions",
                 "_recorder", "_lock")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise OptionError("cache needs room for at least one entry")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # active CacheDelta while inside recording(); counters are
        # suspended then — the coordinator's replay does the counting
        self._recorder: Optional[CacheDelta] = None
        self._lock = threading.Lock()

    def lookup(self, key: Tuple) -> Tuple[bool, object]:
        """(found, value); found misses are counted."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                if self._recorder is not None:
                    self._recorder.record(key, self._entries[key])
                else:
                    self.hits += 1
                return True, self._entries[key]
            if self._recorder is None:
                self.misses += 1
            return False, None

    def store(self, key: Tuple, value: object) -> None:
        with self._lock:
            recorder = self._recorder
            if recorder is not None:
                recorder.record(key, value)
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                if recorder is None:
                    self.evictions += 1

    @contextmanager
    def recording(self, delta: CacheDelta) -> Iterator[CacheDelta]:
        """Log every access into ``delta``, counters suspended.

        Accesses still read and warm this cache (a worker reuses its
        own results across the items it processes); only the
        *accounting* is deferred to :meth:`merge_delta` replay on the
        coordinator, which is what keeps hit rates worker-count
        invariant.
        """
        previous = self._recorder
        self._recorder = delta
        try:
            yield delta
        finally:
            self._recorder = previous

    def merge_delta(self, delta: CacheDelta) -> Dict[str, int]:
        """Replay a worker's access log against this cache.

        Call in work-item input order.  A logged key that is already
        present counts as a hit (whatever the worker locally saw); an
        absent key counts as a miss and adopts the shipped value.
        Returns the hit/miss counts this delta contributed.
        """
        entries = self._entries
        hits = misses = 0
        with self._lock:
            for key, value in delta.entries:
                if key in entries:
                    entries.move_to_end(key)
                    hits += 1
                else:
                    entries[key] = value
                    misses += 1
                    while len(entries) > self.max_entries:
                        entries.popitem(last=False)
                        self.evictions += 1
            self.hits += hits
            self.misses += misses
        return {"hits": hits, "misses": misses}

    def hot_entries(self, limit: Optional[int] = None
                    ) -> List[Tuple[Tuple, object]]:
        """Most-recently-used ``(key, value)`` pairs, LRU-first.

        The snapshot pool workers are seeded with: bounded by
        ``limit`` (None = everything), ordered so that feeding it to
        :meth:`seed` reproduces this cache's recency order.
        """
        with self._lock:
            items = list(self._entries.items())
        if limit is not None and len(items) > limit:
            items = items[len(items) - limit:]
        return items

    def seed(self, pairs: List[Tuple[Tuple, object]]) -> None:
        """Silently adopt ``pairs`` (no counter movement).

        Used to warm a worker's cache from the coordinator's hot
        snapshot before any item runs; seeded entries change compute
        cost only, never the merged hit/miss accounting.
        """
        entries = self._entries
        with self._lock:
            for key, value in pairs:
                entries[key] = value
                entries.move_to_end(key)
            while len(entries) > self.max_entries:
                entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> Dict[str, float]:
        """Counters plus occupancy; ``hit_rate`` in [0, 1]."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def __repr__(self) -> str:
        return (f"<MatchCache entries={len(self._entries)} "
                f"hits={self.hits} misses={self.misses}>")


_global_cache = MatchCache()


def _fresh_lock_in_child() -> None:
    # fork copies the lock in whatever state another thread left it;
    # held, the child's only thread would wait on it forever
    _global_cache._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_in_child)


def get_match_cache() -> MatchCache:
    """The process's match cache, the one every ``cached_*`` helper
    uses (in a pool worker, the worker's own, which records into the
    item's :class:`CacheDelta`)."""
    return _global_cache


def cached_covered_edges(pattern: Graph, target: Graph,
                         pattern_code: Optional[str] = None,
                         max_embeddings: Optional[int] = 200) -> EdgeSet:
    """Memoized :func:`repro.matching.isomorphism.covered_edges`.

    ``pattern_code`` (the pattern's canonical code) is computed when
    not supplied; callers holding a :class:`repro.patterns.base.
    Pattern` should pass ``pattern.code`` to avoid recomputing it.
    A miss enumerates on the pattern's canonical form (kept as its
    ``"canonical_form"`` view), which every isomorphic pattern
    shares, so the capped answer depends only on the cache key.
    """
    if pattern_code is None:
        pattern_code = cached_canonical_code(pattern)
    cache = get_match_cache()
    key = ("cov", pattern_code, graph_fingerprint(target), max_embeddings)
    found, value = cache.lookup(key)
    if found:
        return value  # type: ignore[return-value]
    metrics.inc("matching.vf2_calls")
    result = frozenset(covered_edges(
        pattern.view("canonical_form", canonical_form), target,
        max_embeddings=max_embeddings))
    cache.store(key, result)
    return result


def cached_is_subgraph(pattern: Graph, target: Graph,
                       pattern_code: Optional[str] = None,
                       induced: bool = False) -> bool:
    """Memoized :func:`repro.matching.isomorphism.is_subgraph`.

    Carries the same ``"matching.is_subgraph"`` chaos-injection site
    as the raw entry point (fired before any cache access, so a
    scripted fault behaves identically warm or cold): validation
    loops can switch between the raw and cached matcher without
    changing their fault-injection surface.
    """
    chaos_site("matching.is_subgraph")
    if pattern_code is None:
        pattern_code = cached_canonical_code(pattern)
    cache = get_match_cache()
    key = ("sub", pattern_code, graph_fingerprint(target), induced)
    found, value = cache.lookup(key)
    if found:
        return bool(value)
    metrics.inc("matching.vf2_calls")
    result = find_embedding(pattern, target, induced=induced) is not None
    cache.store(key, result)
    return result


def cached_canonical_code(graph: Graph) -> str:
    """Memoized :func:`repro.matching.canonical.canonical_code`.

    Keyed by the content fingerprint: identical re-sampled subgraphs
    (common in walk/extraction dedup loops) skip the backtracking
    search entirely; isomorphic-but-renumbered graphs still go through
    it once each, after which their shared code unifies the rest of
    the cache.
    """
    cache = get_match_cache()
    key = ("canon", graph_fingerprint(graph))
    found, value = cache.lookup(key)
    if found:
        return str(value)
    code = canonical_code(graph)
    cache.store(key, code)
    return code
