"""Coverage indices for pattern selection and maintenance.

Selection loops evaluate set coverage thousands of times; doing a
subgraph-isomorphism search each time would dwarf everything else.
The :class:`CoverageIndex` precomputes, per (pattern, graph) pair,
the set of graph edges the pattern's embeddings cover, after which
set-coverage queries are cheap set unions.

MIDAS additionally uses the two pruning structures the paper
mentions: a pattern -> covered-graphs inverted index and a coverage
upper bound per pattern (its solo coverage, which upper-bounds any
marginal gain it can contribute).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, \
    Set, Tuple

from repro.graph.graph import Graph
from repro.matching.isomorphism import WILDCARD
from repro.obs import metrics
from repro.patterns.base import Pattern
from repro.perf.cache import MatchCache, cached_covered_edges, \
    get_match_cache
from repro.perf.executor import ItemFailure, failure_policy, pmap, \
    resolve_workers
from repro.resilience.deadline import Deadline

EdgeSet = FrozenSet[Tuple[int, int]]

#: Shared read-only default bucket for :meth:`CoverageIndex.marginal_gain`
#: lookups into graphs no committed pattern covers yet.
_EMPTY_BUCKET: Dict[Tuple[int, int], float] = {}


def _required_labels(graph: Graph) -> FrozenSet[str]:
    """Non-wildcard node labels a pattern needs its host to carry."""
    return frozenset(label for label in graph.compact().node_labels
                     if label != WILDCARD)


def _index_pattern(code: str, pattern_graph: Graph,
                   graphs: Sequence[Graph],
                   graph_labels: Sequence[FrozenSet[str]],
                   max_embeddings: int,
                   cache: Optional[MatchCache]) -> Dict[int, EdgeSet]:
    """Covered edges of one pattern per graph index, counting the
    pairs matched and pruned in the registry where it runs (see
    :meth:`CoverageIndex.add_pattern`)."""
    required = _required_labels(pattern_graph)
    entry: Dict[int, EdgeSet] = {}
    pairs = pruned = 0
    for idx, graph in enumerate(graphs):
        if pattern_graph.order() > graph.order():
            continue
        if not required <= graph_labels[idx]:
            pruned += 1
            continue
        covered = cached_covered_edges(
            pattern_graph, graph, pattern_code=code,
            max_embeddings=max_embeddings, cache=cache)
        pairs += 1
        if covered:
            entry[idx] = covered
    metrics.inc("patterns.coverage.patterns_indexed")
    metrics.inc("patterns.coverage.pairs", pairs)
    metrics.inc("patterns.coverage.pairs_pruned", pruned)
    return entry


def _coverage_chunk_task(payload):
    """Index one chunk of patterns (module-level: runs in workers).

    ``payload`` is ``(graphs, [(code, pattern_graph), ...],
    max_embeddings, use_cache)``; returns one ``(code, {graph_index:
    covered_edges})`` pair per pattern.  Workers use their
    process-global cache so accesses are recorded into the item's
    delta when the coordinating ``pmap`` runs in merge mode.
    """
    graphs, chunk, max_embeddings, use_cache = payload
    cache = get_match_cache() if use_cache else None
    graph_labels = [graph.compact().label_set() for graph in graphs]
    return [(code, _index_pattern(code, pattern_graph, graphs,
                                  graph_labels, max_embeddings, cache))
            for code, pattern_graph in chunk]


class CoverageIndex:
    """Covered-edge sets of patterns over a (sample of a) repository.

    Parameters
    ----------
    graphs:
        The evaluation graphs (typically a repository sample or the
        cluster representatives).
    max_embeddings:
        Cap on embeddings enumerated per (pattern, graph) pair.
    cache:
        A :class:`repro.perf.MatchCache` memoizing covered-edge sets
        across index instances (MIDAS builds a fresh index per batch;
        TATTOO per scan) — keyed by canonical code + graph content,
        so the answers are identical with or without it.  Defaults to
        the process-global cache; pass ``use_cache=False`` to opt out.
    """

    def __init__(self, graphs: Sequence[Graph],
                 max_embeddings: int = 50,
                 size_utility: bool = False,
                 cache: Optional[MatchCache] = None,
                 use_cache: bool = True) -> None:
        self.graphs: List[Graph] = list(graphs)
        self.max_embeddings = max_embeddings
        self.size_utility = size_utility
        self.total_edges = sum(g.size() for g in self.graphs)
        self._cache: Optional[MatchCache] = None
        if use_cache:
            self._cache = cache if cache is not None else get_match_cache()
        # interned label table per graph, straight off the compact
        # view — the per-pair pruning test is then a subset check
        # instead of a per-call label-set rebuild
        self._graph_labels: List[FrozenSet[str]] = \
            [graph.compact().label_set() for graph in self.graphs]
        # pattern code -> {graph index -> covered edge set}
        self._cover: Dict[str, Dict[int, EdgeSet]] = {}
        self._utility: Dict[str, float] = {}

    def _pattern_utility(self, pattern: Pattern) -> float:
        """Formulation utility of a pattern, in (0, 1].

        With ``size_utility`` enabled, an edge covered by a larger
        pattern counts more (``m / (m + 2)``): reconstructing that
        region from the pattern saves more user gestures.  This is
        the size preference in CATAPULT's pattern score.  Disabled,
        every pattern weighs 1 (plain edge coverage).
        """
        if not self.size_utility:
            return 1.0
        if pattern.code not in self._utility:
            m = pattern.size()
            self._utility[pattern.code] = m / (m + 2.0)
        return self._utility[pattern.code]

    # -- building -------------------------------------------------------
    def add_pattern(self, pattern: Pattern) -> None:
        """Index one pattern (idempotent).

        Pairs are pruned through the compact label tables before any
        matching: a host graph whose interned label table lacks a
        non-wildcard label of the pattern provably has an empty
        covered-edge set, so its VF2 search (and cache access) is
        skipped outright.  Skipped pairs are counted in the
        ``patterns.coverage.pairs_pruned`` metric — the VF2-call
        delta the obs snapshot reports.
        """
        if pattern.code in self._cover:
            return
        self._cover[pattern.code] = _index_pattern(
            pattern.code, pattern.graph, self.graphs, self._graph_labels,
            self.max_embeddings, self._cache)

    def add_patterns(self, patterns: Iterable[Pattern],
                     workers: Optional[int] = None,
                     deadline: Optional[Deadline] = None) -> None:
        """Index many patterns, optionally fanning out over a pool.

        With ``workers`` > 1 the not-yet-indexed patterns are chunked
        and dispatched through :func:`repro.perf.pmap` in cache-merge
        mode against this index's cache: each worker records its
        covered-edge computations as a cache delta, the coordinator
        replays them in input order, and the resulting ``_cover``
        entries (and cache counters) are identical to the serial
        loop's at every worker count.  Selection loops call this as a
        pre-indexing pass so their on-demand :meth:`cover_of` lookups
        all hit.

        Under an expired ``deadline`` remaining patterns are left
        unindexed (they lazily index on first use); a failed chunk
        falls back to the serial path for its patterns.
        """
        pending = [p for p in patterns if p.code not in self._cover]
        if not pending:
            return
        worker_count = resolve_workers(workers)
        if worker_count <= 1 or len(pending) < 2:
            for pattern in pending:
                self.add_pattern(pattern)
            return
        chunk_size = max(1, -(-len(pending) // (worker_count * 2)))
        chunks = [pending[at:at + chunk_size]
                  for at in range(0, len(pending), chunk_size)]
        deadline = deadline or Deadline(None)
        payloads = []
        for chunk in chunks:
            payloads.append((self.graphs,
                             [(p.code, p.graph) for p in chunk],
                             self.max_embeddings,
                             self._cache is not None))
        policy = failure_policy(0, deadline.seconds)
        wave = (len(payloads) if deadline.seconds is None
                else max(1, worker_count))
        for start in range(0, len(payloads), wave):
            if start and deadline.check("patterns.coverage"):
                break
            batch = pmap(_coverage_chunk_task,
                         payloads[start:start + wave],
                         workers=worker_count,
                         on_item_failure=policy,
                         site="patterns.coverage",
                         cache_merge=self._cache)
            for offset, outcome in enumerate(batch):
                if isinstance(outcome, ItemFailure):
                    # chunk lost to a fault: recompute serially
                    for pattern in chunks[start + offset]:
                        self.add_pattern(pattern)
                    continue
                self._cover.update(outcome)

    def is_indexed(self, pattern: Pattern) -> bool:
        return pattern.code in self._cover

    def seed_cover(self, pattern: Pattern,
                   cover: Dict[int, EdgeSet]) -> None:
        """Install a precomputed covered-edge map for ``pattern``.

        Scale benchmarks and tests use this to exercise selection at
        repository sizes where running the matcher for every
        (pattern, graph) pair is beside the point; a seeded entry is
        indistinguishable from an indexed one (idempotent, like
        :meth:`add_pattern`: an existing entry wins).
        """
        if pattern.code in self._cover:
            return
        self._cover[pattern.code] = {idx: frozenset(edges)
                                     for idx, edges in cover.items()}
        metrics.inc("patterns.coverage.patterns_indexed")

    # -- queries ----------------------------------------------------------
    def cover_of(self, pattern: Pattern) -> Dict[int, EdgeSet]:
        """Per-graph covered edges of one pattern (indexes on demand)."""
        if pattern.code not in self._cover:
            self.add_pattern(pattern)
        return self._cover[pattern.code]

    def covered_graphs(self, pattern: Pattern) -> Set[int]:
        """Inverted index: which graphs the pattern covers (>= 1 edge)."""
        return set(self.cover_of(pattern))

    def solo_coverage(self, pattern: Pattern) -> float:
        """Edge coverage the pattern achieves alone — an upper bound on
        the marginal coverage it can add to any set (submodularity)."""
        if self.total_edges == 0:
            return 0.0
        utility = self._pattern_utility(pattern)
        covered = sum(len(edges) for edges in self.cover_of(pattern).values())
        return utility * covered / self.total_edges

    def _edge_values(self, patterns: Sequence[Pattern]
                     ) -> Dict[int, Dict[Tuple[int, int], float]]:
        """Per covered edge, the best utility among covering patterns."""
        values: Dict[int, Dict[Tuple[int, int], float]] = {}
        for pattern in patterns:
            utility = self._pattern_utility(pattern)
            for idx, edges in self.cover_of(pattern).items():
                bucket = values.setdefault(idx, {})
                for edge in edges:
                    if utility > bucket.get(edge, 0.0):
                        bucket[edge] = utility
        return values

    def set_coverage(self, patterns: Sequence[Pattern]) -> float:
        """(Utility-weighted) edge coverage of a pattern set.

        With ``size_utility`` off this is exactly
        ``|covered edges| / |all edges|``; with it on, each covered
        edge contributes the best utility of the patterns covering it
        (a weighted max-coverage objective — still monotone and
        submodular, so the greedy guarantee is unaffected).
        """
        if self.total_edges == 0 or not patterns:
            return 0.0
        values = self._edge_values(patterns)
        covered = sum(sum(bucket.values()) for bucket in values.values())
        return covered / self.total_edges

    def marginal_coverage(self, pattern: Pattern,
                          selected: Sequence[Pattern]) -> float:
        """Coverage gain of adding ``pattern`` to ``selected``."""
        if self.total_edges == 0:
            return 0.0
        base = self._edge_values(selected)
        utility = self._pattern_utility(pattern)
        gain = 0.0
        for idx, edges in self.cover_of(pattern).items():
            bucket = base.get(idx, {})
            for edge in edges:
                gain += max(0.0, utility - bucket.get(edge, 0.0))
        return gain / self.total_edges

    # -- incremental folds (SetScorer's commit path) ---------------------
    #
    # The three methods below share one floating-point contract: a
    # pattern's *raw gain* over a per-edge best-utility map is always
    # folded from 0.0 over the same edges in the same order, with the
    # same ``max(0.0, utility - best)`` term per edge.  ``SetScorer``
    # builds both its oracle ``score()`` and its incremental
    # ``marginal_score()``/``commit()`` out of these folds, which is
    # what makes the lazy sweep byte-identical to the naive one (see
    # DESIGN.md, "Selection").

    def solo_gain(self, pattern: Pattern) -> float:
        """Raw utility gain of ``pattern`` over an empty set.

        Bitwise equal to ``marginal_gain(pattern, {})`` and, by the
        per-edge monotonicity of the fold, an upper bound on the gain
        against *any* committed state — the CELF heap's initial stale
        bound (the fp-exact form of :meth:`solo_coverage`).
        """
        return self.marginal_gain(pattern, {})

    def marginal_gain(self, pattern: Pattern,
                      edge_best: Dict[int, Dict[Tuple[int, int], float]]
                      ) -> float:
        """Raw (unnormalised) utility gain of ``pattern`` over a
        per-edge best-utility map, without modifying the map."""
        utility = self._pattern_utility(pattern)
        gain = 0.0
        for idx, edges in self.cover_of(pattern).items():
            bucket = edge_best.get(idx, _EMPTY_BUCKET)
            for edge in edges:
                best = bucket.get(edge, 0.0)
                gain += max(0.0, utility - best)
        return gain

    def apply_gain(self, pattern: Pattern,
                   edge_best: Dict[int, Dict[Tuple[int, int], float]],
                   undo: Optional[List[Tuple[int, Tuple[int, int],
                                             Optional[float]]]] = None
                   ) -> float:
        """Fold ``pattern`` into ``edge_best`` in place.

        Returns the same gain as :meth:`marginal_gain` (bit for bit:
        identical fold, identical term order) while raising the map's
        per-edge best utilities.  ``undo``, when given, records every
        overwrite as ``(graph_idx, edge, previous_or_None)`` so
        :meth:`SetScorer.rollback` can restore the map exactly.
        """
        utility = self._pattern_utility(pattern)
        gain = 0.0
        for idx, edges in self.cover_of(pattern).items():
            bucket = edge_best.get(idx)
            if bucket is None:
                bucket = edge_best[idx] = {}
            for edge in edges:
                best = bucket.get(edge, 0.0)
                gain += max(0.0, utility - best)
                if utility > best:
                    if undo is not None:
                        undo.append((idx, edge, bucket.get(edge)))
                    bucket[edge] = utility
        return gain

    def set_graph_coverage(self, patterns: Sequence[Pattern]) -> float:
        """Fraction of indexed graphs covered by >= 1 pattern."""
        if not self.graphs:
            return 0.0
        covered: Set[int] = set()
        for pattern in patterns:
            covered |= self.covered_graphs(pattern)
        return len(covered) / len(self.graphs)

    def cache_stats(self) -> Optional[Dict[str, float]]:
        """Stats of the backing match cache, or None when uncached.

        When the index is backed by the process-global cache these
        counters also appear under ``"matching"`` in
        :func:`repro.obs.snapshot`, the one-stop view of the process.
        """
        if self._cache is None:
            return None
        return self._cache.stats()

    def __len__(self) -> int:
        return len(self._cover)
