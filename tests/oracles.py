"""Reference implementations the shipped algorithms are checked against.

Each oracle is the slower original an optimised path in ``src/repro``
replaced, kept here verbatim so tests (and the bench scripts' oracle
tiers) can assert the fast path reproduces it exactly:

* :class:`LegacyMatcher` — the pre-index matching kernel (label-only
  candidate pools, first-matched-neighbor anchoring) that
  :class:`repro.matching.isomorphism.SubgraphMatcher` must match
  embedding for embedding, *in order*, while doing fewer feasibility
  checks;
* :func:`naive_sweep` — the quadratic greedy sweep that re-scores
  every candidate every round through :meth:`repro.patterns.selection.
  SetScorer.score`; the CELF lazy sweep must be byte-identical to it;
* :func:`truss_decomposition_rescan` — the per-level-rescan truss
  peeler the bucket-queue peeler must agree with edge for edge;
* :func:`legacy_pickle_payload` — the nested-dict state a ``Graph``
  used to pickle as, the baseline the compact wire form must beat.

Two context managers swap an oracle in process-wide for whole-pipeline
comparisons and restore the shipped implementation on exit:
:func:`legacy_kernel` (every matcher built through
``repro.matching.isomorphism``'s helpers) and :func:`naive_selection`
(every :func:`repro.patterns.selection.greedy_select` sweep).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple
from unittest import mock

from repro.errors import WorkerFailure
from repro.graph.graph import Graph, edge_key
from repro.matching import isomorphism
from repro.matching.isomorphism import (
    WILDCARD,
    _matching_order,
    labels_compatible,
)
from repro.obs import metrics
from repro.patterns import selection
from repro.patterns.base import Pattern, PatternBudget
from repro.patterns.selection import SetScorer, _Sweep
from repro.resilience.deadline import Deadline
from repro.truss import edge_support


class LegacyMatcher:
    """The legacy matching kernel for one (pattern, target) pair.

    Same constructor and :meth:`iter_embeddings` contract as
    :class:`repro.matching.isomorphism.SubgraphMatcher`, and the same
    ``matching.feasibility_checks`` / ``matching.recursive_calls``
    registry counters, so kernel counters compare like for like.
    """

    def __init__(self, pattern: Graph, target: Graph,
                 induced: bool = False) -> None:
        self.pattern = pattern
        self.target = target
        self.induced = induced
        self._order = _matching_order(pattern)
        # pattern neighbors already matched when a node is placed
        self._placed_before: List[List[int]] = []
        placed: Set[int] = set()
        for u in self._order:
            self._placed_before.append(
                [w for w in self.pattern.neighbors(u) if w in placed])
            placed.add(u)
        # candidate pools by label (wildcard -> all target nodes)
        self._by_label: Dict[str, List[int]] = {}
        for node in target.nodes():
            self._by_label.setdefault(
                target.node_label(node), []).append(node)

    def _candidates(self, u: int) -> List[int]:
        label = self.pattern.node_label(u)
        if label == WILDCARD:
            return list(self.target.nodes())
        return self._by_label.get(label, [])

    def _feasible(self, u: int, t: int, mapping: Dict[int, int],
                  used: Set[int], matched_nbrs: List[int]) -> bool:
        metrics.inc("matching.feasibility_checks")
        if t in used:
            return False
        if not labels_compatible(self.pattern.node_label(u),
                                 self.target.node_label(t)):
            return False
        if self.target.degree(t) < self.pattern.degree(u):
            return False
        for w in matched_nbrs:
            image = mapping[w]
            if not self.target.has_edge(t, image):
                return False
            if not labels_compatible(self.pattern.edge_label(u, w),
                                     self.target.edge_label(t, image)):
                return False
        if self.induced:
            # matched non-neighbors of u must not be adjacent to t
            for w, image in mapping.items():
                if w not in matched_nbrs and not self.pattern.has_edge(u, w):
                    if self.target.has_edge(t, image):
                        return False
        return True

    def iter_embeddings(self,
                        max_results: Optional[int] = None
                        ) -> Iterator[Dict[int, int]]:
        """Yield pattern-node -> target-node mappings."""
        if self.pattern.order() > self.target.order():
            return
        if self.pattern.order() == 0:
            yield {}
            return
        yield from self._extend({}, set(), 0, [max_results])

    def _extend(self, mapping: Dict[int, int], used: Set[int], depth: int,
                remaining: List[Optional[int]]) -> Iterator[Dict[int, int]]:
        metrics.inc("matching.recursive_calls")
        if remaining[0] is not None and remaining[0] <= 0:
            return
        u = self._order[depth]
        matched_nbrs = self._placed_before[depth]
        if matched_nbrs:
            # intersect neighborhoods of already-placed images
            anchor = mapping[matched_nbrs[0]]
            pool = [t for t in self.target.neighbors(anchor)]
        else:
            pool = self._candidates(u)
        for t in pool:
            if not self._feasible(u, t, mapping, used, matched_nbrs):
                continue
            mapping[u] = t
            used.add(t)
            if depth + 1 == len(self._order):
                yield dict(mapping)
                if remaining[0] is not None:
                    remaining[0] -= 1
                    if remaining[0] <= 0:
                        del mapping[u]
                        used.discard(t)
                        return
            else:
                yield from self._extend(mapping, used, depth + 1, remaining)
            del mapping[u]
            used.discard(t)


def naive_sweep(admissible: Sequence[Pattern], budget: PatternBudget,
                scorer: SetScorer, sweep: _Sweep, improve_only: bool,
                deadline: Deadline) -> None:
    """The quadratic oracle sweep: full re-score of every candidate,
    every round, through the stateless :meth:`SetScorer.score`."""
    selected = sweep.selected
    sweep.current = scorer.score(selected) if selected else 0.0
    while len(selected) < budget.max_patterns:
        if sweep.trajectory and deadline.check("patterns.greedy_select"):
            sweep.complete = False
            break
        best: Optional[Pattern] = None
        best_score = float("-inf")
        expired = False
        for candidate in admissible:
            if candidate.code in sweep.chosen_codes:
                continue
            if sweep.mid_round_expired(deadline):
                expired = True
                break
            try:
                sweep.probe(candidate)
                score = scorer.score(selected + [candidate])
            except WorkerFailure:
                sweep.fault()
                continue
            sweep.evaluations += 1
            if score > best_score:
                best_score = score
                best = candidate
        if expired:
            # Mid-round expiry: abandon the partial round unless the
            # sweep has selected nothing yet (the anytime contract
            # promises at least one pattern when one scored).
            sweep.complete = False
            if (not selected and best is not None
                    and not (improve_only
                             and best_score <= sweep.current + 1e-12)):
                sweep.take(best, best_score)
            break
        if best is None:
            break
        if improve_only and best_score <= sweep.current + 1e-12:
            break
        sweep.take(best, best_score)


def truss_decomposition_rescan(graph: Graph) -> Dict[Tuple[int, int], int]:
    """Trussness by the original per-level-rescan peeler.

    At every level k it rescans all remaining edges for support
    <= k - 2 (O(m) per level) and physically removes peeled edges
    from a working copy.
    """
    work = graph.copy()
    support = edge_support(work)
    trussness: Dict[Tuple[int, int], int] = {}
    k = 2
    # bucket-less peeling: repeatedly remove minimum-support edges
    remaining = set(support)
    while remaining:
        # all edges with support <= k - 2 have trussness k
        queue = [e for e in remaining if support[e] <= k - 2]
        while queue:
            u, v = queue.pop()
            key = edge_key(u, v)
            if key not in remaining:
                continue
            remaining.discard(key)
            trussness[key] = k
            # decrement support of triangle partners
            small, big = (u, v) if work.degree(u) <= work.degree(v) \
                else (v, u)
            for w in work.neighbors(small):
                if w != big and work.has_edge(w, big):
                    for other in (edge_key(small, w), edge_key(big, w)):
                        if other in remaining:
                            support[other] -= 1
                            if support[other] <= k - 2:
                                queue.append(other)
            work.remove_edge(u, v)
        k += 1
    return trussness


def legacy_pickle_payload(graph: Graph) -> Tuple:
    """The nested-dict state a ``Graph`` used to pickle as."""
    return (graph.name,
            {u: dict(nbrs) for u, nbrs in graph._adj.items()},
            dict(graph._node_labels),
            {u: dict(a) for u, a in graph._node_attrs.items()},
            dict(graph._edge_labels),
            {k: dict(a) for k, a in graph._edge_attrs.items()})


def legacy_kernel():
    """Context manager: every matcher that ``is_subgraph``,
    ``find_embedding``, ``covered_edges`` or ``subgraph_embeddings``
    builds is a :class:`LegacyMatcher` until exit.

    Modules that import ``SubgraphMatcher`` by name (the query engine)
    keep the shipped kernel.
    """
    return mock.patch.object(isomorphism, "SubgraphMatcher",
                             LegacyMatcher)


def naive_selection():
    """Context manager: every :func:`repro.patterns.selection.
    greedy_select` runs :func:`naive_sweep` until exit."""
    return mock.patch.object(selection, "_lazy_sweep", naive_sweep)
