"""Subgraph isomorphism and graph isomorphism.

A VF2-style backtracking matcher specialised for the small patterns
and small/medium data graphs this library manipulates.  Node and edge
labels must match exactly unless the pattern uses the :data:`WILDCARD`
label, which matches anything.

Two matching semantics are provided:

* **monomorphism** (default): every pattern edge must map to a target
  edge; extra edges between image nodes are allowed.  This is the
  semantics of "pattern p covers graph G" in the canned-pattern
  literature (p appears as a — not necessarily induced — subgraph).
* **induced**: additionally, non-adjacent pattern nodes must map to
  non-adjacent target nodes.

The kernel runs over the target's compact CSR view
(:meth:`repro.graph.graph.Graph.compact`): candidate pools are
precomputed per pattern node — filtered through the interned label
table, degree, and a neighbor-label-id-multiset signature — and
partial mappings extend by intersecting the pool with the *smallest*
already-matched neighbor image's neighbor slice.  Adjacency and
edge-label tests are binary searches over the sorted slice; the
kernel works in compact positions throughout and converts back to
node ids only when an embedding is yielded.

Embeddings are enumerated in a fixed *order*: anchored pools walk the
first matched image's neighbors in edge-insertion order (the CSR's
``ins_neighbors`` run), exactly the sequence a plain ``neighbors()``
loop produces, so even capped enumerations (``max_results`` /
``max_embeddings``) equal those of the label-pool legacy kernel that
``tests/oracles.py`` keeps as the equivalence oracle.  Kernel work is
instrumented: ``feasibility_checks``, ``recursive_calls``, and
``candidates_pruned`` counters surface under ``"matching"`` in
:func:`repro.obs.snapshot`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.graph.graph import Graph
from repro.obs import metrics
from repro.resilience.chaos import site as chaos_site

WILDCARD = "*"


def labels_compatible(pattern_label: str, target_label: str) -> bool:
    """Exact label match, with ``*`` in the pattern matching anything."""
    return pattern_label == WILDCARD or pattern_label == target_label


def _matching_order(pattern: Graph) -> List[int]:
    """BFS order from a max-degree node; keeps the frontier connected.

    A connected frontier lets every node after the first be placed
    only next to already-matched nodes, which prunes aggressively.
    Disconnected patterns fall back to per-component BFS orders.
    """
    order: List[int] = []
    visited: Set[int] = set()
    nodes = sorted(pattern.nodes(), key=lambda u: -pattern.degree(u))
    for root in nodes:
        if root in visited:
            continue
        queue = [root]
        visited.add(root)
        while queue:
            # expand the frontier node with most matched neighbors first
            queue.sort(key=lambda u: (-sum(1 for w in pattern.neighbors(u)
                                           if w in visited),
                                      -pattern.degree(u)))
            u = queue.pop(0)
            order.append(u)
            for v in sorted(pattern.neighbors(u)):
                if v not in visited:
                    visited.add(v)
                    queue.append(v)
    return order


class SubgraphMatcher:
    """Reusable matcher for one (pattern, target) pair.

    Parameters
    ----------
    pattern, target:
        Graphs to match; the pattern is the smaller query structure.
    induced:
        Use induced-subgraph semantics (see module docstring).

    Work is counted on the matcher — ``feasibility_checks``,
    ``recursive_calls`` (backtracking extensions) and
    ``candidates_pruned`` (target nodes excluded before feasibility)
    — and added to the metrics registry, then zeroed, when an
    enumeration ends, is closed or is dropped.
    """

    def __init__(self, pattern: Graph, target: Graph,
                 induced: bool = False) -> None:
        self.pattern = pattern
        self.target = target
        self.induced = induced
        self.feasibility_checks = 0
        self.recursive_calls = 0
        self.candidates_pruned = 0
        self._order = _matching_order(pattern)
        # pattern neighbors already matched when a node is placed
        self._placed_before: List[List[int]] = []
        placed: Set[int] = set()
        for u in self._order:
            self._placed_before.append(
                [w for w in self.pattern.neighbors(u) if w in placed])
            placed.add(u)
        c = target.compact()
        self._c = c
        self._node_ids = c.node_ids
        self._offsets = c.offsets
        self._csr_neighbors = c.neighbors
        self._csr_edge_labels = c.edge_label_ids
        self._ins_neighbors = c.ins_neighbors
        self._pools: Dict[int, Tuple[int, ...]] = {}
        self._pool_sets: Dict[int, FrozenSet[int]] = {}
        self._build_pools()
        self._build_edge_requirements()

    def _build_pools(self) -> None:
        """Candidate pool per pattern node: label + degree + signature.

        Pools hold compact *positions*.  The base set per pattern node
        comes straight off the target's interned label table
        (``label_positions``); degrees are CSR slice widths.  The
        signature filter requires, for every non-wildcard label that
        appears ``c`` times in the pattern node's neighborhood, at
        least ``c`` neighbors with that label id around the target
        position.  This is a necessary condition under both
        monomorphism and induced semantics (pattern neighbors always
        map to target neighbors), so filtering by it never loses
        embeddings.  A pattern node or neighbor label absent from the
        target's label table prunes to the empty pool immediately.
        """
        pattern, c = self.pattern, self._c
        n_target = c.order()
        offsets = c.offsets
        target_nlc = c.neighbor_label_id_counts()
        pattern_nlc = pattern.neighbor_label_counts()
        for u in pattern.nodes():
            label = pattern.node_label(u)
            if label == WILDCARD:
                base = range(n_target)
            else:
                lid = c.label_id(label)
                base = () if lid is None else c.label_positions(lid)
            degree_u = pattern.degree(u)
            # absent labels intern to -1: no position carries them,
            # so counts.get(-1, 0) < need rejects as it must
            required: Dict[int, int] = {}
            for lbl, count in pattern_nlc[u].items():
                if lbl == WILDCARD:
                    continue
                req_lid = c.label_id(lbl)
                required[-1 if req_lid is None else req_lid] = count
            pool = []
            for p in base:
                if offsets[p + 1] - offsets[p] < degree_u:
                    continue
                counts = target_nlc[p]
                if any(counts.get(lid, 0) < need
                       for lid, need in required.items()):
                    continue
                pool.append(p)
            self._pools[u] = tuple(pool)
            self._pool_sets[u] = frozenset(pool)
            self.candidates_pruned += n_target - len(pool)

    def _build_edge_requirements(self) -> None:
        """Intern every pattern edge label against the target table.

        ``_edge_req[(u, w)]`` is the target edge-label id a mapped
        pattern edge must carry: ``-1`` for a wildcard pattern label
        (any target label passes) and ``-2`` for a pattern label the
        target never uses (no edge can pass).  Interning once here
        turns the per-extension label test into a single int compare
        against the CSR's ``edge_label_ids``.
        """
        c = self._c
        self._edge_req: Dict[Tuple[int, int], int] = {}
        for (a, b) in self.pattern.edges():
            label = self.pattern.edge_label(a, b)
            if label == WILDCARD:
                req = -1
            else:
                elid = c.edge_label_id(label)
                req = -2 if elid is None else elid
            self._edge_req[(a, b)] = req
            self._edge_req[(b, a)] = req

    def _feasible(self, u: int, t: int, mapping: Dict[int, int],
                  used: Set[int], matched_nbrs: List[int]) -> bool:
        """Feasibility for pool members: labels/degree already hold.

        ``t`` and every mapped image are compact positions; adjacency
        plus edge-label compatibility collapse into one binary search
        over ``t``'s sorted neighbor slice (the found slot indexes the
        aligned ``edge_label_ids`` run).
        """
        self.feasibility_checks += 1
        if t in used:
            return False
        neighbors = self._csr_neighbors
        lo = self._offsets[t]
        hi = self._offsets[t + 1]
        for w in matched_nbrs:
            image = mapping[w]
            slot = bisect_left(neighbors, image, lo, hi)
            if slot >= hi or neighbors[slot] != image:
                return False
            req = self._edge_req[(u, w)]
            if req >= 0:
                if self._csr_edge_labels[slot] != req:
                    return False
            elif req == -2:
                return False
        if self.induced:
            # matched non-neighbors of u must not be adjacent to t
            for w, image in mapping.items():
                if w not in matched_nbrs and not self.pattern.has_edge(u, w):
                    slot = bisect_left(neighbors, image, lo, hi)
                    if slot < hi and neighbors[slot] == image:
                        return False
        return True

    def iter_embeddings(self,
                        max_results: Optional[int] = None
                        ) -> Iterator[Dict[int, int]]:
        """Yield pattern-node -> target-node mappings.

        ``max_results`` caps enumeration (None = unbounded).  The empty
        pattern yields exactly one empty mapping.
        """
        try:
            if self.pattern.order() > self.target.order():
                return
            if self.pattern.order() == 0:
                yield {}
                return
            yield from self._extend({}, set(), 0, [max_results])
        finally:
            metrics.inc("matching.feasibility_checks",
                        self.feasibility_checks)
            metrics.inc("matching.recursive_calls", self.recursive_calls)
            metrics.inc("matching.candidates_pruned",
                        self.candidates_pruned)
            self.feasibility_checks = 0
            self.recursive_calls = 0
            self.candidates_pruned = 0

    def _extend(self, mapping: Dict[int, int], used: Set[int], depth: int,
                remaining: List[Optional[int]]) -> Iterator[Dict[int, int]]:
        self.recursive_calls += 1
        if remaining[0] is not None and remaining[0] <= 0:
            return
        u = self._order[depth]
        matched_nbrs = self._placed_before[depth]
        feasible = self._feasible
        for t in self._pool(u, mapping, matched_nbrs):
            if not feasible(u, t, mapping, used, matched_nbrs):
                continue
            mapping[u] = t
            used.add(t)
            if depth + 1 == len(self._order):
                # mapping holds compact positions; embeddings are
                # reported in original node ids
                ids = self._node_ids
                yield {w: ids[p] for w, p in mapping.items()}
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

    def _pool(self, u: int, mapping: Dict[int, int],
              matched_nbrs: List[int]) -> List[int]:
        """Candidates for ``u``: pool ∩ matched-image slices, in the
        first matched image's insertion order.

        Pruning anchors on the matched neighbor whose image has the
        narrowest CSR slice (first minimum wins ties, keeping the
        choice deterministic) — the intersection with the pool set is
        smallest there.  *Ordering* anchors on the first matched
        neighbor's ``ins_neighbors`` run: that is exactly the
        ``neighbors()`` sequence the legacy kernel walks, so both
        yield embeddings in the same order — capped enumerations
        (``max_embeddings``) depend on it.
        """
        if not matched_nbrs:
            return list(self._pools[u])
        offsets = self._offsets
        anchor_lo = anchor_hi = -1
        for w in matched_nbrs:
            image = mapping[w]
            lo = offsets[image]
            hi = offsets[image + 1]
            if anchor_lo < 0 or hi - lo < anchor_hi - anchor_lo:
                anchor_lo, anchor_hi = lo, hi
        members = self._pool_sets[u].intersection(
            self._csr_neighbors[anchor_lo:anchor_hi])
        first = mapping[matched_nbrs[0]]
        first_lo = offsets[first]
        first_hi = offsets[first + 1]
        pool = [p for p in self._ins_neighbors[first_lo:first_hi]
                if p in members]
        self.candidates_pruned += (first_hi - first_lo) - len(pool)
        return pool


def subgraph_embeddings(pattern: Graph, target: Graph,
                        induced: bool = False,
                        max_results: Optional[int] = None
                        ) -> List[Dict[int, int]]:
    """All (or first ``max_results``) embeddings of pattern in target."""
    matcher = SubgraphMatcher(pattern, target, induced=induced)
    return list(matcher.iter_embeddings(max_results=max_results))


def find_embedding(pattern: Graph, target: Graph,
                   induced: bool = False) -> Optional[Dict[int, int]]:
    """First embedding found, or None."""
    matcher = SubgraphMatcher(pattern, target, induced=induced)
    for mapping in matcher.iter_embeddings(max_results=1):
        return mapping
    return None


def is_subgraph(pattern: Graph, target: Graph,
                induced: bool = False) -> bool:
    """True iff the pattern embeds in the target.

    This is the matcher entry every selection loop drives, so it is a
    named :mod:`repro.resilience.chaos` injection site
    (``"matching.is_subgraph"``) — a scripted fault here surfaces as
    a :class:`repro.errors.WorkerFailure` the calling stage must
    absorb.
    """
    chaos_site("matching.is_subgraph")
    return find_embedding(pattern, target, induced=induced) is not None


def count_embeddings(pattern: Graph, target: Graph,
                     induced: bool = False,
                     cap: Optional[int] = None) -> int:
    """Number of embeddings, optionally capped at ``cap``."""
    matcher = SubgraphMatcher(pattern, target, induced=induced)
    count = 0
    for _ in matcher.iter_embeddings(max_results=cap):
        count += 1
    return count


def covered_edges(pattern: Graph, target: Graph,
                  max_embeddings: Optional[int] = 200
                  ) -> Set[Tuple[int, int]]:
    """Union of target edges covered by embeddings of the pattern.

    This is the quantity the coverage measures need; it converges
    quickly, so enumeration is capped by default.  Enumeration also
    stops the moment every target edge is covered — checked per edge
    added, not per embedding, so saturation on the last embedding's
    first edge skips the rest of the search.
    """
    covered: Set[Tuple[int, int]] = set()
    total = target.size()
    if total == 0 or pattern.size() == 0:
        return covered
    matcher = SubgraphMatcher(pattern, target, induced=False)
    for mapping in matcher.iter_embeddings(max_results=max_embeddings):
        for u, v in pattern.edges():
            a, b = mapping[u], mapping[v]
            covered.add((a, b) if a <= b else (b, a))
            if len(covered) == total:
                return covered
    return covered


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact label-preserving graph isomorphism."""
    if g1.order() != g2.order() or g1.size() != g2.size():
        return False
    if sorted(g1.label_multiset().items()) != sorted(
            g2.label_multiset().items()):
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    return is_subgraph(g1, g2, induced=True)
