"""Compact CSR snapshot of a :class:`repro.graph.graph.Graph`.

A :class:`CompactGraph` is a frozen, array-backed view of a graph:
node ids, label ids, and adjacency live in flat ``array`` buffers
(CSR layout: an ``offsets`` prefix-sum plus one sorted ``neighbors``
run per node) and labels are interned into small string tables.  It
exists for the two places nested dicts hurt most:

* **hot loops** — the indexed matching kernel and the truss peeler
  scan neighbor *slices* (``offsets[p] .. offsets[p+1]``) and compare
  interned label *ids* instead of hashing ints and strings through
  dict-of-dict adjacency;
* **process boundaries** — pickling a dict-of-dict graph serialises
  every int and string object separately, while a compact graph ships
  a handful of flat byte buffers (:meth:`encode`), which is what
  :func:`repro.perf.pmap` pays per work item and what an on-disk
  store tier will want later.

It is built behind the version-invalidated cached-view API
(:meth:`repro.graph.graph.Graph.compact`, next to
``adjacency_sets()``/``label_index()``): mutate the graph and the
next ``compact()`` call rebuilds.  The round trip is lossless —
:meth:`to_graph` restores ids, labels, attributes, *and* the node and
edge insertion order, so iteration-order-sensitive consumers (seeded
samplers, dedup loops) see exactly the graph that was encoded.

Internally everything is positional: node *positions* are
``0..n-1`` in insertion order, ``neighbors`` holds positions (sorted
ascending within each node's slice), and ``edge_label_ids`` aligns
with ``neighbors``.  ``ins_neighbors`` carries the same runs in
per-node edge-insertion order (what ``Graph.neighbors()`` yields) for
consumers whose enumeration order must match the dict path exactly.
``node_ids`` maps positions back to the original ids at the boundary.

A view also memoizes derived tables for the kernels that scan it:
the label-position groups, the per-position neighbor-label counts and
the matching kernel's candidate pools
(:meth:`CompactGraph.candidate_pool`), whose memos share one
process-wide bound.  They are built lazily, die with the view when
the graph mutates, and are never pickled.
"""

from __future__ import annotations

import os
import threading
import weakref
from array import array
from bisect import bisect_left
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, \
    Optional, Tuple

from repro.graph.graph import Graph, edge_key

#: Bump when the :meth:`CompactGraph.encode` wire layout changes.
ENCODING_VERSION = 1

#: The most the candidate-pool memos of all compact views in the
#: process hold together, counting each pool as one plus its
#: positions (:meth:`CompactGraph.candidate_pool`); queries are
#: unbounded, so the memos are bounded.  Working sets: TATTOO set-up,
#: 400 sampled queries and 50 answerable suggests on the default
#: 2,000-node network hold 330 pools, 20,170 in all; a 60-graph
#: repository's build, 10 maintenance batches, 400 queries and 50
#: suggests hold 6,317 pools (83% empty) over 166 views, 9,062 in
#: all.  At 73-94 bytes per unit the memos stay near 6 MB at most.
POOL_MEMO_LIMIT = 65_536

#: A candidate pool: its positions in order, and as a set.
Pool = Tuple[Tuple[int, ...], FrozenSet[int]]

#: array typecodes: positions/label ids/offsets are 32-bit, original
#: node ids 64-bit (callers may use arbitrary int ids).
_POS = "i"
_ID = "q"

#: signed typecodes from narrowest to widest, with their value bounds;
#: :func:`_pack` picks the first one every element fits in, so tiny
#: graphs ship 1-byte entries instead of fixed 4/8-byte ones.
_WIDTHS = (("b", -2 ** 7, 2 ** 7 - 1),
           ("h", -2 ** 15, 2 ** 15 - 1),
           ("i", -2 ** 31, 2 ** 31 - 1),
           ("q", -2 ** 63, 2 ** 63 - 1))


def _pack(values: array) -> Tuple[str, bytes]:
    """``(typecode, buffer)`` with the narrowest width that fits."""
    if not len(values):
        return "b", b""
    lo, hi = min(values), max(values)
    for code, low, high in _WIDTHS:
        if low <= lo and hi <= high:
            break
    if code == values.typecode:
        return code, values.tobytes()
    return code, array(code, values).tobytes()


def _unpack(packed: Tuple[str, bytes], typecode: str) -> array:
    """Inverse of :func:`_pack`, widened back to ``typecode``."""
    code, buffer = packed
    wire = array(code)
    wire.frombytes(buffer)
    return wire if code == typecode else array(typecode, wire)


class CompactGraph:
    """Frozen CSR snapshot of a labeled graph.

    Never constructed directly — use :meth:`from_graph` (or
    :meth:`repro.graph.graph.Graph.compact`, which caches one per
    graph version).  All buffers are read-only by convention; the
    class offers no mutation API.
    """

    __slots__ = ("name", "node_ids", "node_label_ids", "node_labels",
                 "edge_labels", "edge_list", "offsets", "neighbors",
                 "edge_label_ids", "ins_neighbors", "node_attrs",
                 "edge_attrs", "_index", "_label_lookup",
                 "_edge_label_lookup", "_label_positions", "_nlc",
                 "_pools", "__weakref__")

    def __init__(self, name: str, node_ids: array, node_label_ids: array,
                 node_labels: Tuple[str, ...],
                 edge_labels: Tuple[str, ...], edge_list: array,
                 node_attrs: Dict[int, Dict[str, Any]],
                 edge_attrs: Dict[Tuple[int, int], Dict[str, Any]]
                 ) -> None:
        self.name = name
        self.node_ids = node_ids
        self.node_label_ids = node_label_ids
        self.node_labels = node_labels
        self.edge_labels = edge_labels
        # (u_pos, v_pos, edge_label_id) triples in edge insertion
        # order — the lossless wire form the CSR is derived from
        self.edge_list = edge_list
        self.node_attrs = node_attrs
        self.edge_attrs = edge_attrs
        (self.offsets, self.neighbors, self.edge_label_ids,
         self.ins_neighbors) = _build_csr(len(node_ids), edge_list)
        # lazy, derived, never pickled
        self._index: Optional[Dict[int, int]] = None
        self._label_lookup: Optional[Dict[str, int]] = None
        self._edge_label_lookup: Optional[Dict[str, int]] = None
        self._label_positions: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._nlc: Optional[List[Dict[int, int]]] = None
        self._pools: Optional[Dict[Hashable, Pool]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CompactGraph":
        """Snapshot ``graph``; positions follow node insertion order."""
        index: Dict[int, int] = {}
        node_ids = array(_ID)
        for node in graph.nodes():
            index[node] = len(node_ids)
            node_ids.append(node)
        node_label_table: Dict[str, int] = {}
        node_label_ids = array(_POS)
        for node in graph.nodes():
            label = graph.node_label(node)
            lid = node_label_table.setdefault(label, len(node_label_table))
            node_label_ids.append(lid)
        edge_label_table: Dict[str, int] = {}
        edge_list = array(_POS)
        for u, v in graph.edges():
            label = graph.edge_label(u, v)
            lid = edge_label_table.setdefault(label, len(edge_label_table))
            edge_list.append(index[u])
            edge_list.append(index[v])
            edge_list.append(lid)
        compact = cls(
            graph.name, node_ids, node_label_ids,
            tuple(node_label_table), tuple(edge_label_table), edge_list,
            {u: dict(a) for u, a in graph._node_attrs.items() if a},
            {k: dict(a) for k, a in graph._edge_attrs.items() if a})
        compact._index = index
        return compact

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    def order(self) -> int:
        """Number of nodes."""
        return len(self.node_ids)

    def size(self) -> int:
        """Number of edges."""
        return len(self.edge_list) // 3

    def index(self) -> Dict[int, int]:
        """``{original node id: position}`` (built once, cached)."""
        if self._index is None:
            self._index = {node: position for position, node
                           in enumerate(self.node_ids)}
        return self._index

    # ------------------------------------------------------------------
    # label tables
    # ------------------------------------------------------------------
    def label_id(self, label: str) -> Optional[int]:
        """Interned id of a node label, or None if it never occurs."""
        if self._label_lookup is None:
            self._label_lookup = {lbl: lid for lid, lbl
                                  in enumerate(self.node_labels)}
        return self._label_lookup.get(label)

    def edge_label_id(self, label: str) -> Optional[int]:
        """Interned id of an edge label, or None if it never occurs."""
        if self._edge_label_lookup is None:
            self._edge_label_lookup = {lbl: lid for lid, lbl
                                       in enumerate(self.edge_labels)}
        return self._edge_label_lookup.get(label)

    def label_set(self) -> FrozenSet[str]:
        """Distinct node labels — the interned table as a frozenset."""
        return frozenset(self.node_labels)

    def label_positions(self, label_id: int) -> Tuple[int, ...]:
        """Positions of nodes carrying ``label_id``, insertion order."""
        if self._label_positions is None:
            grouped: List[List[int]] = [[] for _ in self.node_labels]
            for position, lid in enumerate(self.node_label_ids):
                grouped[lid].append(position)
            self._label_positions = tuple(tuple(g) for g in grouped)
        return self._label_positions[label_id]

    def neighbor_label_id_counts(self) -> List[Dict[int, int]]:
        """Per position, ``{neighbor label id: count}`` (cached).

        The compact counterpart of :meth:`repro.graph.graph.Graph.
        neighbor_label_counts` — the signature the matching kernel
        filters candidate pools with, keyed by interned label ids.
        """
        if self._nlc is None:
            offsets, neighbors = self.offsets, self.neighbors
            label_ids = self.node_label_ids
            signatures: List[Dict[int, int]] = []
            for position in range(len(self.node_ids)):
                counts: Dict[int, int] = {}
                for slot in range(offsets[position],
                                  offsets[position + 1]):
                    lid = label_ids[neighbors[slot]]
                    counts[lid] = counts.get(lid, 0) + 1
                signatures.append(counts)
            self._nlc = signatures
        return self._nlc

    def candidate_pool(self, key: Hashable,
                       build: Callable[["CompactGraph", Any], Pool]
                       ) -> Pool:
        """``build(self, key)``, memoized per requirement ``key``.

        The matching kernel keys a pattern node's candidate pool by
        what the node requires and passes its pool rule as ``build``,
        so matchers whose pattern nodes ask the same share one pool.
        Every view's memo draws on one process-wide budget
        (:data:`POOL_MEMO_LIMIT`): a store that would overrun it first
        clears every memo, and a pool larger than the whole budget is
        not kept.  The memo dies with the view and is never pickled.
        Like ``Graph.view``, two threads that miss together both
        build, so ``build`` must be a pure function of the view and
        the key; the first store wins and both get its pool.
        """
        memo = self._pools
        pool = None if memo is None else memo.get(key)
        if pool is None:
            pool = _pool_budget.store(self, key, build(self, key))
        return pool

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def edge_slot(self, u_pos: int, v_pos: int) -> int:
        """Index of ``v_pos`` in ``u_pos``'s neighbor slice, or -1.

        A found slot doubles as the edge-label handle:
        ``edge_label_ids[slot]`` is the label of the edge.  Binary
        search over the sorted slice — O(log degree), no allocation.
        """
        lo = self.offsets[u_pos]
        hi = self.offsets[u_pos + 1]
        slot = bisect_left(self.neighbors, v_pos, lo, hi)
        if slot < hi and self.neighbors[slot] == v_pos:
            return slot
        return -1

    def common_neighbors(self, u_pos: int, v_pos: int) -> int:
        """Count of shared neighbors — triangle support of the edge.

        Scans the smaller slice and binary-searches the larger, so the
        cost is ``d_small * log(d_big)`` with no set materialisation.
        """
        offsets, neighbors = self.offsets, self.neighbors
        lo_u, hi_u = offsets[u_pos], offsets[u_pos + 1]
        lo_v, hi_v = offsets[v_pos], offsets[v_pos + 1]
        if hi_u - lo_u > hi_v - lo_v:
            lo_u, hi_u, lo_v, hi_v = lo_v, hi_v, lo_u, hi_u
        count = 0
        for slot in range(lo_u, hi_u):
            w = neighbors[slot]
            probe = bisect_left(neighbors, w, lo_v, hi_v)
            if probe < hi_v and neighbors[probe] == w:
                count += 1
        return count

    # ------------------------------------------------------------------
    # round trip and wire format
    # ------------------------------------------------------------------
    def to_graph(self) -> Graph:
        """Lossless reconstruction, including insertion order.

        Stores are assembled directly (the same construction style as
        :meth:`repro.graph.graph.Graph.copy`): nodes in position
        order, edges by replaying ``edge_list`` in its recorded
        insertion order, so every dict iterates exactly like the
        source graph's.
        """
        g = Graph(name=self.name)
        ids = self.node_ids
        adj: Dict[int, Dict[int, Tuple[int, int]]] = {}
        node_labels: Dict[int, str] = {}
        for position, node in enumerate(ids):
            adj[node] = {}
            node_labels[node] = \
                self.node_labels[self.node_label_ids[position]]
        edge_labels: Dict[Tuple[int, int], str] = {}
        triples = self.edge_list
        for at in range(0, len(triples), 3):
            u, v = ids[triples[at]], ids[triples[at + 1]]
            key = edge_key(u, v)
            adj[u][v] = key
            adj[v][u] = key
            edge_labels[key] = self.edge_labels[triples[at + 2]]
        g._adj = adj
        g._node_labels = node_labels
        g._edge_labels = edge_labels
        g._node_attrs = {u: dict(a) for u, a in self.node_attrs.items()}
        g._edge_attrs = {k: dict(a) for k, a in self.edge_attrs.items()}
        return g

    def encode(self) -> Tuple:
        """The flat-bytes wire form: a tuple of byte buffers, interned
        label tables, and (usually empty) attribute dicts.

        This is what a pickled :class:`repro.graph.graph.Graph`
        actually ships (see ``Graph.__reduce__``): the CSR arrays are
        *not* included — they are derived state, rebuilt from
        ``edge_list`` on decode — and each remaining array is packed
        at the narrowest element width its values fit in.
        """
        return (ENCODING_VERSION, self.name, len(self.node_ids),
                _pack(self.node_ids), _pack(self.node_label_ids),
                self.node_labels, self.edge_labels,
                _pack(self.edge_list),
                self.node_attrs or None, self.edge_attrs or None)

    @classmethod
    def from_encoded(cls, state: Tuple) -> "CompactGraph":
        """Rebuild from :meth:`encode` output (inverse operation)."""
        (_, name, _, id_pack, label_id_pack, node_labels, edge_labels,
         edge_pack, node_attrs, edge_attrs) = state
        node_ids = _unpack(id_pack, _ID)
        node_label_ids = _unpack(label_id_pack, _POS)
        edge_list = _unpack(edge_pack, _POS)
        return cls(name, node_ids, node_label_ids, tuple(node_labels),
                   tuple(edge_labels), edge_list, node_attrs or {},
                   edge_attrs or {})

    def nbytes(self) -> int:
        """Total bytes held in flat array buffers (labels excluded)."""
        return sum(buf.itemsize * len(buf) for buf in
                   (self.node_ids, self.node_label_ids, self.edge_list,
                    self.offsets, self.neighbors, self.edge_label_ids,
                    self.ins_neighbors))

    def __reduce__(self):
        return (CompactGraph.from_encoded, (self.encode(),))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (f"<CompactGraph{tag} n={self.order()} m={self.size()} "
                f"labels={len(self.node_labels)}>")


class _PoolBudget:
    """The process-wide bound on memoized candidate pools: the views
    whose memos hold pools, and how much they have stored since the
    last clear (a dead view's pools count until then, so the live
    total is never more)."""

    __slots__ = ("lock", "held", "views")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.held = 0
        self.views: "weakref.WeakSet[CompactGraph]" = weakref.WeakSet()

    def store(self, view: CompactGraph, key: Hashable, pool: Pool) -> Pool:
        """Keep ``pool`` in ``view``'s memo; returns the memo's pool."""
        cost = 1 + len(pool[0])
        if cost > POOL_MEMO_LIMIT:
            return pool
        with self.lock:
            memo = view._pools
            if memo is not None and key in memo:
                return memo[key]
            if self.held + cost > POOL_MEMO_LIMIT:
                # replaced, not cleared: a reader that already holds
                # an old memo keeps reading a consistent one
                for other in list(self.views):
                    other._pools = None
                self.views.clear()
                self.held = 0
                memo = None
            if memo is None:
                memo = view._pools = {}
                self.views.add(view)
            memo[key] = pool
            self.held += cost
            return pool


_pool_budget = _PoolBudget()


def _fresh_lock_in_child() -> None:
    # fork copies the lock in whatever state another thread left it;
    # held, the child's only thread would wait on it forever
    _pool_budget.lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_in_child)


def _build_csr(n: int, edge_list: array
               ) -> Tuple[array, array, array, array]:
    """Derive (offsets, neighbors, edge_label_ids, ins_neighbors)
    from edge triples.

    Neighbor runs in ``neighbors`` are sorted ascending by position so
    slices support binary search; ``edge_label_ids`` stays aligned
    through the sort.  ``ins_neighbors`` holds the same runs (same
    ``offsets``) in per-node edge-insertion order — the order
    ``Graph.neighbors()`` iterates, which enumeration-order-faithful
    consumers (the matching kernel's anchored candidate pools) scan.
    """
    incident: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for at in range(0, len(edge_list), 3):
        u, v, lid = edge_list[at], edge_list[at + 1], edge_list[at + 2]
        incident[u].append((v, lid))
        incident[v].append((u, lid))
    offsets = array(_POS, [0]) * 1
    neighbors = array(_POS)
    edge_label_ids = array(_POS)
    ins_neighbors = array(_POS)
    total = 0
    for position in range(n):
        run = incident[position]
        for nbr, _ in run:
            ins_neighbors.append(nbr)
        run.sort()
        total += len(run)
        offsets.append(total)
        for nbr, lid in run:
            neighbors.append(nbr)
            edge_label_ids.append(lid)
    return offsets, neighbors, edge_label_ids, ins_neighbors


def decode_graph(state: Tuple) -> Graph:
    """Decode :meth:`CompactGraph.encode` output straight to a
    :class:`Graph`, skipping the CSR rebuild.

    This is the unpickle entry for ``Graph`` (its ``__reduce__``
    points here), so it only materialises what a ``Graph`` holds:
    nodes, labels, edges in insertion order, attributes.
    """
    (_, name, _, id_pack, label_id_pack, node_labels, edge_labels,
     edge_pack, node_attrs, edge_attrs) = state
    node_ids = _unpack(id_pack, _ID)
    node_label_ids = _unpack(label_id_pack, _POS)
    edge_list = _unpack(edge_pack, _POS)
    g = Graph(name=name)
    adj: Dict[int, Dict[int, Tuple[int, int]]] = {}
    labels: Dict[int, str] = {}
    for position, node in enumerate(node_ids):
        adj[node] = {}
        labels[node] = node_labels[node_label_ids[position]]
    edge_label_map: Dict[Tuple[int, int], str] = {}
    for at in range(0, len(edge_list), 3):
        u, v = node_ids[edge_list[at]], node_ids[edge_list[at + 1]]
        key = edge_key(u, v)
        adj[u][v] = key
        adj[v][u] = key
        edge_label_map[key] = edge_labels[edge_list[at + 2]]
    g._adj = adj
    g._node_labels = labels
    g._edge_labels = edge_label_map
    if node_attrs:
        g._node_attrs = {u: dict(a) for u, a in node_attrs.items()}
    if edge_attrs:
        g._edge_attrs = {k: dict(a) for k, a in edge_attrs.items()}
    return g

