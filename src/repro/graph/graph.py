"""Undirected labeled graph with node/edge attributes.

This is the data model every subsystem in the library shares: graph
repositories (collections of small graphs), large networks, canned
patterns, and visual queries are all instances of :class:`Graph`.

Design notes
------------
* Nodes are integer ids; each node carries a string *label* (the
  domain type, e.g. a chemical element or an entity type) plus an
  optional attribute dict.
* Edges are unordered pairs with an optional string label and
  attribute dict.  Self-loops and parallel edges are rejected: the
  VQI literature this library reproduces works on simple graphs.
* Adjacency is a dict-of-dicts ``{u: {v: edge_key}}`` which makes
  neighbor iteration, membership tests, and edge-label lookup O(1).
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)

DEFAULT_LABEL = ""


def edge_key(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (sorted) key for an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """A simple undirected graph with labeled nodes and edges.

    Parameters
    ----------
    name:
        Optional human-readable identifier (e.g. a compound id).

    Examples
    --------
    >>> g = Graph(name="triangle")
    >>> for i in range(3):
    ...     _ = g.add_node(i, label="C")
    >>> g.add_edge(0, 1); g.add_edge(1, 2); g.add_edge(0, 2)
    >>> g.order(), g.size()
    (3, 3)
    """

    __slots__ = ("name", "_adj", "_node_labels", "_node_attrs",
                 "_edge_labels", "_edge_attrs", "_version", "_views")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._adj: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self._node_labels: Dict[int, str] = {}
        self._node_attrs: Dict[int, Dict[str, Any]] = {}
        self._edge_labels: Dict[Tuple[int, int], str] = {}
        self._edge_attrs: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._version = 0
        # lazily built derived views, tagged with the version they
        # were computed at: (version, {view_key: view}); see view()
        self._views: Optional[Tuple[int, Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Optional[int] = None, label: str = DEFAULT_LABEL,
                 **attrs: Any) -> int:
        """Add a node and return its id.

        If ``node`` is None a fresh id (max existing + 1) is allocated.
        Raises :class:`DuplicateNodeError` if the id already exists.
        """
        if node is None:
            node = max(self._adj, default=-1) + 1
        if node in self._adj:
            raise DuplicateNodeError(node)
        self._adj[node] = {}
        self._node_labels[node] = label
        if attrs:
            self._node_attrs[node] = dict(attrs)
        self._version += 1
        return node

    def add_edge(self, u: int, v: int, label: str = DEFAULT_LABEL,
                 **attrs: Any) -> Tuple[int, int]:
        """Add an undirected edge between existing nodes ``u`` and ``v``.

        Returns the canonical edge key.  Self-loops and duplicate edges
        raise :class:`GraphError` / :class:`DuplicateEdgeError`.
        """
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        key = edge_key(u, v)
        if key in self._edge_labels:
            raise DuplicateEdgeError(u, v)
        self._adj[u][v] = key
        self._adj[v][u] = key
        self._edge_labels[key] = label
        if attrs:
            self._edge_attrs[key] = dict(attrs)
        self._version += 1
        return key

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adj[node]):
            self.remove_edge(node, neighbor)
        del self._adj[node]
        del self._node_labels[node]
        self._node_attrs.pop(node, None)
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge between ``u`` and ``v``."""
        key = edge_key(u, v)
        if key not in self._edge_labels:
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        del self._edge_labels[key]
        self._edge_attrs.pop(key, None)
        self._version += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def order(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    def size(self) -> int:
        """Number of edges."""
        return len(self._edge_labels)

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(self._adj)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over canonical edge keys."""
        return iter(self._edge_labels)

    def has_node(self, node: int) -> bool:
        return node in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._edge_labels

    def neighbors(self, node: int) -> Iterator[int]:
        """Iterate over the neighbors of ``node``."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return iter(self._adj[node])

    def degree(self, node: int) -> int:
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return len(self._adj[node])

    def node_label(self, node: int) -> str:
        if node not in self._node_labels:
            raise NodeNotFoundError(node)
        return self._node_labels[node]

    def set_node_label(self, node: int, label: str) -> None:
        if node not in self._node_labels:
            raise NodeNotFoundError(node)
        self._node_labels[node] = label
        self._version += 1

    def edge_label(self, u: int, v: int) -> str:
        key = edge_key(u, v)
        if key not in self._edge_labels:
            raise EdgeNotFoundError(u, v)
        return self._edge_labels[key]

    def set_edge_label(self, u: int, v: int, label: str) -> None:
        key = edge_key(u, v)
        if key not in self._edge_labels:
            raise EdgeNotFoundError(u, v)
        self._edge_labels[key] = label
        self._version += 1

    def node_attrs(self, node: int) -> Dict[str, Any]:
        """Return the (mutable) attribute dict of ``node``."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return self._node_attrs.setdefault(node, {})

    def edge_attrs(self, u: int, v: int) -> Dict[str, Any]:
        """Return the (mutable) attribute dict of edge ``(u, v)``."""
        key = edge_key(u, v)
        if key not in self._edge_labels:
            raise EdgeNotFoundError(u, v)
        return self._edge_attrs.setdefault(key, {})

    def node_labels(self) -> Mapping[int, str]:
        """Read-only view of the node-label map."""
        return dict(self._node_labels)

    def edge_labels(self) -> Mapping[Tuple[int, int], str]:
        """Read-only view of the edge-label map."""
        return dict(self._edge_labels)

    def label_multiset(self) -> Dict[str, int]:
        """Count of node labels, used as a cheap similarity signature."""
        counts: Dict[str, int] = {}
        for label in self._node_labels.values():
            counts[label] = counts.get(label, 0) + 1
        return counts

    def density(self) -> float:
        """Edge density in [0, 1]; 0 for graphs with < 2 nodes."""
        n = self.order()
        if n < 2:
            return 0.0
        return 2.0 * self.size() / (n * (n - 1))

    def version(self) -> int:
        """Monotonic mutation counter (structure or label changes).

        Lets caches detect in-place modification: a memoized value
        tagged with an older version is stale.  Attribute-dict edits
        do not bump it — attributes take no part in matching.
        """
        return self._version

    def degree_sequence(self) -> List[int]:
        """Sorted (descending) degree sequence."""
        return sorted((len(nbrs) for nbrs in self._adj.values()),
                      reverse=True)

    # ------------------------------------------------------------------
    # cached derived views (invalidated through the version counter)
    # ------------------------------------------------------------------
    def view(self, key: Hashable, build: Callable[["Graph"], Any]) -> Any:
        """``build(self)``, computed once per :meth:`version`.

        The one memo for values derived from a graph's content (kernel
        views, canonical code, fingerprint, graphlets, subtree census).
        Views are shared read-only; ``build`` must be a pure function
        of the content, as two threads that miss together both build.
        """
        if self._views is None or self._views[0] != self._version:
            self._views = (self._version, {})
        views = self._views[1]
        try:
            return views[key]
        except KeyError:
            value = views[key] = build(self)
            return value

    def adjacency_sets(self) -> Dict[int, FrozenSet[int]]:
        """``{node: frozenset(neighbors)}``, cached per version.

        The frozensets make O(1) membership tests and fast set
        intersection available without re-materialising neighbor
        iterators in hot loops.  Treat the returned mapping as
        read-only; it is shared between callers until the graph's
        next mutation.
        """
        return self.view("adjacency_sets", lambda g: {
            u: frozenset(nbrs) for u, nbrs in g._adj.items()})

    def label_index(self) -> Dict[str, Tuple[int, ...]]:
        """``{label: (nodes with that label, ...)}``, cached per version.

        Node order within each tuple follows node-insertion order, so
        iteration over a label class is deterministic.
        """
        return self.view("label_index", _label_index)

    def compact(self) -> Any:
        """Frozen CSR snapshot of this graph, cached per version.

        See :class:`repro.graph.compact.CompactGraph`: flat int
        arrays (offsets, sorted neighbor positions, interned label
        tables) for slice-based hot loops and cheap pickling.  Like
        every view, it is rebuilt lazily after a mutation; treat it
        as read-only and never mutate the graph while iterating it.
        """
        # local import: repro.graph.compact imports Graph
        from repro.graph.compact import CompactGraph
        return self.view("compact", CompactGraph.from_graph)

    def neighbor_label_counts(self) -> Dict[int, Dict[str, int]]:
        """``{node: {label: count of neighbors with label}}``, cached.

        This is the neighborhood signature the matching kernel prunes
        candidate pools with: a target node whose neighborhood lacks a
        label the pattern node's neighborhood requires can never be an
        image of that pattern node.
        """
        return self.view("neighbor_label_counts", _neighbor_label_counts)

    # ------------------------------------------------------------------
    # copies and equality helpers
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Graph":
        """Deep-enough copy (attribute dicts are shallow-copied)."""
        g = Graph(name=self.name if name is None else name)
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._node_labels = dict(self._node_labels)
        g._node_attrs = {u: dict(a) for u, a in self._node_attrs.items()}
        g._edge_labels = dict(self._edge_labels)
        g._edge_attrs = {k: dict(a) for k, a in self._edge_attrs.items()}
        return g

    def relabeled(self, mapping: Mapping[int, int],
                  name: Optional[str] = None) -> "Graph":
        """Return a copy with node ids renamed through ``mapping``.

        Every node must be mapped and the mapping must be injective.
        """
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabeling mapping is not injective")
        g = Graph(name=self.name if name is None else name)
        for u in self._adj:
            if u not in mapping:
                raise GraphError(f"node {u!r} missing from relabeling")
            g.add_node(mapping[u], label=self._node_labels[u],
                       **self._node_attrs.get(u, {}))
        for (u, v), label in self._edge_labels.items():
            g.add_edge(mapping[u], mapping[v], label=label,
                       **self._edge_attrs.get((u, v), {}))
        return g

    def normalized(self, name: Optional[str] = None) -> "Graph":
        """Return a copy with nodes renamed to 0..n-1 (sorted order)."""
        mapping = {u: i for i, u in enumerate(sorted(self._adj))}
        return self.relabeled(mapping, name=name)

    def same_as(self, other: "Graph") -> bool:
        """Exact equality of structure and labels (not isomorphism)."""
        return (self._node_labels == other._node_labels
                and self._edge_labels == other._edge_labels)

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle through the compact wire format.

        Workers in a process pool receive graphs per item; shipping
        the flat byte buffers of :meth:`compact` instead of the
        nested adjacency dicts cuts the payload several-fold and
        decodes in one pass.  The compact view is cached per version,
        so repeated pickles of an unchanged graph re-use one
        snapshot.  Round trip is lossless including insertion order
        (see ``repro.graph.compact.decode_graph``).
        """
        from repro.graph.compact import decode_graph
        return (decode_graph, (self.compact().encode(),))

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self.order()} m={self.size()}>"


def _label_index(graph: Graph) -> Dict[str, Tuple[int, ...]]:
    grouped: Dict[str, List[int]] = {}
    for node in graph._adj:
        grouped.setdefault(graph._node_labels[node], []).append(node)
    return {label: tuple(nodes) for label, nodes in grouped.items()}


def _neighbor_label_counts(graph: Graph) -> Dict[int, Dict[str, int]]:
    labels = graph._node_labels
    return {u: dict(Counter(labels[v] for v in nbrs))
            for u, nbrs in graph._adj.items()}


def build_graph(node_labels: Iterable[Tuple[int, str]],
                edges: Iterable[Tuple[int, int]] = (),
                labeled_edges: Iterable[Tuple[int, int, str]] = (),
                name: str = "") -> Graph:
    """Build a graph in one call.

    Parameters
    ----------
    node_labels:
        Iterable of ``(node_id, label)`` pairs.
    edges:
        Unlabeled edges as ``(u, v)`` pairs.
    labeled_edges:
        Edges as ``(u, v, label)`` triples.
    """
    g = Graph(name=name)
    for node, label in node_labels:
        g.add_node(node, label=label)
    for u, v in edges:
        g.add_edge(u, v)
    for u, v, label in labeled_edges:
        g.add_edge(u, v, label=label)
    return g
