"""Unit tests for the Graph data model."""

import pytest

from repro.errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)
from repro.clustering.features import subtree_census
from repro.graph import Graph, build_graph, edge_key
from repro.graphlets import count_graphlets
from repro.matching import canonical_code, isomorphism
from repro.perf import graph_fingerprint


def triangle():
    g = Graph(name="tri")
    for i in range(3):
        g.add_node(i, label="C")
    g.add_edge(0, 1, label="s")
    g.add_edge(1, 2, label="s")
    g.add_edge(0, 2, label="d")
    return g


class TestNodeOperations:
    def test_add_node_returns_id(self):
        g = Graph()
        assert g.add_node(5, label="A") == 5

    def test_add_node_auto_id(self):
        g = Graph()
        assert g.add_node(label="A") == 0
        assert g.add_node(label="B") == 1

    def test_auto_id_skips_existing(self):
        g = Graph()
        g.add_node(10)
        assert g.add_node() == 11

    def test_duplicate_node_rejected(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(DuplicateNodeError):
            g.add_node(1)

    def test_node_label_roundtrip(self):
        g = Graph()
        g.add_node(0, label="N")
        assert g.node_label(0) == "N"
        g.set_node_label(0, "O")
        assert g.node_label(0) == "O"

    def test_node_label_missing_node(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            g.node_label(3)

    def test_node_attrs(self):
        g = Graph()
        g.add_node(0, label="C", charge=-1)
        assert g.node_attrs(0) == {"charge": -1}
        g.node_attrs(0)["charge"] = 2
        assert g.node_attrs(0)["charge"] == 2

    def test_remove_node_removes_incident_edges(self):
        g = triangle()
        g.remove_node(1)
        assert g.order() == 2
        assert g.size() == 1
        assert g.has_edge(0, 2)

    def test_remove_missing_node(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            g.remove_node(0)

    def test_contains_and_len(self):
        g = triangle()
        assert 0 in g and 3 not in g
        assert len(g) == 3


class TestEdgeOperations:
    def test_add_edge_canonical_key(self):
        g = Graph()
        g.add_node(0)
        g.add_node(1)
        assert g.add_edge(1, 0) == (0, 1)
        assert edge_key(1, 0) == (0, 1)

    def test_edge_requires_nodes(self):
        g = Graph()
        g.add_node(0)
        with pytest.raises(NodeNotFoundError):
            g.add_edge(0, 1)

    def test_self_loop_rejected(self):
        g = Graph()
        g.add_node(0)
        with pytest.raises(GraphError):
            g.add_edge(0, 0)

    def test_duplicate_edge_rejected(self):
        g = Graph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1)
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(1, 0)

    def test_edge_label_both_directions(self):
        g = triangle()
        assert g.edge_label(0, 2) == "d"
        assert g.edge_label(2, 0) == "d"

    def test_set_edge_label(self):
        g = triangle()
        g.set_edge_label(0, 1, "t")
        assert g.edge_label(1, 0) == "t"

    def test_edge_label_missing(self):
        g = Graph()
        g.add_node(0)
        g.add_node(1)
        with pytest.raises(EdgeNotFoundError):
            g.edge_label(0, 1)

    def test_remove_edge(self):
        g = triangle()
        g.remove_edge(2, 1)
        assert not g.has_edge(1, 2)
        assert g.size() == 2

    def test_remove_missing_edge(self):
        g = triangle()
        g.remove_edge(0, 1)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 1)

    def test_edge_attrs(self):
        g = Graph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1, weight=3)
        assert g.edge_attrs(1, 0) == {"weight": 3}


class TestInspection:
    def test_order_size(self):
        g = triangle()
        assert (g.order(), g.size()) == (3, 3)

    def test_neighbors_and_degree(self):
        g = triangle()
        assert sorted(g.neighbors(0)) == [1, 2]
        assert g.degree(0) == 2

    def test_neighbors_missing(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            list(g.neighbors(9))

    def test_density(self):
        assert triangle().density() == 1.0
        g = Graph()
        assert g.density() == 0.0
        g.add_node(0)
        assert g.density() == 0.0

    def test_degree_sequence(self):
        g = triangle()
        g.add_node(3, label="H")
        g.add_edge(0, 3)
        assert g.degree_sequence() == [3, 2, 2, 1]

    def test_label_multiset(self):
        g = triangle()
        g.add_node(3, label="H")
        assert g.label_multiset() == {"C": 3, "H": 1}


class TestCopiesAndRelabeling:
    def test_copy_independent(self):
        g = triangle()
        h = g.copy()
        h.remove_edge(0, 1)
        h.set_node_label(0, "X")
        assert g.has_edge(0, 1)
        assert g.node_label(0) == "C"

    def test_copy_preserves_attrs(self):
        g = Graph()
        g.add_node(0, label="C", charge=1)
        g.add_node(1, label="C")
        g.add_edge(0, 1, label="b", order=2)
        h = g.copy()
        assert h.node_attrs(0) == {"charge": 1}
        assert h.edge_attrs(0, 1) == {"order": 2}

    def test_relabeled(self):
        g = triangle()
        h = g.relabeled({0: 10, 1: 11, 2: 12})
        assert h.has_edge(10, 11) and h.has_edge(10, 12)
        assert h.node_label(10) == "C"
        assert h.edge_label(10, 12) == "d"

    def test_relabeled_requires_injective(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.relabeled({0: 5, 1: 5, 2: 6})

    def test_relabeled_requires_total(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.relabeled({0: 5, 1: 6})

    def test_normalized(self):
        g = triangle().relabeled({0: 100, 1: 50, 2: 75})
        h = g.normalized()
        assert sorted(h.nodes()) == [0, 1, 2]

    def test_same_as(self):
        assert triangle().same_as(triangle())
        g = triangle()
        g.set_node_label(0, "N")
        assert not g.same_as(triangle())


class TestBuildGraph:
    def test_build_with_labeled_edges(self):
        g = build_graph([(0, "A"), (1, "B")], labeled_edges=[(0, 1, "x")],
                        name="g")
        assert g.edge_label(0, 1) == "x"
        assert g.name == "g"

    def test_build_with_plain_edges(self):
        g = build_graph([(0, "A"), (1, "B"), (2, "C")],
                        edges=[(0, 1), (1, 2)])
        assert g.size() == 2

    def test_repr(self):
        assert "n=3" in repr(triangle())


#: The views other modules keep in a graph's view store, by the call
#: that reads each one.
DERIVED_VIEWS = {
    "canonical_code": canonical_code,
    "fingerprint": graph_fingerprint,
    "graphlets": lambda g: g.view("graphlets", count_graphlets),
    "match_plan": lambda g: g.view("match_plan", isomorphism._match_plan),
    "subtree_census": subtree_census,
}


def derived_views(g):
    return {name: read(g) for name, read in DERIVED_VIEWS.items()}


def assert_rebuilt(g, before):
    """Every derived view is a new object, equal to one computed on
    a fresh copy (which has no views yet)."""
    fresh = derived_views(g.copy())
    for name, read in DERIVED_VIEWS.items():
        assert read(g) is not before[name], name
        assert read(g) == fresh[name], name


class TestCachedViews:
    """adjacency_sets / label_index / neighbor_label_counts and the
    derived views in DERIVED_VIEWS: content, caching, and invalidation
    through the version counter."""

    def test_adjacency_sets_content(self):
        g = triangle()
        adj = g.adjacency_sets()
        assert adj == {0: frozenset({1, 2}), 1: frozenset({0, 2}),
                       2: frozenset({0, 1})}

    def test_label_index_content_and_order(self):
        g = build_graph([(0, "A"), (1, "B"), (2, "A")])
        assert g.label_index() == {"A": (0, 2), "B": (1,)}

    def test_neighbor_label_counts_content(self):
        g = build_graph([(0, "A"), (1, "B"), (2, "B")],
                        edges=[(0, 1), (0, 2)])
        counts = g.neighbor_label_counts()
        assert counts[0] == {"B": 2}
        assert counts[1] == {"A": 1}

    def test_views_are_cached_until_mutation(self):
        g = triangle()
        assert g.adjacency_sets() is g.adjacency_sets()
        assert g.label_index() is g.label_index()
        assert g.neighbor_label_counts() is g.neighbor_label_counts()
        for name, read in DERIVED_VIEWS.items():
            assert read(g) is read(g), name

    def test_structural_mutation_invalidates(self):
        g = triangle()
        before = g.adjacency_sets()
        derived = derived_views(g)
        g.add_node(3, label="C")
        g.add_edge(2, 3)
        after = g.adjacency_sets()
        assert after is not before
        assert after[3] == frozenset({2})
        assert 3 in after[2]
        assert_rebuilt(g, derived)

    def test_label_mutation_invalidates(self):
        g = triangle()
        assert g.label_index() == {"C": (0, 1, 2)}
        derived = derived_views(g)
        g.set_node_label(1, "N")
        assert g.label_index() == {"C": (0, 2), "N": (1,)}
        assert g.neighbor_label_counts()[0] == {"C": 1, "N": 1}
        assert_rebuilt(g, derived)

    def test_edge_removal_invalidates(self):
        g = triangle()
        g.adjacency_sets()
        derived = derived_views(g)
        g.remove_edge(0, 1)
        assert g.adjacency_sets()[0] == frozenset({2})
        assert_rebuilt(g, derived)

    def test_copies_do_not_share_views(self):
        g = triangle()
        view = g.adjacency_sets()
        h = g.copy()
        h.add_node(9, label="X")
        assert 9 not in view
        assert 9 in h.adjacency_sets()


class TestVersionCounter:
    """Mutations bump the version exactly once, after every write.

    The "bump last" ordering is what makes the counter safe to use as
    a cache tag: any state observed at version ``v`` is complete for
    ``v``.  These tests pin the increment counts; reprolint's R011
    pins the ordering itself.
    """

    def test_add_node_with_attrs_bumps_once(self):
        g = Graph()
        before = g.version()
        g.add_node(0, label="C", weight=2.5)
        assert g.version() == before + 1
        assert g.node_attrs(0) == {"weight": 2.5}

    def test_add_edge_with_attrs_bumps_once(self):
        g = Graph()
        g.add_node(0)
        g.add_node(1)
        before = g.version()
        g.add_edge(0, 1, label="s", weight=0.5)
        assert g.version() == before + 1
        assert g.edge_attrs(0, 1) == {"weight": 0.5}

    def test_attr_dict_edits_do_not_bump(self):
        g = triangle()
        before = g.version()
        g.node_attrs(0)["seen"] = True
        g.edge_attrs(0, 1)["w"] = 1.0
        assert g.version() == before

    def test_view_built_after_attr_mutation_is_current(self):
        # the view cache is tagged with the version at build time; a
        # view requested right after an attr-carrying add must see
        # the complete post-mutation state
        g = triangle()
        g.adjacency_sets()
        g.add_node(3, label="X", weight=1)
        g.add_edge(2, 3, label="s", weight=2)
        assert g.adjacency_sets()[3] == frozenset({2})
        assert g.label_index()["X"] == (3,)

    def test_removals_bump_monotonically(self):
        g = triangle()
        before = g.version()
        g.remove_edge(0, 1)
        assert g.version() == before + 1
        # remove_node cascades through remove_edge for incident
        # edges, so it may bump several times — monotonicity is the
        # contract, not the exact count
        g.remove_node(2)
        assert g.version() > before + 1
