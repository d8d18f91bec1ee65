"""Tests for k-truss decomposition, with invariant checks."""

import random

import pytest

from repro.datasets import NetworkConfig, generate_network
from repro.graph import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    gnm_random_graph,
    path_graph,
    planted_partition_graph,
)
from repro.truss import (
    edge_support,
    max_trussness,
    split_by_truss,
    truss_decomposition,
    truss_statistics,
)
from tests.oracles import truss_decomposition_rescan


class TestSupport:
    def test_triangle_support(self):
        support = edge_support(complete_graph(3))
        assert all(s == 1 for s in support.values())

    def test_k4_support(self):
        support = edge_support(complete_graph(4))
        assert all(s == 2 for s in support.values())

    def test_path_zero_support(self):
        support = edge_support(path_graph(5))
        assert all(s == 0 for s in support.values())


class TestDecomposition:
    def test_clique_trussness(self):
        # every edge of Kn has trussness n
        for n in (3, 4, 5, 6):
            trussness = truss_decomposition(complete_graph(n))
            assert all(k == n for k in trussness.values())

    def test_tree_trussness_two(self):
        trussness = truss_decomposition(path_graph(6))
        assert all(k == 2 for k in trussness.values())

    def test_cycle_trussness_two(self):
        trussness = truss_decomposition(cycle_graph(7))
        assert all(k == 2 for k in trussness.values())

    def test_mixed_graph(self):
        # K4 joined to a path: clique edges trussness 4, path edges 2
        g = complete_graph(4)
        g.add_node(4)
        g.add_node(5)
        g.add_edge(3, 4)
        g.add_edge(4, 5)
        trussness = truss_decomposition(g)
        assert trussness[(3, 4)] == 2
        assert trussness[(4, 5)] == 2
        assert trussness[(0, 1)] == 4

    def test_every_edge_assigned(self):
        g = gnm_random_graph(12, 24, random.Random(1))
        trussness = truss_decomposition(g)
        assert set(trussness) == set(g.edges())

    def test_truss_subgraph_invariant(self):
        """Within the k-truss, every edge is in >= k-2 triangles."""
        from repro.graph import edge_subgraph
        g = planted_partition_graph(2, 10, 0.8, 0.05, random.Random(3))
        trussness = truss_decomposition(g)
        k = 4
        edges_k = [e for e, t in trussness.items() if t >= k]
        if edges_k:
            sub = edge_subgraph(g, edges_k)
            support = edge_support(sub)
            assert all(s >= k - 2 for s in support.values())

    def test_maximality(self):
        """Trussness-k edges do not survive in the (k+1)-truss."""
        from repro.graph import edge_subgraph
        g = gnm_random_graph(14, 40, random.Random(7))
        trussness = truss_decomposition(g)
        for k in sorted(set(trussness.values())):
            edges_up = [e for e, t in trussness.items() if t >= k + 1]
            if not edges_up:
                continue
            sub = edge_subgraph(g, edges_up)
            support = edge_support(sub)
            assert all(s >= k - 1 for s in support.values())

    def test_empty_graph(self):
        from repro.graph import Graph
        assert truss_decomposition(Graph()) == {}
        assert max_trussness(Graph()) == 0

    def test_max_trussness(self):
        assert max_trussness(complete_graph(5)) == 5
        assert max_trussness(path_graph(4)) == 2


class TestBucketQueueAgainstRescan:
    """The bucket-queue peeler must agree with the legacy rescan
    peeler — the oracle it replaced — on every graph shape."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        g = gnm_random_graph(16, 40, random.Random(seed))
        assert truss_decomposition(g) == truss_decomposition_rescan(g)

    def test_planted_partitions(self):
        g = planted_partition_graph(3, 12, 0.7, 0.05, random.Random(4))
        assert truss_decomposition(g) == truss_decomposition_rescan(g)

    def test_structured_graphs(self):
        for g in (complete_graph(6), path_graph(7), cycle_graph(8),
                  disjoint_union([complete_graph(4), complete_graph(5),
                                  path_graph(4)])):
            assert truss_decomposition(g) == truss_decomposition_rescan(g)

    def test_overlapping_cliques(self):
        # two K4s sharing an edge: shared edge support is highest
        g = complete_graph(4)
        g.add_node(4)
        g.add_node(5)
        for u in (0, 1):
            g.add_edge(u, 4)
            g.add_edge(u, 5)
        g.add_edge(4, 5)
        assert truss_decomposition(g) == truss_decomposition_rescan(g)

    #: larger inputs: a TATTOO-style network, a planted partition, a
    #: dense random graph
    SMOKE_GRAPHS = {
        "network": lambda: generate_network(
            NetworkConfig(nodes=150, cliques=4, petals=3, flowers=3),
            seed=2),
        "planted": lambda: planted_partition_graph(
            3, 12, 0.6, 0.03, random.Random(3)),
        "random": lambda: gnm_random_graph(40, 120, random.Random(9)),
    }

    @pytest.mark.parametrize("name", sorted(SMOKE_GRAPHS))
    def test_smoke_graphs(self, name):
        g = self.SMOKE_GRAPHS[name]()
        assert truss_decomposition(g) == truss_decomposition_rescan(g)

    def test_empty_and_edgeless(self):
        from repro.graph import Graph
        assert truss_decomposition_rescan(Graph()) == {}
        g = Graph()
        g.add_node(0)
        assert truss_decomposition(g) == truss_decomposition_rescan(g)


class TestSplit:
    def test_split_partitions_edges(self):
        g = planted_partition_graph(2, 10, 0.7, 0.05, random.Random(5))
        g_t, g_o = split_by_truss(g)
        assert g_t.size() + g_o.size() == g.size()
        overlap = set(g_t.edges()) & set(g_o.edges())
        assert not overlap

    def test_dense_region_in_truss_part(self):
        g = disjoint_union([complete_graph(5), path_graph(6)])
        g_t, g_o = split_by_truss(g)
        assert g_t.size() == 10  # the K5 edges
        assert g_o.size() == 5   # the path edges

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            split_by_truss(path_graph(3), threshold=2)

    def test_triangle_free_graph_all_oblivious(self):
        g = cycle_graph(8)
        g_t, g_o = split_by_truss(g)
        assert g_t.size() == 0
        assert g_o.size() == 8

    def test_statistics(self):
        stats = truss_statistics(complete_graph(5))
        assert stats["max_trussness"] == 5
        assert stats["infested_fraction"] == 1.0
        from repro.graph import Graph
        assert truss_statistics(Graph())["edges"] == 0
