"""Tests for visual actions, the query builder, and the query engine."""

import pytest

from repro.datasets import NetworkConfig, generate_chemical_repository, \
    generate_network, generate_network_workload
from repro.errors import GraphError
from repro.graph import build_graph, cycle_graph, path_graph
from repro.graph.operations import induced_subgraph
from repro.matching import WILDCARD
from repro.patterns import Pattern
from repro.query import (
    AddEdge,
    AddNode,
    AddPattern,
    DeleteEdge,
    DeleteNode,
    MergeNodes,
    NetworkQueryEngine,
    QueryBuilder,
    QueryEngine,
    SetEdgeLabel,
    SetNodeLabel,
)


class TestQueryBuilder:
    def test_add_node_returns_fresh_ids(self):
        qb = QueryBuilder()
        assert qb.add_node("A") == 0
        assert qb.add_node("B") == 1
        assert qb.query.node_label(0) == "A"

    def test_add_edge(self):
        qb = QueryBuilder()
        u, v = qb.add_node("A"), qb.add_node("B")
        qb.add_edge(u, v, label="x")
        assert qb.query.edge_label(u, v) == "x"

    def test_set_labels(self):
        qb = QueryBuilder()
        u, v = qb.add_node(), qb.add_node()
        qb.add_edge(u, v)
        qb.apply(SetNodeLabel(u, "C"))
        qb.apply(SetEdgeLabel(u, v, "1"))
        assert qb.query.node_label(u) == "C"
        assert qb.query.edge_label(u, v) == "1"

    def test_add_pattern_maps_ids(self):
        qb = QueryBuilder()
        pattern = Pattern(cycle_graph(4, label="A"))
        mapping = qb.add_pattern(pattern)
        assert len(mapping) == 4
        assert qb.query.order() == 4
        assert qb.query.size() == 4

    def test_two_patterns_disjoint_ids(self):
        qb = QueryBuilder()
        p = Pattern(path_graph(3, label="A"))
        m1 = qb.add_pattern(p)
        m2 = qb.add_pattern(p)
        assert not (set(m1.values()) & set(m2.values()))

    def test_merge_nodes_rewires(self):
        qb = QueryBuilder()
        a = qb.add_node("A")
        b = qb.add_node("B")
        c = qb.add_node("C")
        qb.add_edge(b, c, label="e")
        qb.merge_nodes(a, b)
        assert not qb.query.has_node(b)
        assert qb.query.has_edge(a, c)
        assert qb.query.edge_label(a, c) == "e"

    def test_merge_validation(self):
        qb = QueryBuilder()
        a = qb.add_node()
        with pytest.raises(GraphError):
            qb.merge_nodes(a, a)
        with pytest.raises(GraphError):
            qb.merge_nodes(a, 99)

    def test_deletes(self):
        qb = QueryBuilder()
        a, b = qb.add_node(), qb.add_node()
        qb.add_edge(a, b)
        qb.apply(DeleteEdge(a, b))
        assert qb.query.size() == 0
        qb.apply(DeleteNode(b))
        assert qb.query.order() == 1

    def test_history_and_counts(self):
        qb = QueryBuilder()
        a, b = qb.add_node("A"), qb.add_node("B")
        qb.add_edge(a, b)
        assert qb.step_count() == 3
        assert qb.action_counts() == {"add_node": 2, "add_edge": 1}

    def test_action_descriptions(self):
        assert "add node" in AddNode("X").describe()
        assert "drop pattern" in AddPattern(
            Pattern(path_graph(3))).describe()
        assert "merge" in MergeNodes(0, 1).describe()


class TestQueryEngine:
    @pytest.fixture(scope="class")
    def repo(self):
        return generate_chemical_repository(25, seed=13)

    @pytest.fixture(scope="class")
    def engine(self, repo):
        return QueryEngine(repo)

    def test_label_pruning(self, engine, repo):
        query = build_graph([(0, "C"), (1, "ZZZ")], edges=[(0, 1)])
        assert engine.candidate_graphs(query) == []

    def test_run_finds_matches(self, engine, repo):
        query = build_graph([(0, "C"), (1, "C")],
                            labeled_edges=[(0, 1, "1")])
        results = engine.run(query)
        assert results.match_count() > 0
        # every reported embedding is valid
        for match in results.matches:
            for embedding in match.embeddings:
                for u, v in query.edges():
                    assert match.graph.has_edge(embedding[u],
                                                embedding[v])

    def test_embedding_cap(self, engine):
        query = build_graph([(0, "C"), (1, "C")],
                            labeled_edges=[(0, 1, "1")])
        results = engine.run(query, max_embeddings_per_graph=2)
        assert all(len(m.embeddings) <= 2 for m in results.matches)

    def test_max_matches(self, engine):
        query = build_graph([(0, "C"), (1, "C")],
                            labeled_edges=[(0, 1, "1")])
        results = engine.run(query, max_matches=3)
        assert results.match_count() <= 3

    def test_pruning_statistics(self, engine, repo):
        query = build_graph([(0, "S"), (1, "S")], edges=[(0, 1)])
        results = engine.run(query)
        assert results.graphs_searched + results.graphs_pruned == len(repo)

    def test_empty_query_rejected(self, engine):
        from repro.graph import Graph
        with pytest.raises(GraphError):
            engine.run(Graph())

    def test_wildcard_query_searches_everything(self, engine, repo):
        from repro.matching import WILDCARD
        query = build_graph([(0, WILDCARD), (1, WILDCARD)],
                            edges=[(0, 1)])
        assert len(engine.candidate_graphs(query)) == len(repo)

    def test_rarest_first_matches_brute_force(self, engine, repo):
        # the rarest-label-first intersection order is an optimization
        # only: candidates must equal the naive all-labels intersection
        query = build_graph([(0, "C"), (1, "O"), (2, "N"), (3, "S")],
                            edges=[(0, 1), (1, 2), (2, 3)])
        labels = {query.node_label(u) for u in query.nodes()}
        brute = [idx for idx in range(len(repo))
                 if labels <= set(repo[idx].label_multiset())]
        assert engine.candidate_graphs(query) == brute

    def test_network_query_pool_candidates(self):
        # the service benchmark's net-explore pool (400 queries on the
        # default network) over that network and its five one-label-
        # short induced subgraphs: every candidate list is the one the
        # queries' compact label tables give
        network = generate_network(NetworkConfig(), seed=1)
        labels = sorted({network.node_label(u) for u in network.nodes()})
        repository = [network] + [
            induced_subgraph(network, [u for u in network.nodes()
                                       if network.node_label(u) != lab])
            for lab in labels]
        engine = QueryEngine(repository)
        held = [set(graph.label_index()) for graph in repository]
        lists = set()
        for query in generate_network_workload(network, 400, seed=1):
            wanted = set(query.compact().node_labels) - {WILDCARD}
            expected = [idx for idx, present in enumerate(held)
                        if wanted <= present]
            assert engine.candidate_graphs(query) == expected
            lists.add(tuple(expected))
        assert len(lists) > 2

    def test_absent_label_short_circuits(self, engine):
        # a label no graph carries empties the intersection regardless
        # of how common the other labels are
        query = build_graph([(0, "ZZZ"), (1, "C"), (2, "C")],
                            edges=[(0, 1), (1, 2)])
        assert engine.candidate_graphs(query) == []


class TestNetworkQueryEngine:
    def test_network_embeddings(self):
        net = generate_network(NetworkConfig(nodes=100), seed=3)
        engine = NetworkQueryEngine(net)
        label = net.node_label(next(iter(net.nodes())))
        query = build_graph([(0, label)])
        query.add_node(1, label=label)
        # may be 0 edges; add an edge only between two adjacent nodes
        from repro.graph import Graph
        q = Graph()
        u, v = next(iter(net.edges()))
        q.add_node(0, label=net.node_label(u))
        q.add_node(1, label=net.node_label(v))
        q.add_edge(0, 1, label=net.edge_label(u, v))
        embeddings = engine.run(q, max_embeddings=5)
        assert embeddings
        assert len(embeddings) <= 5

    def test_empty_query_rejected(self):
        net = generate_network(NetworkConfig(nodes=50), seed=3)
        from repro.graph import Graph
        with pytest.raises(GraphError):
            NetworkQueryEngine(net).run(Graph())
