"""Tests for subtree features, FCT mining, similarity, and k-medoids."""

import random

import pytest

from repro.clustering import (
    MinedTree,
    closed_frequent_trees,
    connected_tree_subgraphs,
    distance_matrix_from_graphs,
    distance_matrix_from_vectors,
    feature_vector_from_vocabulary,
    kmedoids,
    mine_frequent_trees,
    repository_feature_matrix,
    silhouette_score,
    structural_distance,
    structural_similarity,
    tree_feature_counts,
    vector_cosine_distance,
    vector_euclidean,
)
from repro import obs
from repro.clustering.features import FCTIndex, subtree_census
from repro.datasets import generate_chemical_repository
from repro.errors import PipelineError
from repro.graph import (
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    is_tree,
    path_graph,
    star_graph,
)
from repro.matching import canonical_code


class TestTreeSubgraphs:
    def test_all_yields_are_trees(self):
        g = complete_graph(4, label="A")
        for subset, subtree in connected_tree_subgraphs(g, 3):
            assert is_tree(subtree)
            assert subtree.size() == len(subset)

    def test_path_counts(self):
        # P4: 3 single edges, 2 two-edge paths, 1 three-edge path
        g = path_graph(4, label="A")
        sizes = [len(s) for s, _ in connected_tree_subgraphs(g, 3)]
        assert sizes.count(1) == 3
        assert sizes.count(2) == 2
        assert sizes.count(3) == 1

    def test_max_edges_respected(self):
        g = path_graph(6, label="A")
        assert all(len(s) <= 2
                   for s, _ in connected_tree_subgraphs(g, 2))

    def test_triangle_excluded(self):
        g = complete_graph(3, label="A")
        # 3 edges of K3 form a cycle, not a tree: only sizes 1 and 2
        sizes = [len(s) for s, _ in connected_tree_subgraphs(g, 3)]
        assert 3 not in sizes

    def test_feature_counts_isomorphism_classes(self):
        g = star_graph(3, label="A")
        counts = tree_feature_counts(g)
        # 3 edges (1 class), 3 cherries (1 class), 1 star (1 class)
        assert sorted(counts.values()) == [1, 3, 3]


class TestFrequentTrees:
    def test_min_support_filters(self):
        repo = [path_graph(3, label="A"), path_graph(3, label="A"),
                path_graph(2, label="B")]
        mined = mine_frequent_trees(repo, min_support=2)
        assert mined  # the A-A edge and A-A-A path occur twice
        assert all(t.support >= 2 for t in mined)

    def test_support_is_document_frequency(self):
        # one graph with many copies of an edge still counts once
        repo = [star_graph(5, label="A"), path_graph(2, label="A")]
        mined = mine_frequent_trees(repo, min_support=2)
        edge_tree = [t for t in mined if t.graph.size() == 1]
        assert len(edge_tree) == 1
        assert edge_tree[0].support == 2

    def test_empty_repo(self):
        assert mine_frequent_trees([], min_support=1) == []


class TestClosedTrees:
    def test_subsumed_tree_removed(self):
        # every graph contains A-A-A path; the A-A edge has the same
        # support and a frequent supertree -> not closed
        repo = [path_graph(3, label="A") for _ in range(3)]
        mined = mine_frequent_trees(repo, min_support=2)
        closed = closed_frequent_trees(mined)
        closed_sizes = sorted(t.graph.size() for t in closed)
        assert closed_sizes == [2]  # only the 2-edge path survives

    def test_distinct_support_kept(self):
        repo = [path_graph(3, label="A"), path_graph(3, label="A"),
                path_graph(2, label="A")]
        mined = mine_frequent_trees(repo, min_support=2)
        closed = closed_frequent_trees(mined)
        # edge has support 3, path2 support 2: both closed
        assert sorted(t.graph.size() for t in closed) == [1, 2]

    def test_empty_input(self):
        assert closed_frequent_trees([]) == []


class TestFeatureVectors:
    def test_vocabulary_vector_alignment(self):
        repo = [path_graph(4, label="A"), star_graph(3, label="A")]
        vocab = mine_frequent_trees(repo, min_support=1)
        matrix = repository_feature_matrix(repo, vocab)
        assert len(matrix) == 2
        assert all(len(row) == len(vocab) for row in matrix)

    def test_vector_counts_occurrences(self):
        repo = [path_graph(3, label="A")]
        vocab = mine_frequent_trees(repo, min_support=1)
        vector = feature_vector_from_vocabulary(star_graph(4, label="A"),
                                                vocab)
        edge_idx = next(i for i, t in enumerate(vocab)
                        if t.graph.size() == 1)
        assert vector[edge_idx] == 4.0


def census_oracle(graph, max_edges=3):
    """``{code: count}`` and ``{code: first subtree}``, recomputed from
    scratch on fresh subtree objects, in enumeration order."""
    counts, first = {}, {}
    for _, subtree in connected_tree_subgraphs(graph, max_edges):
        code = canonical_code(subtree)
        counts[code] = counts.get(code, 0) + 1
        first.setdefault(code, subtree)
    return counts, first


def mining_oracle(repository, max_edges=3):
    """Document-frequency supports and first-seen representatives."""
    supports, representatives = {}, {}
    for graph in repository:
        counts, first = census_oracle(graph, max_edges)
        for code in counts:
            supports[code] = supports.get(code, 0) + 1
            representatives.setdefault(code, first[code].normalized())
    return supports, representatives


def small_graphs():
    """The graphs the tests above mine and count."""
    return [path_graph(4, label="A"), star_graph(3, label="A"),
            complete_graph(4, label="A"), complete_graph(3, label="A"),
            path_graph(3, label="A"), path_graph(2, label="B"),
            star_graph(5, label="A"), path_graph(2, label="A"),
            path_graph(6, label="A"), star_graph(4, label="A"),
            cycle_graph(5, label="A"),
            gnm_random_graph(6, 7, random.Random(1), labels=["A", "B"])]


@pytest.fixture(scope="module")
def chem_repo():
    return generate_chemical_repository(40, seed=21)


def misses():
    return obs.matching_snapshot()["canonical_memo_misses"]


class TestSubtreeCensus:
    """One census per graph feeds every subtree consumer, and each of
    them equals a from-scratch enumeration."""

    def test_one_enumeration_per_graph(self, chem_repo):
        repo = [graph.copy() for graph in chem_repo]  # no views yet
        obs.reset()
        index = FCTIndex()
        index.build(repo)
        first = misses()
        assert first > 0
        repository_feature_matrix(repo, index.frequent_closed())
        index.build(repo)
        assert mine_frequent_trees(repo)
        assert misses() == first

    def test_census_is_keyed_by_max_edges(self):
        g = path_graph(4, label="A")
        shallow = subtree_census(g, 2)
        assert shallow is not subtree_census(g, 3)
        assert sum(count for count, _ in shallow.values()) == 5
        assert sum(count for count, _ in subtree_census(g).values()) == 6

    @pytest.mark.parametrize("source", ["small", "chemical"])
    def test_feature_counts_match_scratch(self, source, chem_repo):
        graphs = small_graphs() if source == "small" else chem_repo
        for graph in graphs:
            counts, _ = census_oracle(graph)
            got = tree_feature_counts(graph)
            assert got == counts
            assert list(got) == list(counts)  # first-met order

    @pytest.mark.parametrize("source", ["small", "chemical"])
    def test_mined_trees_match_scratch(self, source, chem_repo):
        graphs = small_graphs() if source == "small" else chem_repo
        supports, representatives = mining_oracle(graphs)
        for min_support in (1, 2):
            mined = mine_frequent_trees(graphs, min_support=min_support)
            assert [(t.code, t.support) for t in mined] == sorted(
                (code, support) for code, support in supports.items()
                if support >= min_support)
            for tree in mined:
                assert tree.graph.same_as(representatives[tree.code])

    def test_fct_index_after_updates_matches_scratch(self, chem_repo):
        index = FCTIndex(min_support=2)
        index.build(chem_repo[:30])
        for graph in chem_repo[30:35]:
            index.add_graph(graph)
        for graph in chem_repo[:5]:
            index.remove_graph(graph)
        supports, _ = mining_oracle(chem_repo[5:35])
        # representatives are first seen over the index's lifetime
        _, representatives = mining_oracle(chem_repo[:35])
        trees = index.frequent_trees()
        assert [(t.code, t.support) for t in trees] == sorted(
            (code, support) for code, support in supports.items()
            if support >= 2)
        for tree in trees:
            assert tree.graph.same_as(representatives[tree.code])


class TestSimilarity:
    def test_self_similarity(self):
        g = cycle_graph(5, label="A")
        assert structural_similarity(g, g) == pytest.approx(1.0)
        assert structural_distance(g, g) == pytest.approx(0.0)

    def test_different_structures_less_similar(self):
        a = path_graph(5, label="A")
        b = complete_graph(5, label="A")
        assert structural_similarity(a, b) < 0.99

    def test_matrix_properties(self):
        rng = random.Random(1)
        repo = [gnm_random_graph(6, 7, rng, labels=["A", "B"])
                for _ in range(4)]
        matrix = distance_matrix_from_graphs(repo)
        for i in range(4):
            assert matrix[i][i] == 0.0
            for j in range(4):
                assert matrix[i][j] == pytest.approx(matrix[j][i])

    def test_vector_metrics(self):
        assert vector_euclidean([0, 0], [3, 4]) == pytest.approx(5.0)
        assert vector_cosine_distance([1, 0], [1, 0]) == pytest.approx(0.0)
        assert vector_cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)
        assert vector_cosine_distance([0, 0], [1, 0]) == 1.0

    def test_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            vector_euclidean([1], [1, 2])
        with pytest.raises(ValueError):
            vector_cosine_distance([1], [1, 2])

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            distance_matrix_from_vectors([[1.0]], metric="manhattan")

    def test_cosine_matrix_matches_pairwise_calls(self):
        # the matrix builder precomputes each vector's norm once;
        # entries must still equal the per-pair public function
        rng = random.Random(3)
        vectors = [[rng.uniform(-1, 1) for _ in range(5)]
                   for _ in range(6)]
        vectors.append([0.0] * 5)  # zero vector hits the norm guard
        matrix = distance_matrix_from_vectors(vectors, metric="cosine")
        for i, vi in enumerate(vectors):
            for j, vj in enumerate(vectors):
                if i == j:
                    assert matrix[i][j] == 0.0
                else:
                    assert matrix[i][j] == vector_cosine_distance(vi, vj)

    def test_matrix_workers_transparent(self):
        rng = random.Random(7)
        repo = [gnm_random_graph(6, 7, rng, labels=["A", "B"])
                for _ in range(5)]
        assert distance_matrix_from_graphs(repo, workers=1) == \
            distance_matrix_from_graphs(repo, workers=2)
        vectors = [[rng.uniform(0, 1) for _ in range(4)]
                   for _ in range(6)]
        for metric in ("euclidean", "cosine"):
            assert distance_matrix_from_vectors(vectors, metric=metric,
                                                workers=1) == \
                distance_matrix_from_vectors(vectors, metric=metric,
                                             workers=2)


class TestKMedoids:
    def block_distances(self):
        """Two obvious blocks: items 0-2 close, items 3-5 close."""
        n = 6
        matrix = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    same = (i < 3) == (j < 3)
                    matrix[i][j] = 0.1 if same else 1.0
        return matrix

    def test_recovers_blocks(self):
        result = kmedoids(self.block_distances(), 2, seed=1)
        labels = result.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_clusters_listing(self):
        result = kmedoids(self.block_distances(), 2, seed=0)
        groups = result.clusters()
        assert sorted(len(g) for g in groups) == [3, 3]

    def test_k_one(self):
        result = kmedoids(self.block_distances(), 1, seed=0)
        assert set(result.labels) == {0}

    def test_k_equals_n(self):
        matrix = self.block_distances()
        result = kmedoids(matrix, 6, seed=2)
        assert sorted(result.medoids) == list(range(6))
        assert result.cost == 0.0

    def test_validation(self):
        with pytest.raises(PipelineError):
            kmedoids([], 1)
        with pytest.raises(PipelineError):
            kmedoids([[0.0]], 0)
        with pytest.raises(PipelineError):
            kmedoids([[0.0]], 2)

    def test_deterministic(self):
        matrix = self.block_distances()
        a = kmedoids(matrix, 2, seed=7)
        b = kmedoids(matrix, 2, seed=7)
        assert a.labels == b.labels

    def test_silhouette_blocks_high(self):
        matrix = self.block_distances()
        result = kmedoids(matrix, 2, seed=1)
        assert silhouette_score(matrix, result.labels) > 0.7

    def test_silhouette_degenerate(self):
        assert silhouette_score([[0.0]], [0]) == 0.0
