"""Tests for the CATAPULT pipeline."""

import random

import pytest

from repro.catapult import (
    CatapultConfig,
    cluster_repository,
    default_cluster_count,
    generate_candidates,
    summarize_clusters,
    walk_candidate,
)
from repro.core import PipelineConfig, run_catapult
from repro.datasets import generate_chemical_repository
from repro.errors import PipelineError
from repro.graph import is_connected, path_graph
from repro.matching import is_subgraph
from repro.patterns import PatternBudget
from repro.summary import build_summary


@pytest.fixture(scope="module")
def repo():
    return generate_chemical_repository(40, seed=11)


@pytest.fixture(scope="module")
def budget():
    return PatternBudget(5, min_size=4, max_size=8)


@pytest.fixture(scope="module")
def result(repo, budget):
    return run_catapult(repo, PipelineConfig(
        budget=budget, seed=7, options={"walks_per_cluster": 30}))


class TestClusterCount:
    def test_heuristic(self):
        assert default_cluster_count(0) == 1
        assert default_cluster_count(1) == 1
        assert default_cluster_count(50) == 5
        assert default_cluster_count(2) <= 2


class TestClustering:
    def test_every_graph_labeled(self, repo):
        clustering = cluster_repository(repo, CatapultConfig(seed=1))
        assert len(clustering.labels) == len(repo)

    def test_cluster_count_heuristic_used(self, repo):
        clustering = cluster_repository(repo, CatapultConfig(seed=1))
        assert len(clustering.medoids) == default_cluster_count(len(repo))

    def test_explicit_k(self, repo):
        clustering = cluster_repository(repo,
                                        CatapultConfig(seed=1, clusters=3))
        assert len(clustering.medoids) == 3

    def test_degenerate_repo_single_cluster(self):
        repo = [path_graph(2, label=f"L{i}") for i in range(4)]
        clustering = cluster_repository(repo, CatapultConfig(
            seed=0, min_tree_support=5))
        assert set(clustering.labels) == {0}


class TestSummaries:
    def test_one_summary_per_nonempty_cluster(self, repo):
        clustering = cluster_repository(repo, CatapultConfig(seed=1))
        summaries = summarize_clusters(repo, clustering)
        nonempty = [c for c in clustering.clusters() if c]
        assert len(summaries) == len(nonempty)
        for members, summary in zip(nonempty, summaries):
            assert summary.member_count == len(members)


class TestWalks:
    def test_walk_candidate_connected_and_sized(self, repo, budget):
        summary = build_summary(repo[:5])
        rng = random.Random(2)
        for _ in range(20):
            candidate = walk_candidate(summary, budget, rng)
            if candidate is None:
                continue
            assert is_connected(candidate)
            assert budget.min_size <= candidate.order()
            assert candidate.order() <= budget.max_size

    def test_generate_candidates_deduped(self, repo, budget):
        summary = build_summary(repo[:5])
        candidates = generate_candidates(summary, budget, 50,
                                         random.Random(3))
        codes = [p.code for p in candidates]
        assert len(codes) == len(set(codes))

    def test_validator_filters(self, repo, budget):
        summary = build_summary(repo[:5])
        candidates = generate_candidates(
            summary, budget, 50, random.Random(3),
            validator=lambda g: False)
        assert candidates == []

    def test_empty_summary(self, budget):
        from repro.summary import SummaryGraph
        assert walk_candidate(SummaryGraph(), budget,
                              random.Random(0)) is None


class TestEndToEnd:
    def test_budget_respected(self, result, budget):
        assert len(result.patterns) <= budget.max_patterns
        for pattern in result.patterns:
            assert budget.admits(pattern.graph)

    def test_patterns_occur_in_data(self, result, repo):
        """Validated candidates must embed in at least one data graph."""
        for pattern in result.patterns:
            assert any(is_subgraph(pattern.graph, g) for g in repo)

    def test_all_stage_timings_present(self, result):
        assert set(result.timings) == {"cluster", "summarize",
                                       "candidates", "select"}

    def test_selection_score_positive(self, result):
        assert result.selection.score > 0.0

    def test_deterministic(self, repo, budget):
        config = PipelineConfig(budget=budget, seed=7,
                                options={"walks_per_cluster": 30})
        a = run_catapult(repo, config)
        b = run_catapult(repo, config)
        assert a.patterns.codes() == b.patterns.codes()

    def test_empty_repository_rejected(self, budget):
        with pytest.raises(PipelineError):
            run_catapult([], PipelineConfig(budget=budget))

    def test_patterns_are_canned_size(self, result):
        assert all(p.order() >= 4 for p in result.patterns)
