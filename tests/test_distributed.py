"""Tests for distributed (partition-extract-merge) selection."""

import pytest

from repro.datasets import NetworkConfig, generate_network
from repro.errors import PipelineError
from repro.graph import Graph, induced_subgraph, is_connected
from repro.matching import is_subgraph
from repro.patterns import PatternBudget
from repro.tattoo import (
    TattooConfig,
    partition_network,
    partition_with_halo,
    select_patterns_distributed,
)


@pytest.fixture(scope="module")
def network():
    return generate_network(NetworkConfig(nodes=300, cliques=8,
                                          petals=6, flowers=4), seed=41)


@pytest.fixture(scope="module")
def budget():
    return PatternBudget(5, min_size=4, max_size=8)


class TestPartitioning:
    def test_partitions_cover_all_nodes(self, network):
        partitions = partition_network(network, 4, seed=1)
        union = set()
        for partition in partitions:
            assert not (partition & union), "partitions must be disjoint"
            union |= partition
        assert union == set(network.nodes())

    def test_partition_count(self, network):
        assert len(partition_network(network, 3, seed=2)) == 3

    def test_rough_balance(self, network):
        partitions = partition_network(network, 4, seed=3)
        sizes = sorted(len(p) for p in partitions)
        assert sizes[0] >= sizes[-1] * 0.2  # no starved partition

    def test_validation(self, network):
        with pytest.raises(PipelineError):
            partition_network(network, 0)
        small = induced_subgraph(network, list(network.nodes())[:3])
        with pytest.raises(PipelineError):
            partition_network(small, 10)

    def test_deterministic(self, network):
        a = partition_network(network, 4, seed=9)
        b = partition_network(network, 4, seed=9)
        assert a == b


class TestHalo:
    def test_halo_contains_partition(self, network):
        partition = partition_network(network, 4, seed=1)[0]
        view = partition_with_halo(network, partition, hops=1)
        assert partition <= set(view.nodes())

    def test_halo_is_neighborhood(self, network):
        partition = partition_network(network, 4, seed=1)[0]
        view = partition_with_halo(network, partition, hops=1)
        for node in view.nodes():
            if node in partition:
                continue
            assert any(network.has_edge(node, u) for u in partition)

    def test_zero_hops_is_partition(self, network):
        partition = partition_network(network, 4, seed=1)[0]
        view = partition_with_halo(network, partition, hops=0)
        assert set(view.nodes()) == partition


class TestDistributedSelection:
    def test_end_to_end(self, network, budget):
        result = select_patterns_distributed(network, budget, parts=3,
                                             config=TattooConfig(seed=1))
        assert 0 < len(result.patterns) <= budget.max_patterns
        assert len(result.workers) == 3
        # every selected pattern occurs in the full network
        for pattern in result.patterns:
            assert is_subgraph(pattern.graph, network)

    def test_shortlists_bound_communication(self, network, budget):
        result = select_patterns_distributed(
            network, budget, parts=3, config=TattooConfig(seed=1),
            shortlist_factor=2)
        for worker in result.workers:
            assert worker.candidates <= 2 * budget.max_patterns

    def test_profile_accounting(self, network, budget):
        result = select_patterns_distributed(network, budget, parts=3,
                                             config=TattooConfig(seed=1))
        assert result.makespan() <= result.sequential_work() + 1e-9
        assert result.candidate_unique <= result.candidate_total

    def test_single_partition_degenerates_gracefully(self, network,
                                                     budget):
        result = select_patterns_distributed(network, budget, parts=1,
                                             config=TattooConfig(seed=1))
        assert len(result.patterns) > 0

    def test_coordinator_sampling_path(self, network, budget):
        """Force the BFS-sample coordinator path with a tiny cap."""
        result = select_patterns_distributed(
            network, budget, parts=2, config=TattooConfig(seed=1),
            coverage_sample_nodes=50)
        assert len(result.patterns) > 0

    def test_validation(self, budget):
        with pytest.raises(PipelineError):
            select_patterns_distributed(Graph(), budget, parts=2)
        net = generate_network(NetworkConfig(nodes=50), seed=1)
        with pytest.raises(PipelineError):
            select_patterns_distributed(net, budget, parts=2,
                                        shortlist_factor=0)

    def test_quality_close_to_single_machine(self, network, budget):
        from repro.core import PipelineConfig, run_tattoo
        from repro.patterns import pattern_set_score
        single = run_tattoo(network, PipelineConfig(budget=budget, seed=1))
        distributed = select_patterns_distributed(
            network, budget, parts=3, config=TattooConfig(seed=1))
        q_single = pattern_set_score(list(single.patterns), [network])
        q_distributed = pattern_set_score(list(distributed.patterns),
                                          [network])
        assert q_distributed >= q_single - 0.08


class TestDistributedResilience:
    """Worker-failure and partial-merge paths (see also the chaos
    matrix in tests/test_resilience.py)."""

    def test_stats_expose_resilience_fields(self, network, budget):
        result = select_patterns_distributed(network, budget, parts=3,
                                             config=TattooConfig(seed=1))
        assert result.degraded is False
        assert result.stats["failed_workers"] == 0
        completion = result.stats["completion"]
        for stage in ("workers", "merge", "select"):
            assert completion[stage]["complete"]

    def test_worker_failure_yields_partial_merge(self, network, budget):
        from repro.resilience import FaultPlan, FaultSpec, chaos
        plan = FaultPlan([FaultSpec("distributed.worker", keys=(0,),
                                    fail_attempts=99)])
        with chaos(plan):
            result = select_patterns_distributed(
                network, budget, parts=3, config=TattooConfig(seed=1))
        assert result.degraded
        assert result.stats["failed_workers"] == 1
        assert result.workers[0].failed
        assert result.workers[0].candidates == 0
        # the surviving workers' shortlists still produce a panel
        assert len(result.patterns) > 0
        for pattern in result.patterns:
            assert is_subgraph(pattern.graph, network)

    def test_merge_fault_drops_only_that_pool(self, network, budget):
        from repro.resilience import FaultPlan, FaultSpec, chaos
        plan = FaultPlan([FaultSpec("distributed.merge", keys=(2,),
                                    fail_attempts=99)])
        with chaos(plan):
            result = select_patterns_distributed(
                network, budget, parts=3, config=TattooConfig(seed=1))
        assert result.degraded
        merge = result.stats["completion"]["merge"]
        assert merge["done"] == merge["total"] - 1
        assert len(result.patterns) > 0

    def test_deadline_stops_after_first_worker(self, network, budget):
        config = TattooConfig(seed=1, deadline_s=1e-6)
        result = select_patterns_distributed(network, budget, parts=3,
                                             config=config)
        assert result.degraded
        workers = result.stats["completion"]["workers"]
        assert workers["done"] >= 1
        assert workers["done"] < workers["total"]
        assert len(result.patterns) > 0
