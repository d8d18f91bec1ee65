"""Tests for the TATTOO pipeline and its extractors."""

import random

import pytest

from repro.core import PipelineConfig, run_tattoo
from repro.datasets import NetworkConfig, generate_network
from repro.errors import PipelineError
from repro.graph import Graph, is_connected
from repro.matching import is_subgraph
from repro.patterns import PatternBudget, TopologyClass, classify_topology
from repro.tattoo import (
    TattooConfig,
    extract_candidates,
    extract_chains,
    extract_cliques,
    extract_cycles,
    extract_flowers,
    extract_petals,
    extract_stars,
    extract_trees,
)
from repro.truss import decomposition, split_by_truss


@pytest.fixture(scope="module")
def network():
    return generate_network(NetworkConfig(nodes=300, cliques=8,
                                          petals=6, flowers=5), seed=2)


@pytest.fixture(scope="module")
def budget():
    return PatternBudget(6, min_size=4, max_size=9)


@pytest.fixture(scope="module")
def regions(network):
    return split_by_truss(network)


class TestExtractors:
    def test_chains_are_chains(self, regions, budget):
        _, g_o = regions
        for p in extract_chains(g_o, budget, random.Random(1)):
            assert classify_topology(p.graph) == TopologyClass.CHAIN

    def test_stars_are_stars(self, regions, budget):
        _, g_o = regions
        for p in extract_stars(g_o, budget, random.Random(1)):
            assert classify_topology(p.graph) == TopologyClass.STAR

    def test_trees_are_acyclic(self, regions, budget):
        _, g_o = regions
        for p in extract_trees(g_o, budget, random.Random(1)):
            assert classify_topology(p.graph).is_acyclic()

    def test_cycles_are_cycles(self, network, budget):
        # run on the full network: G_O may be cycle-poor
        for p in extract_cycles(network, budget, random.Random(1)):
            assert classify_topology(p.graph) == TopologyClass.CYCLE

    def test_cliques_are_cliques(self, regions, budget):
        g_t, _ = regions
        patterns = extract_cliques(g_t, budget, random.Random(1))
        assert patterns, "planted cliques should be found"
        for p in patterns:
            assert classify_topology(p.graph) in (
                TopologyClass.CLIQUE, TopologyClass.TRIANGLE)

    def test_petals_are_petals(self, regions, budget):
        g_t, _ = regions
        for p in extract_petals(g_t, budget, random.Random(1)):
            assert classify_topology(p.graph) == TopologyClass.PETAL

    def test_flowers_are_flowers(self, regions, budget):
        g_t, _ = regions
        for p in extract_flowers(g_t, budget, random.Random(1)):
            assert classify_topology(p.graph) == TopologyClass.FLOWER

    def test_candidates_within_budget(self, network, budget):
        by_class = extract_candidates(network, budget, TattooConfig(seed=1))
        for patterns in by_class.values():
            for p in patterns:
                assert budget.admits(p.graph)
                assert is_connected(p.graph)

    def test_empty_region_no_candidates(self, budget):
        empty = Graph()
        assert extract_chains(empty, budget, random.Random(0)) == []
        assert extract_cliques(empty, budget, random.Random(0)) == []
        assert extract_cycles(empty, budget, random.Random(0)) == []


class TestPipeline:
    def test_end_to_end(self, network, budget):
        result = run_tattoo(network, PipelineConfig(budget=budget, seed=4))
        assert 0 < len(result.patterns) <= budget.max_patterns
        # every selected pattern actually occurs in the network
        for pattern in result.patterns:
            assert is_subgraph(pattern.graph, network)

    def test_regions_partition_edges(self, network, budget):
        result = run_tattoo(network, PipelineConfig(budget=budget, seed=4))
        assert (result.truss_region.size()
                + result.oblivious_region.size()) == network.size()

    def test_class_restriction(self, network, budget):
        config = PipelineConfig(budget=budget, seed=1, options={
            "classes": [TopologyClass.CHAIN, TopologyClass.STAR]})
        result = run_tattoo(network, config)
        for pattern in result.patterns:
            assert classify_topology(pattern.graph) in (
                TopologyClass.CHAIN, TopologyClass.STAR)

    def test_all_candidates_deduped(self, network, budget):
        result = run_tattoo(network, PipelineConfig(budget=budget, seed=4))
        codes = [p.code for p in result.all_candidates()]
        assert len(codes) == len(set(codes))

    def test_empty_network_rejected(self, budget):
        with pytest.raises(PipelineError):
            run_tattoo(Graph(), PipelineConfig(budget=budget))

    def test_network_is_split_by_truss_once(self, network, budget,
                                            monkeypatch):
        # the decompose stage's (G_T, G_O) feeds extraction; a second
        # split of the same network would only repeat the peel
        peeled = []
        peel = decomposition.truss_decomposition
        monkeypatch.setattr(decomposition, "truss_decomposition",
                            lambda graph: peeled.append(graph)
                            or peel(graph))
        run_tattoo(network, PipelineConfig(budget=budget, seed=4,
                                           workers=1))
        assert peeled == [network]

    def test_deterministic(self, network, budget):
        config = PipelineConfig(budget=budget, seed=9)
        a = run_tattoo(network, config)
        b = run_tattoo(network, config)
        assert a.patterns.codes() == b.patterns.codes()

    def test_samples_scale(self, network, budget):
        small = extract_candidates(network, budget,
                                   TattooConfig(seed=1,
                                                samples_scale=0.3))
        large = extract_candidates(network, budget,
                                   TattooConfig(seed=1,
                                                samples_scale=1.0))
        assert (sum(len(v) for v in small.values())
                <= sum(len(v) for v in large.values()))
