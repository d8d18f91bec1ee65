"""E14 (extension) — distributed selection for massive networks.

The tutorial's second open problem (§2.5): massive networks demand a
distributed framework with construction algorithms on top.  This
bench profiles the partition-extract-merge design: simulated parallel
makespan vs the single-machine pipeline, scaling with worker count,
and the quality cost of worker-local shortlists.
"""

from __future__ import annotations

import time

import pytest

from repro.core import PipelineConfig, run_tattoo
from repro.datasets import NetworkConfig, generate_network
from repro.patterns import PatternBudget, pattern_set_score
from repro.tattoo import TattooConfig, select_patterns_distributed

from conftest import print_table


def test_e14_makespan_vs_single_machine(benchmark):
    def scenario():
        network = generate_network(
            NetworkConfig(nodes=1500, cliques=30, petals=20,
                          flowers=12), seed=47)
        budget = PatternBudget(8, min_size=4, max_size=8)
        start = time.perf_counter()
        single = run_tattoo(network, PipelineConfig(budget=budget, seed=1))
        single_time = time.perf_counter() - start
        rows = []
        results = {}
        for parts in (2, 4, 8):
            result = select_patterns_distributed(
                network, budget, parts=parts,
                config=TattooConfig(seed=1))
            results[parts] = result
            rows.append((parts, f"{result.makespan():.2f}",
                         f"{result.sequential_work():.2f}",
                         result.candidate_unique,
                         f"{pattern_set_score(list(result.patterns), [network]):.3f}"))
        return network, single, single_time, rows, results

    network, single, single_time, rows, results = benchmark.pedantic(
        scenario, rounds=1, iterations=1)
    single_quality = pattern_set_score(list(single.patterns), [network])
    print_table(
        f"E14: distributed selection on a {network.order()}-node "
        f"network (single machine: {single_time:.2f}s, "
        f"quality {single_quality:.3f})",
        ("workers", "makespan(s)", "total work(s)", "pool size",
         "quality"),
        rows)

    # reproduced claims: parallelism shrinks the makespan below the
    # single-machine time at some worker count, at near-equal quality
    best_makespan = min(r.makespan() for r in results.values())
    assert best_makespan < single_time * 1.1
    for result in results.values():
        quality = pattern_set_score(list(result.patterns), [network])
        assert quality >= single_quality - 0.1


def test_e14_worker_balance(benchmark):
    def scenario():
        network = generate_network(NetworkConfig(nodes=800), seed=48)
        budget = PatternBudget(6, min_size=4, max_size=8)
        return select_patterns_distributed(network, budget, parts=4,
                                           config=TattooConfig(seed=1))

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    rows = [(w.worker, w.nodes, w.halo_nodes, w.candidates,
             f"{w.duration:.2f}") for w in result.workers]
    print_table("E14b: per-worker profile (4 workers, 800 nodes)",
                ("worker", "nodes", "halo", "shortlist", "time(s)"),
                rows)
    durations = [w.duration for w in result.workers]
    assert max(durations) <= 8 * max(min(durations), 0.05), \
        "partitioning should not starve or overload workers wildly"
