"""E4 — TATTOO on large networks: scaling and coverage-vs-budget.

Tutorial claim (§2.3): clustering-based selection (CATAPULT) is
prohibitively expensive on large networks; TATTOO's truss-split +
topology-driven extraction handles them, with coverage growing in the
display budget.

The "prohibitive" baseline here is exhaustive connected-subgraph
enumeration (what candidate generation without the truss/topology
guidance degenerates to): its candidate count explodes immediately,
so we cap and report the cap being hit.
"""

from __future__ import annotations

import time

import pytest

from repro.core import PipelineConfig, run_tattoo
from repro.datasets import NetworkConfig, generate_network
from repro.patterns import PatternBudget

from conftest import print_table

NETWORK_SIZES = [400, 800, 1600]
ENUM_CAP = 30_000


def naive_candidate_count(network, max_nodes, cap=ENUM_CAP):
    """Count connected subgraphs up to ``max_nodes`` nodes (capped)."""
    count = 0
    for seed_node in sorted(network.nodes()):
        stack = [(frozenset([seed_node]),)]
        seen = set()
        while stack:
            (current,) = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            count += 1
            if count >= cap:
                return count
            if len(current) >= max_nodes:
                continue
            frontier = set()
            for u in current:
                frontier.update(network.neighbors(u))
            for nxt in frontier - current:
                stack.append((current | {nxt},))
    return count


def test_e4_scaling_curve(benchmark):
    budget = PatternBudget(8, min_size=4, max_size=8)
    rows = []

    def sweep():
        out = {}
        for size in NETWORK_SIZES:
            network = generate_network(
                NetworkConfig(nodes=size, cliques=max(size // 50, 4),
                              petals=size // 80, flowers=size // 100),
                seed=13)
            start = time.perf_counter()
            result = run_tattoo(network,
                                PipelineConfig(budget=budget, seed=1))
            elapsed = time.perf_counter() - start
            out[size] = (network, result, elapsed)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for size, (network, result, elapsed) in results.items():
        rows.append((size, network.size(), f"{elapsed:.2f}",
                     f"{result.timings['decompose']:.2f}",
                     f"{result.timings['extract']:.2f}",
                     f"{result.timings['select']:.2f}",
                     len(result.patterns)))
    print_table("E4: TATTOO time vs network size",
                ("nodes", "edges", "total(s)", "truss(s)",
                 "extract(s)", "select(s)", "k"),
                rows)
    # pipeline completes at every size and selects a full panel
    for size, (_, result, _) in results.items():
        assert len(result.patterns) > 0


def test_e4_naive_enumeration_explodes(benchmark, medium_network):
    """Without topology guidance, the candidate space is hopeless."""
    count = benchmark.pedantic(
        lambda: naive_candidate_count(medium_network, max_nodes=5),
        rounds=1, iterations=1)
    print(f"\nE4b: naive connected-subgraph enumeration on "
          f"{medium_network.order()} nodes hit the "
          f"{ENUM_CAP} cap: {count >= ENUM_CAP} (count={count})")
    assert count >= ENUM_CAP


def test_e4_coverage_vs_budget(benchmark, medium_network):
    rows = []

    def sweep():
        out = {}
        for k in (2, 4, 8, 12):
            budget = PatternBudget(k, min_size=4, max_size=8)
            result = run_tattoo(medium_network,
                                PipelineConfig(budget=budget, seed=1))
            out[k] = result
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    coverages = {}
    for k, result in results.items():
        # plain (unweighted) edge coverage over the network
        from repro.patterns import CoverageIndex
        index = CoverageIndex([medium_network], max_embeddings=30)
        cov = index.set_coverage(list(result.patterns))
        coverages[k] = cov
        rows.append((k, len(result.patterns), f"{cov:.3f}",
                     f"{result.selection.score:.3f}"))
    print_table("E4c: coverage vs pattern budget (1000-node network)",
                ("budget", "k", "edge coverage", "set score"), rows)
    assert coverages[12] >= coverages[2] - 1e-9
