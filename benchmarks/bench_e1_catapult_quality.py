"""E1 — CATAPULT pattern quality vs baselines, across budgets.

Tutorial claim (§2.3): data-driven selection produces canned pattern
sets with high coverage, high diversity, and low cognitive load; a
score ablation shows every term matters.

Baselines:
* ``random``   — uniformly random budget-compliant subgraphs of the data;
* ``frequent`` — the most frequent subtrees (support-ranked), the
  classic frequent-pattern strawman the CATAPULT paper compares to.
"""

from __future__ import annotations

import random

import pytest

from repro.core import PipelineConfig, run_catapult
from repro.datasets import sample_connected_subgraph
from repro.clustering import mine_frequent_trees
from repro.patterns import (
    Pattern,
    PatternBudget,
    PatternSet,
    ScoreWeights,
    set_cognitive_load,
    set_diversity,
    set_repository_coverage,
)

from conftest import print_table


def random_baseline(repo, budget, count, seed):
    rng = random.Random(seed)
    patterns = PatternSet()
    guard = 0
    while len(patterns) < count and guard < 50 * count:
        guard += 1
        source = rng.choice(repo)
        if source.order() < budget.min_size:
            continue
        size = rng.randint(budget.min_size,
                           min(budget.max_size, source.order()))
        sample = sample_connected_subgraph(source, size, rng)
        if sample is not None:
            patterns.add(Pattern(sample, source="random"))
    return list(patterns)


def frequent_baseline(repo, budget, count):
    """Top frequent subgraphs (proper FSG mining, not just trees)."""
    from repro.mining import top_frequent_subgraphs
    mined = top_frequent_subgraphs(repo, count * 3,
                                   min_nodes=budget.min_size,
                                   max_nodes=budget.max_size,
                                   min_support=2, max_edges=5)
    patterns = PatternSet()
    for subgraph in mined:
        patterns.add(Pattern(subgraph.graph, source="frequent"))
        if len(patterns) >= count:
            break
    return list(patterns)


def quality_row(name, patterns, repo):
    return (name, len(patterns),
            f"{set_repository_coverage(patterns, repo):.3f}",
            f"{set_diversity(patterns):.3f}",
            f"{set_cognitive_load(patterns):.3f}")


@pytest.mark.parametrize("budget_size", [5, 10])
def test_e1_quality_vs_baselines(benchmark, chem_repo, budget_size):
    budget = PatternBudget(budget_size, min_size=4, max_size=8)

    result = benchmark.pedantic(
        lambda: run_catapult(chem_repo,
                             PipelineConfig(budget=budget, seed=1)),
        rounds=1, iterations=1)
    catapult_patterns = list(result.patterns)
    rows = [
        quality_row("catapult", catapult_patterns, chem_repo),
        quality_row("random",
                    random_baseline(chem_repo, budget, budget_size, 2),
                    chem_repo),
        quality_row("frequent",
                    frequent_baseline(chem_repo, budget, budget_size),
                    chem_repo),
    ]
    print_table(f"E1: pattern quality, budget b={budget_size}",
                ("selector", "k", "coverage", "diversity", "cog.load"),
                rows)
    # the reproduced claim: CATAPULT's combined quality beats random
    cov_c = set_repository_coverage(catapult_patterns, chem_repo)
    div_c = set_diversity(catapult_patterns)
    rnd = random_baseline(chem_repo, budget, budget_size, 2)
    cov_r = set_repository_coverage(rnd, chem_repo)
    div_r = set_diversity(rnd)
    load_c = set_cognitive_load(catapult_patterns)
    load_r = set_cognitive_load(rnd)
    assert (cov_c + div_c + (1 - load_c)) > (cov_r + div_r
                                             + (1 - load_r)) - 0.05


def test_e1_score_ablation(benchmark, chem_repo):
    """Dropping a score term degrades that term's measure."""
    budget = PatternBudget(8, min_size=4, max_size=8)
    variants = {
        "full": ScoreWeights(1.0, 1.0, 0.5),
        "no-diversity": ScoreWeights(1.0, 0.0, 0.5),
        "no-cog-load": ScoreWeights(1.0, 1.0, 0.0),
        "coverage-only": ScoreWeights(1.0, 0.0, 0.0),
    }

    def run_all():
        return {
            name: run_catapult(chem_repo, PipelineConfig(
                budget=budget, seed=1, weights=weights))
            for name, weights in variants.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    measured = {}
    for name, result in results.items():
        patterns = list(result.patterns)
        measured[name] = (set_repository_coverage(patterns, chem_repo),
                          set_diversity(patterns),
                          set_cognitive_load(patterns))
        rows.append(quality_row(name, patterns, chem_repo))
    print_table("E1 ablation: score-term knockout",
                ("variant", "k", "coverage", "diversity", "cog.load"),
                rows)
    # knocking out diversity should not *increase* diversity
    assert measured["no-diversity"][1] <= measured["full"][1] + 0.05
