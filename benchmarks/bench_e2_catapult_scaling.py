"""E2 — CATAPULT selection-time scaling in repository size.

Tutorial claim (§2.3): CATAPULT is a clustering-based approach; its
cost is dominated by the clustering/feature stage and grows with the
number of data graphs — the very property that makes it unusable on
large networks (motivating TATTOO, E4).
"""

from __future__ import annotations

import time

import pytest

from repro.core import PipelineConfig, run_catapult
from repro.datasets import generate_chemical_repository
from repro.patterns import PatternBudget

from conftest import print_table

SIZES = [50, 100, 200, 400]


def run_once(size):
    repo = generate_chemical_repository(size, seed=7)
    budget = PatternBudget(6, min_size=4, max_size=8)
    start = time.perf_counter()
    result = run_catapult(repo, PipelineConfig(budget=budget, seed=1))
    total = time.perf_counter() - start
    return total, result.timings


def test_e2_scaling_curve(benchmark):
    rows = []
    totals = {}

    def sweep():
        out = {}
        for size in SIZES:
            out[size] = run_once(size)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for size in SIZES:
        total, timings = results[size]
        totals[size] = total
        cluster_share = timings["cluster"] / total if total else 0.0
        rows.append((size, f"{total:.2f}",
                     f"{timings['cluster']:.2f}",
                     f"{timings['candidates']:.2f}",
                     f"{timings['select']:.2f}",
                     f"{cluster_share:.0%}"))
    print_table("E2: CATAPULT time vs |D|",
                ("|D|", "total(s)", "cluster(s)", "candidates(s)",
                 "select(s)", "cluster share"),
                rows)
    # the reproduced shape: superlinear growth dominated by clustering
    assert totals[400] > totals[50]
    _, timings_400 = results[400]
    assert timings_400["cluster"] == max(timings_400.values())


def test_e2_single_point_benchmark(benchmark):
    """A stable single-point timing for regression tracking."""
    repo = generate_chemical_repository(100, seed=7)
    budget = PatternBudget(6, min_size=4, max_size=8)
    result = benchmark.pedantic(
        lambda: run_catapult(repo, PipelineConfig(budget=budget, seed=1)),
        rounds=2, iterations=1)
    assert len(result.patterns) > 0
