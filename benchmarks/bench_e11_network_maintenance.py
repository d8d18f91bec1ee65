"""E11 (extension) — continuous maintenance for large networks.

The tutorial's open problem #1 (§2.5): maintain a network VQI under
*continuous* evolution.  Our implementation maintains edge supports
incrementally and refreshes patterns from the changed region only.
This bench measures (a) incremental support bookkeeping vs full
recomputation, and (b) localized maintenance vs full TATTOO re-runs.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core import PipelineConfig, run_tattoo
from repro.datasets import NetworkConfig, generate_network
from repro.patterns import PatternBudget
from repro.tattoo import (
    NetworkMaintainer,
    NetworkMaintenanceConfig,
    NetworkUpdate,
)
from repro.truss import edge_support

from conftest import print_table


def burst(maintainer, rng, new_nodes=3, new_edges=10):
    nodes = sorted(maintainer.network.nodes())
    next_id = max(nodes) + 1
    added_nodes = [(next_id + i, "person") for i in range(new_nodes)]
    added_edges = [(next_id + i, rng.choice(nodes), "")
                   for i in range(new_nodes)]
    guard = 0
    while len(added_edges) < new_nodes + new_edges and guard < 200:
        guard += 1
        u, v = rng.sample(nodes, 2)
        if (not maintainer.network.has_edge(u, v)
                and (u, v, "") not in added_edges
                and (v, u, "") not in added_edges):
            added_edges.append((u, v, ""))
    return NetworkUpdate(added_nodes=added_nodes,
                         added_edges=added_edges)


def test_e11_incremental_support_speed(benchmark):
    network = generate_network(NetworkConfig(nodes=800), seed=23)
    budget = PatternBudget(5, min_size=4, max_size=8)
    maintainer = NetworkMaintainer(
        network, budget, NetworkMaintenanceConfig(drift_threshold=1.0))
    rng = random.Random(1)
    updates = [burst(maintainer, rng) for _ in range(1)]

    def apply_and_verify():
        start = time.perf_counter()
        maintainer.apply_update(updates[0])
        incremental = time.perf_counter() - start
        start = time.perf_counter()
        oracle = edge_support(maintainer.network)
        full = time.perf_counter() - start
        return incremental, full, oracle

    incremental, full, oracle = benchmark.pedantic(apply_and_verify,
                                                   rounds=1,
                                                   iterations=1)
    print_table("E11: incremental support vs full recomputation "
                "(one 13-edge burst on an 800-node network)",
                ("incremental (s)", "full recompute (s)", "correct"),
                [(f"{incremental:.4f}", f"{full:.4f}",
                  maintainer.support_snapshot() == oracle)])
    assert maintainer.support_snapshot() == oracle
    assert incremental < full, \
        "incremental bookkeeping must beat recomputation"


def test_e11_localized_vs_full_rerun(benchmark):
    def scenario():
        network = generate_network(NetworkConfig(nodes=600), seed=24)
        budget = PatternBudget(6, min_size=4, max_size=8)
        maintainer = NetworkMaintainer(
            network, budget,
            NetworkMaintenanceConfig(drift_threshold=0.02))
        rng = random.Random(2)
        rows = []
        totals = [0.0, 0.0]
        for i in range(4):
            update = burst(maintainer, rng, new_nodes=4, new_edges=14)
            report = maintainer.apply_update(update)
            start = time.perf_counter()
            run_tattoo(maintainer.network,
                       PipelineConfig(budget=budget, seed=1))
            rerun = time.perf_counter() - start
            totals[0] += report.duration
            totals[1] += rerun
            rows.append((report.update_index, report.kind,
                         f"{report.drift:.4f}",
                         f"{report.duration:.2f}", f"{rerun:.2f}",
                         f"{report.score_after:.3f}"))
        return rows, totals

    rows, totals = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table("E11b: localized maintenance vs full TATTOO re-run",
                ("burst", "kind", "drift", "maintain(s)", "rerun(s)",
                 "score"),
                rows)
    print(f"totals: maintain {totals[0]:.2f}s, rerun {totals[1]:.2f}s, "
          f"speedup {totals[1] / max(totals[0], 1e-9):.1f}x")
    assert totals[0] < totals[1]
