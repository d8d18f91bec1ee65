"""E12 (extension) — pattern-based graph summarization.

The tutorial's "Beyond VQIs" claim (§2.5): canned patterns — high
coverage, diverse, low cognitive load — make visualization-friendly
graph summaries, more palatable than classical topological/attribute
summaries.  This bench compares pattern-based summarization against
the label-grouping baseline on structure retention and readability.
"""

from __future__ import annotations

import pytest

from repro.core import PipelineConfig, run_tattoo
from repro.datasets import NetworkConfig, generate_network
from repro.patterns import PatternBudget, cognitive_load
from repro.summary import label_grouping_summary, summarize_with_patterns
from repro.vqi import visual_complexity

from conftest import print_table


def test_e12_pattern_vs_label_summary(benchmark):
    def scenario():
        network = generate_network(
            NetworkConfig(nodes=250, cliques=10, petals=6, flowers=5),
            seed=31)
        budget = PatternBudget(6, min_size=4, max_size=8)
        selection = run_tattoo(network,
                               PipelineConfig(budget=budget, seed=1))
        pattern_based = summarize_with_patterns(
            network, list(selection.patterns), max_instances=40)
        label_based = label_grouping_summary(network)
        return network, pattern_based, label_based

    network, pattern_based, label_based = benchmark.pedantic(
        scenario, rounds=1, iterations=1)

    def row(name, result):
        return (name, result.summary.order(), result.summary.size(),
                f"{result.node_compression():.3f}",
                f"{result.coverage():.3f}",
                len(result.instances))

    print_table(f"E12: summarizing a {network.order()}-node network",
                ("method", "supernodes", "superedges",
                 "node compression", "structure coverage",
                 "instances"),
                [row("pattern-based", pattern_based),
                 row("label-grouping", label_based)])

    # reproduced claims: pattern-based summaries collapse real
    # substructure (instances exist, edges get folded), while label
    # grouping destroys all topology (zero structure coverage)
    assert pattern_based.instances
    assert pattern_based.coverage() > 0.0
    assert label_based.coverage() == 0.0
    assert pattern_based.node_compression() < 1.0

    # readability: supernode labels of the pattern summary name
    # topology classes a user recognises
    labels = {pattern_based.summary.node_label(v)
              for v in pattern_based.summary.nodes()}
    recognisable = {"chain", "star", "tree", "cycle", "triangle",
                    "petal", "flower", "clique", "general"}
    assert labels & recognisable


def test_e12_summary_readability_scaling(benchmark):
    """Summaries must be less visually complex than their input."""
    from repro.graph import complete_graph, disjoint_union
    from repro.patterns import Pattern

    def scenario():
        rows = []
        for copies in (3, 6, 9):
            g = disjoint_union([complete_graph(5, label="A")] * copies)
            # chain the cliques together
            for i in range(copies - 1):
                g.add_edge(5 * i, 5 * (i + 1))
            result = summarize_with_patterns(
                g, [Pattern(complete_graph(5, label="A"))])
            rows.append((copies, g.order(), result.summary.order(),
                         f"{cognitive_load(g):.3f}",
                         f"{cognitive_load(result.summary):.3f}",
                         f"{result.load_reduction(g):.3f}"))
        return rows

    rows = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table("E12b: cognitive load, original vs summary",
                ("cliques", "original n", "summary n",
                 "load(original)", "load(summary)", "reduction"),
                rows)
    for row in rows:
        assert float(row[5]) > 0.0, "summary must reduce load"
