"""E13 (extension) — aesthetics-aware layout + time-series sketches.

Covers the remaining §2.5 future-work directions:

* **aesthetics-aware layout optimization** — simulated annealing over
  positions reduces the aesthetics objective (crossings, congestion,
  angles) beyond the spring layout, and complexity-ordering a Pattern
  Panel reduces its scan cost;
* **beyond graphs** — data-driven canned *sketches* for time series:
  the mined panel covers the collection and planted shapes are
  retrieved by sketch matching.
"""

from __future__ import annotations

import random

import pytest

from repro.core import PipelineConfig, run_catapult
from repro.graph import gnm_random_graph
from repro.patterns import PatternBudget
from repro.timeseries import (
    SketchBudget,
    SketchVQI,
    generate_series_collection,
    match_sketch,
    sliding_sax_words,
)
from repro.vqi import (
    arrange_panel,
    circular_layout,
    edge_crossings,
    layout_cost,
    optimize_layout,
    panel_scan_cost,
    spring_layout,
)

from conftest import print_table


def test_e13_layout_optimization(benchmark):
    def sweep():
        rows = []
        improvements = 0
        for seed in range(4):
            g = gnm_random_graph(10, 16, random.Random(seed))
            naive = circular_layout(g)
            spring = spring_layout(g, seed=seed)
            optimized = optimize_layout(g, seed=seed, iterations=350,
                                        initial=spring)
            costs = (layout_cost(g, naive), layout_cost(g, spring),
                     layout_cost(g, optimized))
            if costs[2] <= costs[1]:
                improvements += 1
            rows.append((seed,
                         edge_crossings(g, naive),
                         edge_crossings(g, spring),
                         edge_crossings(g, optimized),
                         f"{costs[0]:.1f}", f"{costs[1]:.1f}",
                         f"{costs[2]:.1f}"))
        return rows, improvements

    rows, improvements = benchmark.pedantic(sweep, rounds=1,
                                            iterations=1)
    print_table("E13: layout pipeline — circular -> spring -> annealed",
                ("seed", "x(circle)", "x(spring)", "x(annealed)",
                 "cost(circle)", "cost(spring)", "cost(annealed)"),
                rows)
    assert improvements == 4, "annealing never worsens the spring seed"


def test_e13_panel_arrangement(benchmark, small_chem_repo):
    budget = PatternBudget(8, min_size=4, max_size=8)
    selection = run_catapult(small_chem_repo,
                             PipelineConfig(budget=budget, seed=1))
    panel = list(selection.patterns)

    def measure():
        shuffled = list(panel)
        random.Random(3).shuffle(shuffled)
        worst = list(reversed(arrange_panel(shuffled)))
        return (panel_scan_cost(worst),
                panel_scan_cost(shuffled),
                panel_scan_cost(arrange_panel(shuffled)))

    worst, shuffled, arranged = benchmark.pedantic(measure, rounds=1,
                                                   iterations=1)
    print_table("E13b: Pattern Panel scan cost by ordering",
                ("complex-first", "random order", "complexity-ramped"),
                [(f"{worst:.3f}", f"{shuffled:.3f}",
                  f"{arranged:.3f}")])
    # the complexity ramp beats both alternatives (which may order
    # either way relative to each other: reversed order minimises the
    # jump term while maximising the positional term)
    assert arranged <= shuffled + 1e-9
    assert arranged <= worst + 1e-9


def test_e13_sketch_panel_quality(benchmark):
    def scenario():
        collection = generate_series_collection(50, seed=37)
        vqi = SketchVQI(collection, SketchBudget(5, window=40))
        # coverage: series containing at least one panel shape
        panel_words = {s.word for s in vqi.panel}
        covered = 0
        for series in collection:
            words = {w for _, w in sliding_sax_words(series, 40,
                                                     step=5)}
            if words & panel_words:
                covered += 1
        # retrieval: every canned sketch finds its source near-exactly
        perfect = 0
        for sketch in vqi.panel:
            matches = match_sketch(sketch.values, collection, top_k=1)
            if matches and matches[0].distance < 0.05:
                perfect += 1
        return vqi, covered / len(collection), perfect

    vqi, coverage, perfect = benchmark.pedantic(scenario, rounds=1,
                                                iterations=1)
    rows = [(s.word, s.support, f"{s.complexity:.2f}")
            for s in vqi.panel]
    print_table("E13c: data-driven sketch panel (50-series collection)",
                ("SAX word", "support", "complexity"), rows)
    print(f"collection coverage: {coverage:.0%}; "
          f"sketches retrieving their source exactly: "
          f"{perfect}/{len(vqi.panel)}")
    assert coverage > 0.6
    assert perfect == len(vqi.panel)
