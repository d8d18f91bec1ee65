"""Tests for graphlet counting and GFD drift, with an oracle check."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    induced_subgraph,
    is_connected,
    path_graph,
    star_graph,
)
from repro.graphlets import (
    GRAPHLET_KEYS,
    count_graphlets,
    gfd_distance,
    graphlet_frequency_distribution,
    repository_gfd,
)


def oracle_counts(graph):
    """Brute force: classify every connected induced 3/4-subset."""
    counts = {key: 0 for key in GRAPHLET_KEYS}
    nodes = sorted(graph.nodes())
    for k in (3, 4):
        for combo in itertools.combinations(nodes, k):
            sub = induced_subgraph(graph, combo)
            if not is_connected(sub) or sub.order() != k:
                continue
            m = sub.size()
            degrees = sorted(sub.degree(v) for v in combo)
            if k == 3:
                counts["g3_triangle" if m == 3 else "g3_path"] += 1
            else:
                if m == 3:
                    counts["g4_star" if degrees[-1] == 3 else "g4_path"] += 1
                elif m == 4:
                    counts["g4_tailed" if degrees[-1] == 3
                           else "g4_cycle"] += 1
                elif m == 5:
                    counts["g4_diamond"] += 1
                else:
                    counts["g4_clique"] += 1
    return counts


class TestCounts:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = gnm_random_graph(9, rng.randint(8, 16), rng)
        assert count_graphlets(g) == oracle_counts(g)

    def test_k4(self):
        counts = count_graphlets(complete_graph(4))
        assert counts["g3_triangle"] == 4
        assert counts["g4_clique"] == 1
        assert counts["g3_path"] == 0

    def test_path(self):
        counts = count_graphlets(path_graph(5))
        assert counts["g3_path"] == 3
        assert counts["g4_path"] == 2
        assert counts["g3_triangle"] == 0

    def test_star(self):
        counts = count_graphlets(star_graph(4))
        assert counts["g3_path"] == 6       # C(4,2) leaf pairs
        assert counts["g4_star"] == 4       # C(4,3) leaf triples

    def test_cycle(self):
        counts = count_graphlets(cycle_graph(5))
        assert counts["g3_path"] == 5
        assert counts["g4_path"] == 5
        assert counts["g4_cycle"] == 0

    def test_c4(self):
        assert count_graphlets(cycle_graph(4))["g4_cycle"] == 1

    def test_small_graph_zero(self):
        g = path_graph(2)
        assert sum(count_graphlets(g).values()) == 0


class TestDistributions:
    def test_frequencies_sum_to_one(self):
        gfd = graphlet_frequency_distribution(complete_graph(5))
        assert sum(gfd.values()) == pytest.approx(1.0)

    def test_tiny_graph_all_zero(self):
        gfd = graphlet_frequency_distribution(path_graph(2))
        assert all(v == 0.0 for v in gfd.values())

    def test_repository_gfd_pooled(self):
        repo = [path_graph(5), complete_graph(4)]
        gfd = repository_gfd(repo)
        assert sum(gfd.values()) == pytest.approx(1.0)
        # pooled counts: P5 has 3+2=5 graphlets, K4 has 4+1=5
        assert gfd["g3_path"] == pytest.approx(3 / 10)
        assert gfd["g3_triangle"] == pytest.approx(4 / 10)

    def test_empty_repository(self):
        gfd = repository_gfd([])
        assert all(v == 0.0 for v in gfd.values())


class TestDrift:
    def test_identical_zero(self):
        gfd = graphlet_frequency_distribution(cycle_graph(6))
        assert gfd_distance(gfd, gfd) == 0.0

    def test_symmetric(self):
        a = graphlet_frequency_distribution(path_graph(6))
        b = graphlet_frequency_distribution(complete_graph(6))
        assert gfd_distance(a, b) == pytest.approx(gfd_distance(b, a))

    def test_known_value(self):
        a = {"x": 1.0}
        b = {"x": 0.0, "y": 1.0}
        assert gfd_distance(a, b) == pytest.approx(math.sqrt(2.0))

    def test_every_hash_seed_computes_the_same_bits(self):
        # MIDAS thresholds this value, and a recovered process must
        # classify a batch as the crashed one did
        code = ("import random\n"
                "from repro.graphlets import GRAPHLET_KEYS, gfd_distance\n"
                "rng = random.Random(5)\n"
                "a, b = ({key: rng.random() for key in GRAPHLET_KEYS}\n"
                "        for _ in range(2))\n"
                "print(repr(gfd_distance(a, b)))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        values = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))
            values.add(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout)
        assert len(values) == 1

    def test_structural_shift_detected(self):
        paths = [path_graph(6) for _ in range(5)]
        cliques = [complete_graph(5) for _ in range(5)]
        drift = gfd_distance(repository_gfd(paths), repository_gfd(cliques))
        assert drift > 0.5
