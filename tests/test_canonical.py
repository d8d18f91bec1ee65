"""Tests for canonical codes, including hypothesis property tests."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    petal_graph,
    star_graph,
)
from repro.matching import are_isomorphic, canonical_code, canonical_form


def random_permutation_relabel(graph, seed):
    nodes = sorted(graph.nodes())
    shuffled = list(nodes)
    random.Random(seed).shuffle(shuffled)
    return graph.relabeled(dict(zip(nodes, shuffled)))


class TestCanonicalCode:
    def test_empty_graph(self):
        assert canonical_code(Graph()) == "#"

    def test_invariant_under_relabeling(self):
        g = gnm_random_graph(9, 14, random.Random(0), labels=["A", "B"])
        for seed in range(5):
            h = random_permutation_relabel(g, seed)
            assert canonical_code(h) == canonical_code(g)

    def test_distinguishes_structures(self):
        codes = {canonical_code(g) for g in
                 [path_graph(4), star_graph(3), cycle_graph(4),
                  complete_graph(4)]}
        assert len(codes) == 4

    def test_distinguishes_node_labels(self):
        a = build_graph([(0, "X"), (1, "Y")], edges=[(0, 1)])
        b = build_graph([(0, "X"), (1, "X")], edges=[(0, 1)])
        assert canonical_code(a) != canonical_code(b)

    def test_labels_cannot_forge_separators(self):
        # one node labeled like a second row vs. two real nodes
        forged = build_graph([(0, "X|n1:Y")])
        pair = build_graph([(0, "X"), (1, "Y")])
        assert canonical_code(pair) == "n0:X|n1:Y#"
        assert canonical_code(forged) != canonical_code(pair)
        edge = build_graph([(0, "X"), (1, "Y")],
                           labeled_edges=[(0, 1, "s#t\\")])
        assert canonical_code(edge) == "n0:X|n1:Y#e000,001:s\\#t\\\\"

    def test_distinguishes_edge_labels(self):
        a = build_graph([(0, "X"), (1, "X")], labeled_edges=[(0, 1, "s")])
        b = build_graph([(0, "X"), (1, "X")], labeled_edges=[(0, 1, "d")])
        assert canonical_code(a) != canonical_code(b)

    def test_highly_symmetric_fast(self):
        # cliques would be factorial without the transposition prune
        code1 = canonical_code(complete_graph(10))
        code2 = canonical_code(
            random_permutation_relabel(complete_graph(10), 3))
        assert code1 == code2

    def test_regular_nonisomorphic_pair(self):
        # C6 vs two disjoint triangles: both 2-regular with 6 nodes
        from repro.graph import disjoint_union
        two_tris = disjoint_union([complete_graph(3), complete_graph(3)])
        assert canonical_code(cycle_graph(6)) != canonical_code(two_tris)

    def test_petal_invariance(self):
        g = petal_graph(3, 3)
        h = random_permutation_relabel(g, 11)
        assert canonical_code(g) == canonical_code(h)


class TestCanonicalForm:
    def test_form_is_isomorphic_to_input(self):
        g = gnm_random_graph(8, 11, random.Random(4), labels=["A", "B"])
        assert are_isomorphic(g, canonical_form(g))

    def test_isomorphic_graphs_same_form(self):
        g = gnm_random_graph(7, 9, random.Random(8), labels=["A"])
        h = random_permutation_relabel(g, 21)
        assert canonical_form(g).same_as(canonical_form(h))

    def test_form_nodes_are_contiguous(self):
        g = path_graph(5).relabeled({0: 10, 1: 20, 2: 30, 3: 40, 4: 50})
        assert sorted(canonical_form(g).nodes()) == [0, 1, 2, 3, 4]

    def test_empty(self):
        assert canonical_form(Graph()).order() == 0


@st.composite
def small_labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    g = Graph()
    for i, label in enumerate(labels):
        g.add_node(i, label=label)
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True,
                           max_size=len(possible))) if possible else []
    for u, v in chosen:
        g.add_edge(u, v)
    return g


class TestCanonicalProperties:
    @given(small_labeled_graphs(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_code_permutation_invariant(self, graph, seed):
        relabeled = random_permutation_relabel(graph, seed)
        assert canonical_code(graph) == canonical_code(relabeled)

    @given(small_labeled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_code_agrees_with_isomorphism_on_self(self, graph):
        assert canonical_form(graph).same_as(
            canonical_form(canonical_form(graph)))

    @given(small_labeled_graphs(), small_labeled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_code_equality_iff_isomorphic(self, g1, g2):
        same_code = canonical_code(g1) == canonical_code(g2)
        assert same_code == are_isomorphic(g1, g2)


def memo_stats():
    """(hits, misses) of the per-object canonical-code memo."""
    from repro.obs import matching_snapshot
    stats = matching_snapshot()
    return stats["canonical_memo_hits"], stats["canonical_memo_misses"]


class TestPerObjectMemo:
    """canonical_code is memoized per object, keyed by version()."""

    def setup_method(self):
        from repro import obs
        obs.reset()

    def test_repeat_calls_hit_the_memo(self):
        g = gnm_random_graph(7, 10, random.Random(3), labels=["A", "B"])
        first = canonical_code(g)
        assert memo_stats() == (0, 1)
        assert canonical_code(g) == first
        assert canonical_code(g) == first
        assert memo_stats() == (2, 1)

    def test_mutation_invalidates_the_memo(self):
        g = gnm_random_graph(6, 8, random.Random(4), labels=["A", "B"])
        before = canonical_code(g)
        g.set_node_label(next(iter(g.nodes())), "Z")
        after = canonical_code(g)
        assert after != before
        assert memo_stats()[1] == 2
        # and the new code is itself memoized
        assert canonical_code(g) == after
        assert memo_stats()[0] == 1

    def test_distinct_equal_objects_memoize_separately(self):
        g = gnm_random_graph(6, 8, random.Random(5), labels=["A", "B"])
        h = g.copy()
        assert canonical_code(g) == canonical_code(h)
        assert memo_stats()[1] == 2

    def test_empty_graph_bypasses_memo(self):
        from repro.graph import Graph
        assert canonical_code(Graph()) == "#"
        assert memo_stats() == (0, 0)
