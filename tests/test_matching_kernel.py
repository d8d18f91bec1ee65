"""Equivalence and instrumentation tests for the v2 matching kernel.

The indexed kernel (signature-filtered candidate pools, smallest-
anchor intersection) must enumerate exactly the embedding set of the
legacy kernel (:class:`tests.oracles.LegacyMatcher`) and of a
brute-force permutation oracle, across monomorphism/induced semantics
and wildcard node/edge labels — while doing measurably less
feasibility work.
"""

import itertools
import pickle
import random

import pytest

from repro.datasets import (
    NetworkConfig,
    generate_chemical_repository,
    generate_network,
)
from repro.graph import (
    CompactGraph,
    Graph,
    build_graph,
    complete_graph,
    gnm_random_graph,
)
from repro.graph import compact
from repro.graph.operations import induced_subgraph, sample_connected_node_set
from repro.matching import (
    WILDCARD,
    SubgraphMatcher,
    covered_edges,
    labels_compatible,
)
from repro.matching import isomorphism
from repro import obs
from repro.obs import matching_snapshot
from tests.oracles import LegacyMatcher

#: The oracle first, then the shipped kernel.
MATCHERS = (LegacyMatcher, SubgraphMatcher)

KERNEL_COUNTERS = ("feasibility_checks", "recursive_calls",
                   "candidates_pruned")


def kernel_counters():
    """The kernel-counter slice of the matching snapshot."""
    stats = matching_snapshot()
    return {key: stats[key] for key in KERNEL_COUNTERS}


def embeddings_as_keys(matcher, max_results=None):
    return {tuple(sorted(m.items()))
            for m in matcher.iter_embeddings(max_results=max_results)}


def kernel_embeddings(pattern, target, induced, matcher):
    return embeddings_as_keys(matcher(pattern, target, induced=induced))


def brute_force_embeddings(pattern, target, induced=False):
    """Oracle: enumerate all injective mappings and filter."""
    p_nodes = sorted(pattern.nodes())
    results = set()
    for image in itertools.permutations(sorted(target.nodes()),
                                        len(p_nodes)):
        mapping = dict(zip(p_nodes, image))
        ok = all(labels_compatible(pattern.node_label(u),
                                   target.node_label(mapping[u]))
                 for u in p_nodes)
        for u, v in pattern.edges():
            if not ok:
                break
            ok = (target.has_edge(mapping[u], mapping[v])
                  and labels_compatible(
                      pattern.edge_label(u, v),
                      target.edge_label(mapping[u], mapping[v])))
        if ok and induced:
            for u, v in itertools.combinations(p_nodes, 2):
                if (not pattern.has_edge(u, v)
                        and target.has_edge(mapping[u], mapping[v])):
                    ok = False
                    break
        if ok:
            results.add(tuple(sorted(mapping.items())))
    return results


def random_case(seed, wildcards=False):
    rng = random.Random(seed)
    target = gnm_random_graph(6, rng.randint(5, 9), rng,
                              labels=["A", "B"])
    pattern = gnm_random_graph(3, rng.randint(2, 3), rng,
                               labels=["A", "B"])
    if wildcards:
        pattern.set_node_label(rng.choice(sorted(pattern.nodes())),
                               WILDCARD)
        u, v = rng.choice(sorted(pattern.edges()))
        pattern.set_edge_label(u, v, WILDCARD)
    return pattern, target


#: Feasibility checks the 9-case smoke suite costs the legacy kernel
#: (exact) and the indexed kernel (ceiling: any increase is a pruning
#: regression — the suite is deterministic).
SMOKE_LEGACY_CHECKS = 2046
SMOKE_INDEXED_CHECKS = 523
MIN_REDUCTION = 3


def extract_pattern(target, size, rng):
    """Connected induced subgraph of ``target``, renumbered 0..n-1."""
    if target.order() < size:
        return None
    nodes = sample_connected_node_set(target, size, rng)
    if nodes is None:
        return None
    return induced_subgraph(target, nodes).normalized()


def smoke_cases():
    """(name, pattern, target, induced) over chemical molecules, a
    synthetic network, random labeled graphs, induced semantics and
    wildcard node/edge labels."""
    cases = []
    rng = random.Random(17)
    for i, target in enumerate(generate_chemical_repository(8, seed=11)[:3]):
        pattern = extract_pattern(target, min(5, target.order()), rng)
        if pattern is not None:
            cases.append((f"chem{i}", pattern, target, False))
    network = generate_network(
        NetworkConfig(nodes=100, cliques=3, petals=2, flowers=2), seed=5)
    for j in range(2):
        pattern = extract_pattern(network, 4, rng)
        if pattern is not None:
            cases.append((f"net{j}", pattern, network, False))
    for s in range(3):
        r = random.Random(100 + s)
        target = gnm_random_graph(18, 40, r, labels=["A", "B", "C"])
        pattern = gnm_random_graph(4, 4, r, labels=["A", "B", "C"])
        cases.append((f"rand{s}", pattern, target, s % 2 == 1))
        if s == 0:
            # wildcard variant: one wildcard node, one wildcard edge
            wild = pattern.copy()
            wild.set_node_label(next(iter(wild.nodes())), WILDCARD)
            wild.set_edge_label(*next(iter(wild.edges())),
                                label=WILDCARD)
            cases.append((f"wild{s}", wild, target, False))
    return cases


class TestKernelEquivalence:
    @pytest.mark.parametrize("induced", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_indexed_equals_legacy_and_oracle(self, seed, induced):
        """Both kernels == permutation oracle on graphs <= 6 nodes."""
        pattern, target = random_case(seed)
        oracle = brute_force_embeddings(pattern, target, induced=induced)
        for matcher in MATCHERS:
            assert kernel_embeddings(pattern, target, induced,
                                     matcher) == oracle

    @pytest.mark.parametrize("induced", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_wildcard_labels_equivalent(self, seed, induced):
        """Wildcard node and edge labels: kernels == oracle."""
        pattern, target = random_case(seed, wildcards=True)
        oracle = brute_force_embeddings(pattern, target, induced=induced)
        for matcher in MATCHERS:
            assert kernel_embeddings(pattern, target, induced,
                                     matcher) == oracle

    @pytest.mark.parametrize("seed", range(4))
    def test_larger_random_graphs_agree_across_kernels(self, seed):
        rng = random.Random(500 + seed)
        target = gnm_random_graph(20, 50, rng, labels=["A", "B", "C"])
        pattern = gnm_random_graph(4, 4, rng, labels=["A", "B", "C"])
        for induced in (False, True):
            assert (kernel_embeddings(pattern, target, induced,
                                      LegacyMatcher)
                    == kernel_embeddings(pattern, target, induced,
                                         SubgraphMatcher))

    def test_disconnected_pattern(self):
        pattern = build_graph([(0, "A"), (1, "A"), (2, "B")],
                              edges=[(0, 1)])
        target = gnm_random_graph(7, 9, random.Random(5),
                                  labels=["A", "B"])
        oracle = brute_force_embeddings(pattern, target)
        for matcher in MATCHERS:
            assert kernel_embeddings(pattern, target, False,
                                     matcher) == oracle

    def test_empty_pattern_and_oversized_pattern(self):
        target = complete_graph(3, label="A")
        for matcher in MATCHERS:
            assert kernel_embeddings(Graph(), target, False,
                                     matcher) == {()}
            assert kernel_embeddings(complete_graph(5, label="A"),
                                     target, False, matcher) == set()


class TestCandidatePools:
    def test_signature_filter_excludes_impossible_candidates(self):
        """A target node lacking a required neighbor label is pooled out."""
        # pattern: B adjacent to two As
        pattern = build_graph([(0, "B"), (1, "A"), (2, "A")],
                              edges=[(0, 1), (0, 2)])
        # target: b0 has two A neighbors (viable), b1 has A+C (not)
        target = build_graph(
            [(0, "B"), (1, "A"), (2, "A"), (3, "B"), (4, "A"), (5, "C")],
            edges=[(0, 1), (0, 2), (3, 4), (3, 5)])
        matcher = SubgraphMatcher(pattern, target)
        assert matcher._pools[0] == (0,)  # b1 (node 3) signature-pruned

    def test_degree_filter(self):
        pattern = build_graph([(0, "A"), (1, "A"), (2, "A")],
                              edges=[(0, 1), (0, 2)])
        target = build_graph([(0, "A"), (1, "A"), (2, "A")],
                             edges=[(0, 1), (1, 2)])
        matcher = SubgraphMatcher(pattern, target)
        # only target node 1 has degree >= 2
        assert matcher._pools[0] == (1,)

    def test_wildcard_pattern_node_pools_all_labels(self):
        pattern = build_graph([(0, WILDCARD)])
        target = build_graph([(0, "A"), (1, "B")])
        matcher = SubgraphMatcher(pattern, target)
        assert set(matcher._pools[0]) == {0, 1}

    def test_one_requirement_builds_one_pool(self, monkeypatch):
        """Pattern nodes that ask the same of a target share the pool
        its compact view built once, across matchers and patterns."""
        builds = []
        rule = isomorphism._candidate_pool

        def counted(c, key):
            builds.append(key)
            return rule(c, key)

        monkeypatch.setattr(isomorphism, "_candidate_pool", counted)
        # no budget clear between the three matchers
        monkeypatch.setattr(compact, "POOL_MEMO_LIMIT", 10 ** 9)
        target = gnm_random_graph(30, 60, random.Random(4),
                                  labels=["A", "B"])
        first = build_graph([(0, "A"), (1, "B")], edges=[(0, 1)])
        second = build_graph([(5, "B"), (7, "A")], edges=[(5, 7)])
        one, two, again = (SubgraphMatcher(first, target),
                           SubgraphMatcher(second, target),
                           SubgraphMatcher(first, target))
        assert sorted(builds) == [("A", 1, (("B", 1),)),
                                  ("B", 1, (("A", 1),))]
        assert two._pools[7] is one._pools[0] is again._pools[0]
        assert two._pool_sets[5] is one._pool_sets[1]

    def test_pools_follow_target_mutation(self):
        pattern = build_graph([(0, "A"), (1, "B")], edges=[(0, 1)])
        target = build_graph([(0, "A"), (1, "B"), (2, "A")],
                             edges=[(0, 1)])
        assert len(SubgraphMatcher(pattern, target)._pools[0]) == 1
        target.add_node(3, label="A")
        target.add_edge(3, 1)
        matcher = SubgraphMatcher(pattern, target)
        assert len(matcher._pools[0]) == 2
        assert {0: 3, 1: 1} in list(
            matcher.iter_embeddings(max_results=None))

    def test_matching_leaves_the_wire_form_alone(self):
        for name, pattern, target, induced in smoke_cases():
            wire = pickle.dumps(target)
            encoded = target.compact().encode()
            list(SubgraphMatcher(pattern, target, induced=induced)
                 .iter_embeddings(max_results=None))
            assert target.compact()._pools, name
            assert pickle.dumps(target) == wire, name
            assert target.compact().encode() == encoded, name
            assert pickle.dumps(target.compact()) == \
                pickle.dumps(CompactGraph.from_encoded(encoded)), name

    def test_memos_share_one_bounded_budget(self, monkeypatch):
        """More than the budget over several targets: the memos of
        every view in the process never hold more in all, a pool
        larger than the whole budget is not kept, and every pool
        served equals a fresh build."""
        limit = 400
        monkeypatch.setattr(compact, "POOL_MEMO_LIMIT", limit)
        rule = isomorphism._candidate_pool
        views = [gnm_random_graph(40, 90, random.Random(seed),
                                  labels=["A", "B", "C"]).compact()
                 for seed in range(3)]
        keys = [("ABC"[i % 3], i // 3 % 4,
                 (("ABC"[i // 12 % 3], 1 + i // 36),))
                for i in range(108)]
        assert sum(1 + len(rule(c, key)[0])
                   for c in views for key in keys) > 2 * limit
        for _ in range(2):
            for c in views:
                for key in keys:
                    assert c.candidate_pool(key, rule) == rule(c, key)
                    assert sum(1 + len(pool[0])
                               for view in compact._pool_budget.views
                               for pool in view._pools.values()) \
                        <= compact._pool_budget.held <= limit
        monkeypatch.setattr(compact, "POOL_MEMO_LIMIT", 40)
        wildcard = (WILDCARD, 0, ())
        assert len(views[0].candidate_pool(wildcard, rule)[0]) == 40
        assert wildcard not in (views[0]._pools or {})


class TestKernelCounters:
    def test_indexed_kernel_does_fewer_feasibility_checks(self):
        rng = random.Random(2)
        target = gnm_random_graph(40, 120, rng, labels=["A", "B", "C"])
        pattern = gnm_random_graph(5, 6, rng, labels=["A", "B", "C"])
        checks = {}
        for matcher in MATCHERS:
            obs.reset()
            list(matcher(pattern, target).iter_embeddings(
                max_results=None))
            checks[matcher] = kernel_counters()["feasibility_checks"]
        assert checks[SubgraphMatcher] < checks[LegacyMatcher]

    def test_smoke_suite_pruning(self):
        """Identical embedding sets on the 9-case micro-suite, with the
        legacy kernel's exact feasibility work and the indexed
        kernel's no-regression ceiling and >= 3x reduction."""
        checks = {matcher: 0 for matcher in MATCHERS}
        for name, pattern, target, induced in smoke_cases():
            found = {}
            for matcher in MATCHERS:
                obs.reset()
                found[matcher] = sorted(
                    tuple(sorted(m.items())) for m in matcher(
                        pattern, target, induced=induced
                    ).iter_embeddings(max_results=None))
                checks[matcher] += kernel_counters()["feasibility_checks"]
            assert found[SubgraphMatcher] == found[LegacyMatcher], name
        assert checks[LegacyMatcher] == SMOKE_LEGACY_CHECKS
        assert checks[SubgraphMatcher] <= SMOKE_INDEXED_CHECKS
        assert (checks[LegacyMatcher]
                >= MIN_REDUCTION * checks[SubgraphMatcher])

    def test_counters_reset_and_accumulate(self):
        obs.reset()
        assert kernel_counters() == {"feasibility_checks": 0,
                                     "recursive_calls": 0,
                                     "candidates_pruned": 0}
        target = complete_graph(4, label="A")
        list(SubgraphMatcher(complete_graph(3, label="A"),
                             target).iter_embeddings(max_results=None))
        stats = kernel_counters()
        assert stats["recursive_calls"] > 0
        assert stats["feasibility_checks"] > 0

    def test_counters_surface_through_perf_cache_stats(self):
        obs.reset(clear_cache_entries=True)
        stats = matching_snapshot()
        for key in KERNEL_COUNTERS + ("canonical_memo_hits",
                                      "canonical_memo_misses"):
            assert key in stats
        assert stats["feasibility_checks"] == 0
        list(SubgraphMatcher(complete_graph(3, label="A"),
                             complete_graph(4, label="A"))
             .iter_embeddings(max_results=None))
        assert matching_snapshot()["feasibility_checks"] > 0


class TestCoveredEdgesEarlyExit:
    """The hoisted saturation check must not change any result."""

    def brute_force_covered(self, pattern, target):
        covered = set()
        for key in brute_force_embeddings(pattern, target):
            mapping = dict(key)
            for u, v in pattern.edges():
                a, b = mapping[u], mapping[v]
                covered.add((a, b) if a <= b else (b, a))
        return covered

    @pytest.mark.parametrize("seed", range(10))
    def test_capped_equals_uncapped_brute_force(self, seed):
        rng = random.Random(seed)
        target = gnm_random_graph(6, rng.randint(4, 9), rng,
                                  labels=["A", "B"])
        pattern = gnm_random_graph(3, rng.randint(2, 3), rng,
                                   labels=["A", "B"])
        want = self.brute_force_covered(pattern, target)
        assert covered_edges(pattern, target) == want
        assert covered_edges(pattern, target, max_embeddings=None) == want

    def test_saturation_stops_enumeration_early(self):
        # P2 in K5 saturates coverage long before the embedding cap
        target = complete_graph(5, label="A")
        pattern = build_graph([(0, "A"), (1, "A")], edges=[(0, 1)])
        obs.reset()
        covered = covered_edges(pattern, target, max_embeddings=None)
        saturated_calls = kernel_counters()["recursive_calls"]
        assert covered == set(target.edges())
        obs.reset()
        list(SubgraphMatcher(pattern, target)
             .iter_embeddings(max_results=None))
        full_calls = kernel_counters()["recursive_calls"]
        assert saturated_calls < full_calls

    def test_edgeless_inputs(self):
        assert covered_edges(build_graph([(0, "A")]),
                             complete_graph(3, label="A")) == set()
        assert covered_edges(complete_graph(2, label="A"),
                             build_graph([(0, "A")])) == set()
