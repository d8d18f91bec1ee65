"""Tests for the compact (CSR) graph core and the mergeable cache.

The contracts under test are the ones DESIGN.md's "Compact core"
section states:

* **lossless** — ``CompactGraph`` round-trips every ``Graph`` exactly,
  including label tables, attributes, and insertion order (the order
  seeded sampling depends on);
* **invalidated** — ``Graph.compact()`` is cached per mutation
  version like the other views;
* **smaller on the wire** — pickling ships the flat encoded tuple,
  not the nested adjacency dicts;
* **kernel-equivalent** — the indexed matcher over compact arrays
  enumerates exactly what the legacy dict kernel does;
* **worker-count invariant** — cache-delta record/replay produces
  identical hit/miss counters at every worker count.
"""

import pickle
import random

import pytest

from repro import obs
from repro.graph import CompactGraph, Graph, decode_graph
from repro.matching.isomorphism import WILDCARD, SubgraphMatcher
from repro.patterns.base import PatternBudget
from repro.patterns.index import CoverageIndex
from repro.perf import CacheDelta, MatchCache, cached_covered_edges, \
    get_match_cache
from repro.tattoo.candidates import extract_chains
from tests.oracles import LegacyMatcher, legacy_pickle_payload


def random_graph(seed, nodes=24, extra_edges=28,
                 labels=("C", "N", "O"),
                 edge_labels=("s", "d")) -> Graph:
    """Connected-ish random graph with removals, attrs, and gaps in
    the node-id space (the shapes round-tripping must survive)."""
    rng = random.Random(seed)
    g = Graph(name=f"rand{seed}")
    ids = []
    for i in range(nodes):
        node = g.add_node(i * 3, label=rng.choice(labels))
        ids.append(node)
    for i in range(1, nodes):
        g.add_edge(ids[i - 1], ids[i], label=rng.choice(edge_labels))
    for _ in range(extra_edges):
        u, v = rng.sample(ids, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, label=rng.choice(edge_labels))
    g.node_attrs(ids[0])["weight"] = 1.5
    first_edge = next(iter(g.edges()))
    g.edge_attrs(*first_edge)["kind"] = "backbone"
    # punch holes in the id space and the insertion order
    for node in rng.sample(ids[2:], 3):
        g.remove_node(node)
    return g


def assert_identical(a: Graph, b: Graph) -> None:
    """Content *and* iteration-order equality."""
    assert a.same_as(b)
    assert a.name == b.name
    assert list(a.nodes()) == list(b.nodes())
    assert list(a.edges()) == list(b.edges())
    for node in a.nodes():
        assert list(a.neighbors(node)) == list(b.neighbors(node))
        assert a.node_label(node) == b.node_label(node)
        assert a.node_attrs(node) == b.node_attrs(node)
    for u, v in a.edges():
        assert a.edge_label(u, v) == b.edge_label(u, v)
        assert a.edge_attrs(u, v) == b.edge_attrs(u, v)


class TestRoundTrip:
    def test_random_graphs_round_trip(self):
        for seed in range(5):
            g = random_graph(seed)
            assert_identical(g, g.compact().to_graph())

    def test_empty_graph(self):
        g = Graph(name="empty")
        c = g.compact()
        assert c.order() == 0 and c.size() == 0
        assert_identical(g, c.to_graph())

    def test_singleton_graph(self):
        g = Graph()
        g.add_node(7, label="Zn")
        assert_identical(g, g.compact().to_graph())

    def test_label_tables_are_interned(self):
        g = random_graph(1)
        c = g.compact()
        assert set(c.node_labels) == {g.node_label(u)
                                      for u in g.nodes()}
        assert len(set(c.node_labels)) == len(c.node_labels)
        assert c.label_set() == frozenset(c.node_labels)

    def test_encode_decode(self):
        g = random_graph(2)
        state = g.compact().encode()
        assert_identical(g, CompactGraph.from_encoded(state).to_graph())
        assert_identical(g, decode_graph(state))


class TestViewInvalidation:
    def test_compact_is_cached_until_mutation(self):
        g = random_graph(3)
        c = g.compact()
        assert g.compact() is c
        u = next(iter(g.nodes()))
        g.set_node_label(u, "Xx")
        rebuilt = g.compact()
        assert rebuilt is not c
        assert "Xx" in rebuilt.node_labels
        assert_identical(g, rebuilt.to_graph())

    def test_mutation_after_compact_round_trips(self):
        g = random_graph(4)
        g.compact()
        a, b = list(g.nodes())[:2]
        if g.has_edge(a, b):
            g.remove_edge(a, b)
        else:
            g.add_edge(a, b, label="new")
        assert_identical(g, g.compact().to_graph())


class TestPickle:
    def test_pickle_round_trips(self):
        g = random_graph(5)
        assert_identical(g, pickle.loads(pickle.dumps(g)))

    def test_compact_payload_smaller_than_legacy(self):
        g = random_graph(6, nodes=60, extra_edges=120)
        compact_wire = len(pickle.dumps(g))
        legacy_wire = len(pickle.dumps(legacy_pickle_payload(g)))
        assert compact_wire < legacy_wire

    def test_compact_graph_itself_pickles(self):
        c = random_graph(7).compact()
        clone = pickle.loads(pickle.dumps(c))
        assert_identical(c.to_graph(), clone.to_graph())


def wildcard_pattern() -> Graph:
    """Path pattern with a wildcard node and a wildcard edge label."""
    p = Graph()
    p.add_node(0, label="C")
    p.add_node(1, label=WILDCARD)
    p.add_node(2, label="O")
    p.add_edge(0, 1, label=WILDCARD)
    p.add_edge(1, 2, label="s")
    return p


class TestKernelEquivalence:
    """The indexed (compact-array) kernel against the dict oracle."""

    def embeddings(self, pattern, target, max_results=None,
                   induced=False):
        indexed = list(SubgraphMatcher(
            pattern, target,
            induced=induced).iter_embeddings(max_results=max_results))
        legacy = list(LegacyMatcher(
            pattern, target,
            induced=induced).iter_embeddings(max_results=max_results))
        return indexed, legacy

    def test_plain_patterns_agree(self):
        target = random_graph(8)
        for seed in range(3):
            pattern = extract_chains(
                random_graph(seed, nodes=8, extra_edges=4),
                PatternBudget(max_patterns=2, min_size=2, max_size=5),
                random.Random(seed))
            for p in pattern:
                indexed, legacy = self.embeddings(p.graph, target,
                                                  max_results=50)
                assert indexed == legacy

    def test_wildcard_edge_labels_agree(self):
        target = random_graph(9)
        indexed, legacy = self.embeddings(wildcard_pattern(), target,
                                          max_results=200)
        assert indexed == legacy

    def test_induced_semantics_agree(self):
        target = random_graph(10)
        pattern = wildcard_pattern()
        for induced in (False, True):
            indexed, legacy = self.embeddings(pattern, target,
                                              max_results=200,
                                              induced=induced)
            assert indexed == legacy

    def test_absent_label_prunes_to_nothing(self):
        target = random_graph(11)
        p = Graph()
        p.add_node(0, label="Unobtainium")
        p.add_node(1, label="C")
        p.add_edge(0, 1)
        indexed, legacy = self.embeddings(p, target, max_results=10)
        assert indexed == legacy == []


class TestCacheDelta:
    def key(self, i):
        return ("sub", f"code{i}", "fp", False)

    def test_recording_suspends_counters(self):
        cache = MatchCache()
        delta = CacheDelta()
        with cache.recording(delta):
            cache.store(self.key(0), True)
            found, value = cache.lookup(self.key(0))
            assert found and value is True
            found, _ = cache.lookup(self.key(1))
            assert not found
        assert cache.hits == cache.misses == 0
        # store + hit logged; the miss alone logged nothing
        assert len(delta) == 2

    def test_merge_replays_hits_and_misses(self):
        worker = MatchCache()
        delta = CacheDelta()
        with worker.recording(delta):
            cache_miss_then_store = self.key(0)
            found, _ = worker.lookup(cache_miss_then_store)
            assert not found
            worker.store(cache_miss_then_store, True)
            worker.lookup(cache_miss_then_store)  # warm hit

        cold = MatchCache()
        counts = cold.merge_delta(delta)
        assert counts == {"hits": 1, "misses": 1}
        assert cold.stats()["hits"] == 1
        assert cold.stats()["misses"] == 1
        assert self.key(0) in cold

        warm = MatchCache()
        warm.store(self.key(0), True)
        warm.reset_stats()
        counts = warm.merge_delta(delta)
        # the coordinator already knew the answer: both accesses hit
        assert counts == {"hits": 2, "misses": 0}

    def test_seed_and_hot_entries_are_silent(self):
        cache = MatchCache()
        for i in range(5):
            cache.store(self.key(i), i)
        cache.reset_stats()
        snapshot = cache.hot_entries(limit=3)
        assert [key for key, _ in snapshot] == \
            [self.key(2), self.key(3), self.key(4)]
        worker = MatchCache()
        worker.seed(snapshot)
        assert worker.stats()["hits"] == 0
        assert worker.stats()["misses"] == 0
        assert len(worker) == 3

    def test_delta_pickles(self):
        delta = CacheDelta()
        delta.record(self.key(0), True)
        clone = pickle.loads(pickle.dumps(delta))
        assert clone.entries == delta.entries


@pytest.fixture()
def pattern_pool():
    budget = PatternBudget(max_patterns=4, min_size=2, max_size=5)
    rng = random.Random(13)
    patterns = []
    for seed in range(4):
        patterns.extend(extract_chains(
            random_graph(seed, nodes=10, extra_edges=6), budget, rng))
    # dedup by code, keep insertion order
    seen, unique = set(), []
    for p in patterns:
        if p.code not in seen:
            seen.add(p.code)
            unique.append(p)
    return unique


class TestWorkerCountInvariance:
    """Coverage indexing yields identical cache counters at any
    worker count — the invariance the bench harness gates on."""

    def index_stats(self, patterns, workers):
        graphs = [random_graph(seed, nodes=14, extra_edges=10)
                  for seed in range(20, 24)]
        obs.reset(clear_cache_entries=True)
        index = CoverageIndex(graphs, max_embeddings=10)
        index.add_patterns(patterns, workers=workers)
        covers = {p.code: index.cover_of(p) for p in patterns}
        stats = get_match_cache().stats()
        return covers, {"hits": stats["hits"],
                        "misses": stats["misses"]}

    def test_workers_1_vs_4_identical(self, pattern_pool):
        covers_serial, stats_serial = self.index_stats(pattern_pool, 1)
        covers_pool, stats_pool = self.index_stats(pattern_pool, 4)
        assert covers_serial == covers_pool
        assert stats_serial == stats_pool

    def test_cached_covered_edges_delta_protocol(self):
        pattern = wildcard_pattern()
        target = random_graph(30)
        obs.reset(clear_cache_entries=True)
        cache = get_match_cache()
        delta = CacheDelta()
        with cache.recording(delta):
            first = cached_covered_edges(pattern, target)
            second = cached_covered_edges(pattern, target)
        assert first == second
        assert cache.hits == cache.misses == 0
        replay = MatchCache()
        counts = replay.merge_delta(delta)
        assert counts["misses"] >= 1
        assert counts["hits"] >= 1
